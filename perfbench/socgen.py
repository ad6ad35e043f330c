"""Seeded generator of ``.esp_config`` SoC descriptions.

Every design targets a VCU118 or VCU128 board, whose fabric is large
enough that all of them floorplan: the flow workloads measure builds,
not placement failures. The designs are stratified by board and by
reconfigurable-tile count (2 to 8), so two seeds give lists with the
same mix of sizes and differ only in which catalog accelerators each
tile hosts. That keeps the host cost of a list steady across seeds
while every design stays distinct.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import List, Sequence, Tuple

BOARDS = ("vcu118", "vcu128")
MIN_TILES, MAX_TILES = 2, 8
MAX_MODES = 3


@dataclass(frozen=True)
class Design:
    """One generated SoC: reconfigurable tile ``rt<i>`` hosts ``tiles[i]``."""

    name: str
    board: str
    tiles: Tuple[Tuple[str, ...], ...]

    def render(self) -> str:
        """The esp_config text: the CPU/MEM/AUX trio plus the tiles."""
        total = 3 + len(self.tiles)
        cols = 3 if total <= 9 else 4
        rows = -(-total // cols)
        sections = [
            f"[soc]\nname = {self.name}\nboard = {self.board}\n"
            f"rows = {rows}\ncols = {cols}\n",
            "[tile cpu0]\ntype = cpu\ncore = leon3\n",
            "[tile mem0]\ntype = mem\n",
            "[tile aux0]\ntype = aux\n",
        ]
        for index, modes in enumerate(self.tiles):
            sections.append(
                f"[tile rt{index}]\ntype = reconf\nmodes = {', '.join(modes)}\n"
            )
        return "\n".join(sections)


def generate(
    seed: int, count: int, prefix: str, catalog: Sequence[str]
) -> List[Design]:
    """``count`` distinct designs drawn from ``seed``.

    Design ``i`` has ``2 + i % 7`` reconfigurable tiles on board
    ``BOARDS[(i // 7) % 2]``; each tile hosts 1 to 3 distinct
    accelerators drawn from ``catalog``.
    """
    rng = random.Random(f"socgen:{seed}:{prefix}")
    names = sorted(catalog)
    span = MAX_TILES - MIN_TILES + 1
    designs = []
    for index in range(count):
        tiles = tuple(
            tuple(rng.sample(names, rng.randint(1, MAX_MODES)))
            for _ in range(MIN_TILES + index % span)
        )
        board = BOARDS[(index // span) % len(BOARDS)]
        designs.append(Design(f"{prefix}{index}", board, tiles))
    return designs


def write(designs: Sequence[Design], directory: Path) -> List[str]:
    """Write each design as ``<name>.esp_config``; their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for design in designs:
        path = directory / f"{design.name}.esp_config"
        path.write_text(design.render(), encoding="utf-8")
        paths.append(str(path))
    return paths
