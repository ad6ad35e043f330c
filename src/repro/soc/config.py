"""SoC configuration: the input the PR-ESP flow parses.

ESP describes an SoC as a grid of tiles (``esp_config``); PR-ESP parses
that description to split reconfigurable-tile sources from the static
part. :class:`SocConfig` is the in-memory form of that description with
full validation, JSON round-tripping, and the static-size accounting
the size-driven model needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.fabric.device import Device
from repro.fabric.parts import PART_CATALOG, make_device
from repro.soc.esp_library import AcceleratorIP, stock_accelerator
from repro.soc.tiles import (
    CpuCore,
    ROUTER_SOCKET_LUTS,
    ReconfigurableTile,
    SOC_MISC_LUTS,
    Tile,
    TileKind,
)


@dataclass(frozen=True)
class SocConfig:
    """A validated SoC description: board + rows x cols tile grid."""

    name: str
    board: str
    rows: int
    cols: int
    tiles: Tuple[Tile, ...]  # row-major, length rows * cols

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("SoC needs a non-empty name")
        if self.board.lower() not in PART_CATALOG:
            raise ConfigurationError(
                f"unknown board {self.board!r}; supported: {sorted(PART_CATALOG)}"
            )
        if self.rows <= 0 or self.cols <= 0:
            raise ConfigurationError("grid dimensions must be positive")
        if len(self.tiles) != self.rows * self.cols:
            raise ConfigurationError(
                f"grid {self.rows}x{self.cols} needs {self.rows * self.cols} tiles, "
                f"got {len(self.tiles)}"
            )
        names = [t.name for t in self.tiles]
        if len(set(names)) != len(names):
            raise ConfigurationError("tile names must be unique")
        self._validate_tile_mix()

    def _validate_tile_mix(self) -> None:
        kinds = [t.kind for t in self.tiles]
        if kinds.count(TileKind.AUX) != 1:
            raise ConfigurationError(
                "an SoC needs exactly one auxiliary tile (hosts the DFX "
                f"controller and ICAP); found {kinds.count(TileKind.AUX)}"
            )
        if kinds.count(TileKind.MEM) < 1:
            raise ConfigurationError("an SoC needs at least one memory tile")
        has_static_cpu = TileKind.CPU in kinds
        has_hosted_cpu = any(
            isinstance(t, ReconfigurableTile) and t.host_cpu for t in self.tiles
        )
        if not has_static_cpu and not has_hosted_cpu:
            raise ConfigurationError(
                "an SoC needs a processor: either a CPU tile or a "
                "reconfigurable tile with host_cpu=True"
            )
        if has_static_cpu and has_hosted_cpu:
            raise ConfigurationError(
                "a CPU tile and a CPU-hosting reconfigurable tile are exclusive"
            )

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def assemble(
        cls,
        name: str,
        board: str,
        rows: int,
        cols: int,
        tiles: Sequence[Tile],
    ) -> "SocConfig":
        """Place ``tiles`` row-major and pad the grid with EMPTY tiles."""
        capacity = rows * cols
        if len(tiles) > capacity:
            raise ConfigurationError(
                f"{len(tiles)} tiles do not fit a {rows}x{cols} grid"
            )
        padded = list(tiles) + [
            Tile(kind=TileKind.EMPTY, name=f"empty_{i}")
            for i in range(capacity - len(tiles))
        ]
        return cls(name=name, board=board, rows=rows, cols=cols, tiles=tuple(padded))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_tiles(self) -> int:
        """Grid positions (including EMPTY tiles)."""
        return self.rows * self.cols

    def tile_at(self, row: int, col: int) -> Tile:
        """Tile at grid position (row, col)."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ConfigurationError(f"position ({row}, {col}) outside grid")
        return self.tiles[row * self.cols + col]

    def position_of(self, tile_name: str) -> Tuple[int, int]:
        """Grid (row, col) of the tile named ``tile_name``."""
        for index, tile in enumerate(self.tiles):
            if tile.name == tile_name:
                return divmod(index, self.cols)
        raise ConfigurationError(f"no tile named {tile_name!r}")

    def tiles_of_kind(self, kind: TileKind) -> List[Tile]:
        """All tiles of ``kind`` in row-major order."""
        return [t for t in self.tiles if t.kind is kind]

    @property
    def static_tiles(self) -> List[Tile]:
        """Tiles belonging to the static part (everything non-RECONF)."""
        return [t for t in self.tiles if t.is_static]

    @property
    def reconfigurable_tiles(self) -> List[ReconfigurableTile]:
        """The reconfigurable tiles in row-major order."""
        return [t for t in self.tiles if isinstance(t, ReconfigurableTile)]

    def device(self) -> Device:
        """Instantiate the board's device model."""
        return make_device(self.board)

    # ------------------------------------------------------------------
    # size accounting (inputs of the paper's Eq. 1 metrics)
    # ------------------------------------------------------------------
    def static_luts(self) -> int:
        """:math:`lut_{static}` — LUTs of the static part.

        Tile base costs, one router+socket per grid position (the
        sockets of reconfigurable tiles stay static: only the wrapper
        reconfigures), and the SoC-level miscellaneous logic.
        """
        tile_luts = sum(t.base_luts() for t in self.static_tiles)
        return tile_luts + ROUTER_SOCKET_LUTS * self.num_tiles + SOC_MISC_LUTS

    def reconfigurable_luts(self) -> List[int]:
        """:math:`lut_i` per reconfigurable tile (synthesis LUTs)."""
        return [t.synthesis_luts() for t in self.reconfigurable_tiles]

    def total_design_luts(self) -> int:
        """LUTs of the whole design (static + all reconfigurable tiles)."""
        return self.static_luts() + sum(self.reconfigurable_luts())

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        """JSON-serializable form (inverse of :meth:`from_dict`)."""
        tile_dicts = []
        for tile in self.tiles:
            entry: Dict = {"kind": tile.kind.value, "name": tile.name}
            if tile.kind is TileKind.CPU:
                entry["cpu_core"] = tile.cpu_core.value  # type: ignore[union-attr]
            if tile.accelerator is not None:
                entry["accelerator"] = tile.accelerator.name
            if isinstance(tile, ReconfigurableTile):
                entry["modes"] = tile.mode_names()
                entry["host_cpu"] = tile.host_cpu
            tile_dicts.append(entry)
        return {
            "name": self.name,
            "board": self.board,
            "rows": self.rows,
            "cols": self.cols,
            "tiles": tile_dicts,
        }

    @classmethod
    def from_dict(
        cls,
        data: Dict,
        accelerator_catalog: Optional[Dict[str, AcceleratorIP]] = None,
    ) -> "SocConfig":
        """Rebuild a config from :meth:`to_dict` output.

        ``accelerator_catalog`` resolves mode names; it defaults to the
        stock ESP catalog.
        """

        def resolve(acc_name: str) -> AcceleratorIP:
            if accelerator_catalog and acc_name in accelerator_catalog:
                return accelerator_catalog[acc_name]
            return stock_accelerator(acc_name)

        tiles: List[Tile] = []
        for entry in data["tiles"]:
            kind = TileKind(entry["kind"])
            if kind is TileKind.RECONF:
                tiles.append(
                    ReconfigurableTile(
                        name=entry["name"],
                        modes=[resolve(m) for m in entry.get("modes", [])],
                        host_cpu=bool(entry.get("host_cpu", False)),
                    )
                )
            elif kind is TileKind.CPU:
                tiles.append(
                    Tile(
                        kind=kind,
                        name=entry["name"],
                        cpu_core=CpuCore(entry.get("cpu_core", "leon3")),
                    )
                )
            elif kind is TileKind.ACC:
                tiles.append(
                    Tile(kind=kind, name=entry["name"], accelerator=resolve(entry["accelerator"]))
                )
            else:
                tiles.append(Tile(kind=kind, name=entry["name"]))
        return cls(
            name=data["name"],
            board=data["board"],
            rows=int(data["rows"]),
            cols=int(data["cols"]),
            tiles=tuple(tiles),
        )
