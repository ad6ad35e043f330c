"""Text-format SoC descriptions (the ``.esp_config`` equivalent).

ESP drives its flows from a small text configuration; PR-ESP "starts by
parsing the input SoC configuration to generate the RTL hierarchy of
the full SoC" (Sec. IV). This module provides that front door: an
INI-style format with one section per tile, parsed into
:class:`~repro.soc.config.SocConfig` and rendered back losslessly.

Example::

    [soc]
    name = demo
    board = vc707
    rows = 2
    cols = 3

    [tile cpu0]
    type = cpu
    core = leon3

    [tile mem0]
    type = mem

    [tile aux0]
    type = aux

    [tile rt0]
    type = reconf
    modes = fft, gemm
"""

from __future__ import annotations

import configparser
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional

from repro.errors import ConfigurationError
from repro.soc.config import SocConfig
from repro.soc.esp_library import AcceleratorIP, STOCK_ACCELERATORS
from repro.soc.tiles import CpuCore, ReconfigurableTile, Tile, TileKind


@lru_cache(maxsize=None)
def _shared_catalog() -> Mapping[str, AcceleratorIP]:
    """The default catalog, built once: the IPs are immutable, and a
    read-only view keeps the shared mapping so."""
    from repro.wami.accelerators import wami_catalog

    catalog = dict(STOCK_ACCELERATORS)
    catalog.update(wami_catalog())
    return MappingProxyType(catalog)


def default_catalog() -> Dict[str, AcceleratorIP]:
    """Stock ESP accelerators plus the WAMI kernels, as a fresh dict the
    caller may change."""
    return dict(_shared_catalog())


def parse_esp_config(
    text: str, catalog: Optional[Mapping[str, AcceleratorIP]] = None
) -> SocConfig:
    """Parse an ``.esp_config``-style description into a SocConfig."""
    catalog = catalog if catalog is not None else _shared_catalog()
    # The format has no interpolation: a '%' in a value is literal.
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as error:
        raise ConfigurationError(f"malformed esp_config: {error}") from None

    if "soc" not in parser:
        raise ConfigurationError("esp_config needs a [soc] section")
    soc = parser["soc"]
    for key in ("name", "board", "rows", "cols"):
        if key not in soc:
            raise ConfigurationError(f"[soc] section is missing {key!r}")

    def resolve(mode: str) -> AcceleratorIP:
        mode = mode.strip().lower()
        if mode not in catalog:
            raise ConfigurationError(f"unknown accelerator {mode!r} in esp_config")
        return catalog[mode]

    tiles: List[Tile] = []
    for section in parser.sections():
        if not section.startswith("tile "):
            if section != "soc":
                raise ConfigurationError(f"unknown section [{section}]")
            continue
        tile_name = section[len("tile "):].strip()
        body = parser[section]
        if "type" not in body:
            raise ConfigurationError(f"[{section}] is missing 'type'")
        kind_text = body["type"].strip().lower()
        if kind_text == "reconf":
            modes_text = body.get("modes", "").strip()
            modes = [resolve(m) for m in modes_text.split(",") if m.strip()]
            try:
                host_cpu = body.getboolean("host_cpu", fallback=False)
            except ValueError:
                raise ConfigurationError(
                    f"[{section}] host_cpu must be a boolean, got {body['host_cpu']!r}"
                ) from None
            tiles.append(
                ReconfigurableTile(name=tile_name, modes=modes, host_cpu=host_cpu)
            )
        elif kind_text == "cpu":
            core_text = body.get("core", "leon3").strip().lower()
            try:
                core = CpuCore(core_text)
            except ValueError:
                choices = ", ".join(member.value for member in CpuCore)
                raise ConfigurationError(
                    f"[{section}] core must be one of {choices}, got {core_text!r}"
                ) from None
            tiles.append(Tile(kind=TileKind.CPU, name=tile_name, cpu_core=core))
        elif kind_text == "acc":
            if "accelerator" not in body:
                raise ConfigurationError(f"[{section}] acc tile needs 'accelerator'")
            tiles.append(
                Tile(
                    kind=TileKind.ACC,
                    name=tile_name,
                    accelerator=resolve(body["accelerator"]),
                )
            )
        else:
            try:
                kind = TileKind(kind_text)
            except ValueError:
                raise ConfigurationError(
                    f"[{section}] has unknown tile type {kind_text!r}"
                ) from None
            tiles.append(Tile(kind=kind, name=tile_name))

    def grid_size(key: str) -> int:
        try:
            return int(soc[key])
        except ValueError:
            raise ConfigurationError(
                f"[soc] {key} must be an integer, got {soc[key]!r}"
            ) from None

    return SocConfig.assemble(
        name=soc["name"].strip(),
        board=soc["board"].strip(),
        rows=grid_size("rows"),
        cols=grid_size("cols"),
        tiles=tiles,
    )


def render_esp_config(config: SocConfig) -> str:
    """Render a SocConfig back to the text format (round-trippable)."""
    lines = [
        "[soc]",
        f"name = {config.name}",
        f"board = {config.board}",
        f"rows = {config.rows}",
        f"cols = {config.cols}",
    ]
    for tile in config.tiles:
        if tile.kind is TileKind.EMPTY:
            continue  # assemble() regenerates padding
        lines.append("")
        lines.append(f"[tile {tile.name}]")
        if isinstance(tile, ReconfigurableTile):
            lines.append("type = reconf")
            if tile.modes:
                lines.append("modes = " + ", ".join(tile.mode_names()))
            if tile.host_cpu:
                lines.append("host_cpu = true")
        elif tile.kind is TileKind.CPU:
            lines.append("type = cpu")
            lines.append(f"core = {tile.cpu_core.value}")  # type: ignore[union-attr]
        elif tile.kind is TileKind.ACC:
            lines.append("type = acc")
            lines.append(f"accelerator = {tile.accelerator.name}")  # type: ignore[union-attr]
        else:
            lines.append(f"type = {tile.kind.value}")
    return "\n".join(lines) + "\n"


def load_esp_config(
    path, catalog: Optional[Mapping[str, AcceleratorIP]] = None
) -> SocConfig:
    """Parse an esp_config file from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_esp_config(handle.read(), catalog=catalog)
