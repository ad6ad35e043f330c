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

Grammar, read line by line in one pass:

- A line whose first non-blank character is ``#`` or ``;`` is a
  comment. There are no inline comments: ``core = leon3 ; x`` has the
  value ``leon3 ; x``, and ``%`` is an ordinary character.
- A line that starts with ``[`` and has a ``]`` after at least one
  character is a section header. The name runs to the last ``]`` (text
  after it is ignored) and is case-sensitive: ``[soc]`` is required,
  and every other section is ``[tile NAME]``.
- Any other line is ``key = value`` or ``key: value``, split at the
  first ``=`` or ``:``. Keys are case-insensitive; keys and values are
  stripped of surrounding blanks.
- A line indented deeper than the key line before it continues that
  value: the pieces are joined with a newline (``modes = fft,`` then
  ``    gemm`` reads as two modes). Blank lines inside such a value are
  kept, comment lines are skipped.

Rejected as ``malformed esp_config: line N: ...``: text before the
first header, a line without a delimiter or with an empty key, a
repeated section and a repeated key in one section. After reading,
each of these raises its own :class:`~repro.errors.ConfigurationError`:
a missing ``[soc]``; any other section name, ``[DEFAULT]`` included; an
empty tile name; a missing required key; a key the section does not
read (``[soc]`` reads ``name``, ``board``, ``rows`` and ``cols``; every
tile reads ``type``; a ``cpu`` tile also ``core``, an ``acc`` tile
``accelerator``, a ``reconf`` tile ``modes`` and ``host_cpu``); and a
malformed value, named with its section and key.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.soc.config import SocConfig
from repro.soc.esp_library import AcceleratorIP, STOCK_ACCELERATORS
from repro.soc.tiles import CpuCore, ReconfigurableTile, Tile, TileKind

#: The keys each section reads; a tile's depend on its type.
_SOC_KEYS = ("name", "board", "rows", "cols")
_TILE_KEYS = {
    "cpu": ("type", "core"),
    "acc": ("type", "accelerator"),
    "reconf": ("type", "modes", "host_cpu"),
}

#: Value -> member, looked up without the enum constructor.
_KINDS = {kind.value: kind for kind in TileKind}
_CORES = {core.value: core for core in CpuCore}

#: The spellings of a boolean value, compared lower-cased.
_BOOLEANS = {
    "1": True, "yes": True, "true": True, "on": True,
    "0": False, "no": False, "false": False, "off": False,
}


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


def _malformed(number: int, problem: str) -> ConfigurationError:
    return ConfigurationError(f"malformed esp_config: line {number}: {problem}")


def _read_sections(text: str) -> Dict[str, Dict[str, str]]:
    """Section name -> {lower-cased key: value}, in file order.

    One pass over the lines (see the module docstring for the grammar).
    """
    sections: Dict[str, Dict[str, str]] = {}
    section: Optional[Dict[str, str]] = None
    name = ""
    key: Optional[str] = None  # the value an indented line continues
    indent = 0  # of the last header or key line
    blanks = 0  # blank lines seen inside the current value
    for number, line in enumerate(text.split("\n"), 1):
        stripped = line.strip()
        if not stripped:
            blanks += 1
            continue
        if stripped[0] in "#;":
            continue
        depth = len(line) - len(line.lstrip())
        if key is not None and depth > indent:
            section[key] += "\n" * (blanks + 1) + stripped  # type: ignore[index]
            blanks = 0
            continue
        indent = depth
        blanks = 0
        close = stripped.rfind("]")
        if stripped[0] == "[" and close > 1:
            name = stripped[1:close]
            if name in sections:
                raise _malformed(number, f"duplicate section [{name}]")
            section = sections[name] = {}
            key = None
            continue
        if section is None:
            raise _malformed(number, f"{stripped!r} comes before any section")
        cut = stripped.find("=")
        colon = stripped.find(":", 0, cut) if cut >= 0 else stripped.find(":")
        if colon >= 0:
            cut = colon
        key = stripped[:cut].rstrip().lower() if cut > 0 else ""
        if not key:
            raise _malformed(number, f"cannot parse {stripped!r}")
        if key in section:
            raise _malformed(number, f"duplicate key {key!r} in [{name}]")
        section[key] = stripped[cut + 1:].lstrip()
    return sections


def _reject_unknown_keys(
    section: str, body: Mapping[str, str], known: Tuple[str, ...]
) -> None:
    """Name the first key of ``[section]`` that it does not read."""
    for key in body:
        if key not in known:
            raise ConfigurationError(f"[{section}] unknown key {key!r}")


def parse_esp_config(
    text: str, catalog: Optional[Mapping[str, AcceleratorIP]] = None
) -> SocConfig:
    """Parse an ``.esp_config``-style description into a SocConfig."""
    catalog = catalog if catalog is not None else _shared_catalog()
    sections = _read_sections(text)

    soc = sections.get("soc")
    if soc is None:
        raise ConfigurationError("esp_config needs a [soc] section")
    for key in _SOC_KEYS:
        if key not in soc:
            raise ConfigurationError(f"[soc] section is missing {key!r}")
    _reject_unknown_keys("soc", soc, _SOC_KEYS)

    def resolve(mode: str) -> AcceleratorIP:
        mode = mode.strip().lower()
        if mode not in catalog:
            raise ConfigurationError(f"unknown accelerator {mode!r} in esp_config")
        return catalog[mode]

    tiles: List[Tile] = []
    for section, body in sections.items():
        if not section.startswith("tile "):
            if section != "soc":
                raise ConfigurationError(f"unknown section [{section}]")
            continue
        tile_name = section[len("tile "):].strip()
        if "type" not in body:
            raise ConfigurationError(f"[{section}] is missing 'type'")
        kind_text = body["type"].strip().lower()
        kind = _KINDS.get(kind_text)
        if kind is None:
            raise ConfigurationError(f"[{section}] has unknown tile type {kind_text!r}")
        _reject_unknown_keys(section, body, _TILE_KEYS.get(kind_text, ("type",)))
        if kind is TileKind.RECONF:
            modes_text = body.get("modes", "").strip()
            modes = [resolve(m) for m in modes_text.split(",") if m.strip()]
            host_cpu = _BOOLEANS.get(body.get("host_cpu", "false").lower())
            if host_cpu is None:
                raise ConfigurationError(
                    f"[{section}] host_cpu must be a boolean, got {body['host_cpu']!r}"
                )
            tiles.append(
                ReconfigurableTile(name=tile_name, modes=modes, host_cpu=host_cpu)
            )
        elif kind is TileKind.CPU:
            core_text = body.get("core", "leon3").strip().lower()
            core = _CORES.get(core_text)
            if core is None:
                raise ConfigurationError(
                    f"[{section}] core must be one of {', '.join(_CORES)}, "
                    f"got {core_text!r}"
                )
            tiles.append(Tile(kind=TileKind.CPU, name=tile_name, cpu_core=core))
        elif kind is TileKind.ACC:
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
