"""Logic partitioning: split the design into static part + RPs.

This is the first step of the Xilinx DPR flow (Sec. II): partially
reconfigurable accelerators are pre-allocated to reconfigurable
partitions (RPs). In PR-ESP the allocation is the identity mapping
from reconfigurable tiles to RPs — each tile's wrapper is one RP — and
the static part is everything else (CPU/MEM/AUX/SLM tiles, sockets,
NoC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.errors import FlowError
from repro.fabric.resources import ResourceVector
from repro.soc.config import SocConfig
from repro.soc.rtl import Module, generate_rtl
from repro.soc.tiles import ReconfigurableTile


@dataclass(frozen=True)
class ReconfigurablePartition:
    """One RP: a reconfigurable tile's wrapper and its mode set."""

    name: str
    tile: ReconfigurableTile
    wrapper: Module
    demand: ResourceVector  # floorplanning demand (max over modes)
    synthesis_luts: int  # paper's lut_i (sum over modes)

    @property
    def mode_names(self) -> List[str]:
        """Accelerators this RP can host."""
        return self.tile.mode_names()


@dataclass(frozen=True)
class StaticPartition:
    """The static part: every module outside the RPs."""

    luts: int
    module_names: Tuple[str, ...]


@dataclass(frozen=True)
class DesignPartition:
    """Result of partitioning a design: static part + ordered RPs."""

    config: SocConfig
    rtl: Module
    static: StaticPartition
    rps: Tuple[ReconfigurablePartition, ...]

    @property
    def num_rps(self) -> int:
        """Number of reconfigurable partitions (paper's N)."""
        return len(self.rps)

    def rp_by_name(self, name: str) -> ReconfigurablePartition:
        """RP lookup by name."""
        for rp in self.rps:
            if rp.name == name:
                return rp
        raise FlowError(f"no reconfigurable partition named {name!r}")

    def rp_luts(self) -> List[int]:
        """Per-RP synthesis LUTs, in tile order (paper's lut_i list)."""
        return [rp.synthesis_luts for rp in self.rps]


def partition_design(config: SocConfig) -> DesignPartition:
    """Partition ``config`` into its static part and RPs.

    The returned static size agrees with ``config.static_luts()``; a
    mismatch would indicate an RTL-generation bug and raises.
    """
    rtl = generate_rtl(config)
    wrapper_roots = rtl.reconfigurable_roots()
    reconf_tiles = config.reconfigurable_tiles
    if len(wrapper_roots) != len(reconf_tiles):
        raise FlowError(
            f"RTL exposes {len(wrapper_roots)} reconfigurable roots but the "
            f"config has {len(reconf_tiles)} reconfigurable tiles"
        )

    wrappers = {root.name: root for root in wrapper_roots}
    rps: List[ReconfigurablePartition] = []
    for tile in reconf_tiles:
        wrapper = wrappers.get(f"{tile.name}_wrapper")
        if wrapper is None:
            raise FlowError(f"missing reconfigurable wrapper for tile {tile.name}")
        rps.append(
            ReconfigurablePartition(
                name=tile.name,
                tile=tile,
                wrapper=wrapper,
                demand=tile.partition_resources(),
                synthesis_luts=tile.synthesis_luts(),
            )
        )

    static_luts = rtl.static_luts()
    expected = config.static_luts()
    if static_luts != expected:
        raise FlowError(
            f"static size mismatch: RTL says {static_luts}, config accounting "
            f"says {expected}"
        )
    reconf_module_ids = {id(m) for root in wrapper_roots for m in root.walk()}
    static_modules = tuple(
        m.name for m in rtl.walk() if id(m) not in reconf_module_ids
    )
    static = StaticPartition(luts=static_luts, module_names=static_modules)
    return DesignPartition(config=config, rtl=rtl, static=static, rps=tuple(rps))
