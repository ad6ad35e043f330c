"""Tile taxonomy of the PR-ESP architecture.

PR-ESP keeps ESP's tile kinds (processor, memory, auxiliary, shared
local memory, accelerator) and adds the *reconfigurable tile*: an
accelerator socket whose wrapper is a reconfigurable partition able to
host any accelerator of the SoC's mode set, fronted by decoupling logic
(see ``repro.soc.socket``). The paper's Class 2.1 designs also allow a
*CPU-hosted* reconfigurable tile: the processor is placed inside a
reconfigurable partition purely to shrink the static part (it is never
actually swapped at runtime).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.fabric.resources import ResourceVector
from repro.soc.esp_library import (
    AcceleratorIP,
    CPU_TILE_GLUE_LUTS,
    LEON3_CORE_LUTS,
)


class TileKind(enum.Enum):
    """Kinds of tiles on the grid."""

    CPU = "cpu"
    MEM = "mem"
    AUX = "aux"
    SLM = "slm"
    ACC = "acc"  # static (non-reconfigurable) accelerator tile
    RECONF = "reconf"  # PR-ESP reconfigurable tile
    EMPTY = "empty"

    # Members are singletons, so hashing by identity agrees with enum
    # equality and keeps dict lookups keyed on members in C (Enum's own
    # __hash__ is a Python-level call on every lookup).
    __hash__ = object.__hash__

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class CpuCore(enum.Enum):
    """Processor cores ESP supports for the CPU tile."""

    LEON3 = "leon3"  # 32-bit SPARC
    CVA6 = "cva6"  # 64-bit RISC-V (Ariane)

    __hash__ = object.__hash__  # as TileKind's


#: Post-synthesis LUT cost of each CPU core including tile glue.
#: Leon3 comes from Table II (41,544 core + 1,469 glue); CVA6 is not in
#: the paper and uses the published Ariane FPGA figure (~65k LUTs).
CPU_TILE_LUTS = {
    CpuCore.LEON3: LEON3_CORE_LUTS + CPU_TILE_GLUE_LUTS,
    CpuCore.CVA6: 65000 + CPU_TILE_GLUE_LUTS,
}

#: Base LUT cost of non-CPU tile kinds (excluding the NoC router/socket).
#: Calibrated so a 3x3 SoC with one MEM + one AUX tile reproduces the
#: published static-part sizes of Table II exactly (see tests).
TILE_BASE_LUTS = {
    TileKind.MEM: 18054,
    TileKind.AUX: 13000,
    TileKind.SLM: 5800,
    TileKind.EMPTY: 0,
}

#: LUTs of one NoC router plus the socket proxies, per grid position.
ROUTER_SOCKET_LUTS = 300

#: SoC-level miscellaneous static logic (I/O, DDR controller front-end).
SOC_MISC_LUTS = 5500

#: Resource overhead of the reconfigurable wrapper + decoupler, added on
#: top of the largest mode when sizing a reconfigurable partition.
RECONF_WRAPPER_LUTS = 420


@dataclass(frozen=True)
class Tile:
    """One tile instance (position is assigned by the SoC config grid)."""

    kind: TileKind
    name: str
    cpu_core: Optional[CpuCore] = None
    accelerator: Optional[AcceleratorIP] = None

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise ConfigurationError(f"{self.kind.value} tile needs a non-empty name")
        if self.kind is TileKind.CPU and self.cpu_core is None:
            object.__setattr__(self, "cpu_core", CpuCore.LEON3)
        if self.kind is not TileKind.CPU and self.cpu_core is not None:
            raise ConfigurationError(f"tile {self.name}: only CPU tiles take a core")
        if self.kind is TileKind.ACC and self.accelerator is None:
            raise ConfigurationError(f"tile {self.name}: ACC tile needs an accelerator")
        if self.kind not in (TileKind.ACC, TileKind.RECONF) and self.accelerator is not None:
            raise ConfigurationError(
                f"tile {self.name}: {self.kind.value} tiles do not host accelerators"
            )

    @property
    def is_static(self) -> bool:
        """True for tiles that belong to the static part of a DPR design."""
        return self.kind is not TileKind.RECONF

    def base_luts(self) -> int:
        """LUTs the tile contributes excluding the router/socket."""
        if self.kind is TileKind.CPU:
            assert self.cpu_core is not None
            return CPU_TILE_LUTS[self.cpu_core]
        if self.kind is TileKind.ACC:
            assert self.accelerator is not None
            return self.accelerator.luts
        if self.kind is TileKind.RECONF:
            raise ConfigurationError(
                "reconfigurable tiles are sized from their mode set; "
                "use ReconfigurableTile.partition_resources()"
            )
        return TILE_BASE_LUTS[self.kind]


@dataclass(frozen=True)
class ReconfigurableTile(Tile):
    """A PR-ESP reconfigurable tile with its set of hostable modes.

    ``modes`` is the set of accelerators that may be loaded into this
    tile at runtime; the reconfigurable partition must be floorplanned
    for the component-wise maximum of their demands. ``host_cpu``
    reproduces the paper's Class 2.1 trick of placing the processor in
    the reconfigurable part to shrink the static region.
    """

    modes: Tuple[AcceleratorIP, ...] = ()
    host_cpu: bool = False
    hosted_cpu_core: CpuCore = CpuCore.LEON3

    def __init__(
        self,
        name: str,
        modes: Sequence[AcceleratorIP],
        host_cpu: bool = False,
        hosted_cpu_core: CpuCore = CpuCore.LEON3,
    ) -> None:
        super().__init__(kind=TileKind.RECONF, name=name)
        object.__setattr__(self, "modes", tuple(modes))
        object.__setattr__(self, "host_cpu", host_cpu)
        object.__setattr__(self, "hosted_cpu_core", hosted_cpu_core)
        if not self.modes and not host_cpu:
            raise ConfigurationError(f"tile {name}: reconfigurable tile with no modes")
        seen = set()
        for ip in self.modes:
            if ip.name in seen:
                raise ConfigurationError(f"tile {name}: duplicate mode {ip.name!r}")
            seen.add(ip.name)

    def mode_names(self) -> List[str]:
        """Names of the hostable accelerators."""
        return [ip.name for ip in self.modes]

    def partition_resources(self) -> ResourceVector:
        """Demand of the reconfigurable partition: max over modes + wrapper."""
        demands = [ip.resources for ip in self.modes]
        if self.host_cpu:
            demands.append(
                ResourceVector(
                    lut=CPU_TILE_LUTS[self.hosted_cpu_core],
                    ff=int(CPU_TILE_LUTS[self.hosted_cpu_core] * 1.2),
                    bram=16,
                    dsp=8,
                )
            )
        # One vector for the component-wise maximum, not one per mode.
        return ResourceVector(
            lut=max([d.lut for d in demands], default=0) + RECONF_WRAPPER_LUTS,
            ff=max([d.ff for d in demands], default=0) + RECONF_WRAPPER_LUTS,
            bram=max([d.bram for d in demands], default=0),
            dsp=max([d.dsp for d in demands], default=0),
        )

    def synthesis_luts(self) -> int:
        """Sum of LUTs of everything synthesized for this tile.

        This is the paper's :math:`lut_i` — the size that drives the
        P&R runtime of the tile's (grouped) implementation runs. For a
        multi-mode tile every mode must be placed and routed once, so
        the CAD effort scales with the sum, not the max.
        """
        total = sum(ip.luts for ip in self.modes)
        if self.host_cpu:
            total += CPU_TILE_LUTS[self.hosted_cpu_core]
        return total + RECONF_WRAPPER_LUTS
