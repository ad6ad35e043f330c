"""Incremental recompilation of individual reconfigurable tiles.

The DPR structure PR-ESP builds makes accelerator iteration cheap:
once the static part is placed, routed and locked, changing one
accelerator only requires re-running that tile's OoC synthesis, its
in-context P&R against the *existing* static checkpoint, and its
partial bitstreams — minutes instead of the hours of a full rebuild.
This is the compile-time dividend the paper's introduction attributes
to DPR (citing [7]) beyond runtime adaptivity.

The one hard constraint is physical: the new accelerator must still
fit the tile's floorplanned pblock. If it does not, the floorplan —
and with it the static routing — is invalid and a full rebuild is
required; :class:`IncrementalFlow` detects that and refuses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import FlowError
from repro.flow.dpr_flow import FlowResult
from repro.soc.esp_library import AcceleratorIP
from repro.soc.tiles import ReconfigurableTile
from repro.vivado.bitstream import Bitstream
from repro.vivado.runtime_model import CALIBRATED_MODEL, RuntimeModel
from repro.vivado.server import ToolJob, VivadoServer
from repro.vivado.tool import VivadoInstance


@dataclass
class IncrementalResult:
    """Outcome of an incremental rebuild."""

    base: FlowResult
    rebuilt_tiles: Tuple[str, ...]
    #: Wall time of the incremental rebuild (minutes).
    makespan_minutes: float
    #: Per-tile (synth + in-context P&R + bitgen) minutes.
    tile_minutes: Dict[str, float]
    #: Fresh partial bitstreams for the rebuilt tiles.
    bitstreams: List[Bitstream]

    @property
    def full_rebuild_minutes(self) -> float:
        """What a from-scratch flow run cost (the baseline)."""
        return self.base.total_minutes

    @property
    def speedup(self) -> float:
        """Full rebuild time over incremental time."""
        return self.full_rebuild_minutes / self.makespan_minutes


class IncrementalFlow:
    """Rebuilds a subset of tiles against an existing flow result."""

    def __init__(
        self,
        model: RuntimeModel = CALIBRATED_MODEL,
        max_instances: int = 16,
        compress_bitstreams: bool = True,
    ) -> None:
        self.model = model
        self.max_instances = max_instances
        self.compress_bitstreams = compress_bitstreams

    # ------------------------------------------------------------------
    def rebuild(
        self,
        previous: FlowResult,
        changed_tiles: Sequence[str],
        new_modes: Optional[Dict[str, List[AcceleratorIP]]] = None,
    ) -> IncrementalResult:
        """Recompile ``changed_tiles`` reusing the locked static design.

        ``new_modes`` optionally replaces a tile's accelerator set (the
        "I changed my accelerator's HLS code" scenario); the new set
        must still fit the tile's existing pblock.
        """
        if not changed_tiles:
            raise FlowError("incremental rebuild needs at least one changed tile")
        if len(set(changed_tiles)) != len(changed_tiles):
            raise FlowError("changed tile names must be unique")
        new_modes = new_modes or {}
        unknown_mode_tiles = set(new_modes) - set(changed_tiles)
        if unknown_mode_tiles:
            raise FlowError(
                f"new modes supplied for unchanged tiles: {sorted(unknown_mode_tiles)}"
            )

        partition = previous.partition
        known = {rp.name for rp in partition.rps}
        missing = set(changed_tiles) - known
        if missing:
            raise FlowError(f"unknown reconfigurable tiles: {sorted(missing)}")

        jobs: List[ToolJob] = []
        tile_minutes: Dict[str, float] = {}
        bitstreams: List[Bitstream] = []

        for tile_name in changed_tiles:
            rp = partition.rp_by_name(tile_name)
            tile = rp.tile
            if tile_name in new_modes:
                tile = ReconfigurableTile(
                    name=tile.name,
                    modes=new_modes[tile_name],
                    host_cpu=tile.host_cpu,
                    hosted_cpu_core=tile.hosted_cpu_core,
                )
            assignment = previous.floorplan.assignment_for(tile_name)
            demand = tile.partition_resources()
            if not demand.fits_in(assignment.provided):
                raise FlowError(
                    f"{tile_name}: new contents ({demand}) exceed the existing "
                    f"pblock ({assignment.provided}); a full rebuild with a new "
                    "floorplan is required"
                )

            tool = VivadoInstance(
                f"incr_{tile_name}",
                self.model,
                compress_bitstreams=self.compress_bitstreams,
            )
            # 1. OoC re-synthesis of the (updated) wrapper contents.
            from repro.soc.rtl import Module
            from repro.soc.tiles import RECONF_WRAPPER_LUTS

            wrapper = Module(
                name=f"{tile.name}_wrapper",
                luts=RECONF_WRAPPER_LUTS,
                children=[
                    Module(name=f"{tile.name}_{ip.name}", luts=ip.luts)
                    for ip in tile.modes
                ],
                reconfigurable=True,
            )
            netlist = tool.synth_design(wrapper, ooc=True)

            # 2. In-context P&R against the locked static checkpoint.
            from repro.vivado.checkpoint import RoutedCheckpoint

            static_routed = RoutedCheckpoint(
                design=f"{previous.config.name}_static_routed",
                kluts=partition.static.luts / 1000.0,
                locked_static=True,
                pblocks=tuple(previous.floorplan.pblocks()),
            )
            tool.implement_in_context(
                static_routed, [netlist], [assignment.pblock.name]
            )

            # 3. Fresh partial bitstreams for the tile's modes.
            for ip in tile.modes:
                bitstreams.append(
                    tool.write_partial_bitstream(
                        tile.name, ip.name, assignment.provided, ip.resources
                    )
                )
            bitstreams.append(
                tool.write_blanking_bitstream(tile.name, assignment.provided)
            )

            tile_minutes[tile_name] = tool.cpu_minutes
            jobs.append(ToolJob(name=f"incr_{tile_name}", cpu_minutes=tool.cpu_minutes))

        schedule = VivadoServer(max_instances=self.max_instances).schedule(jobs)
        return IncrementalResult(
            base=previous,
            rebuilt_tiles=tuple(changed_tiles),
            makespan_minutes=schedule.makespan_minutes,
            tile_minutes=tile_minutes,
            bitstreams=bitstreams,
        )


def rebuild_tiles(
    previous: FlowResult,
    changed_tiles: Sequence[str],
    new_modes: Optional[Dict[str, List[AcceleratorIP]]] = None,
) -> IncrementalResult:
    """Convenience wrapper with default settings."""
    return IncrementalFlow().rebuild(previous, changed_tiles, new_modes)
