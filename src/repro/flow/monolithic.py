"""The baseline: Xilinx's standard DPR flow in a single tool instance.

Table V compares PR-ESP against "equivalent implementations in Xilinx's
standard DPR flow, which is always performed in a single instance of
Vivado": one global synthesis of the whole design followed by one
single-instance DPR implementation (the first configuration compiles
static and all reconfigurable modules together).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.metrics import DesignMetrics, compute_metrics
from repro.floorplan.flora import Floorplan
from repro.flow.dpr_flow import plan_floorplan
from repro.soc.config import SocConfig
from repro.soc.partition import DesignPartition, partition_design
from repro.vivado.bitstream import Bitstream
from repro.vivado.par import ParMode
from repro.vivado.runtime_model import CALIBRATED_MODEL, RuntimeModel
from repro.vivado.tool import VivadoInstance


@dataclass
class MonolithicResult:
    """Outcome of the baseline flow."""

    config: SocConfig
    partition: DesignPartition
    metrics: DesignMetrics
    floorplan: Floorplan
    synth_minutes: float
    par_minutes: float
    bitstreams: List[Bitstream]

    @property
    def total_minutes(self) -> float:
        """T_tot of the baseline (synthesis + P&R)."""
        return self.synth_minutes + self.par_minutes


class MonolithicFlow:
    """The standard single-instance Xilinx DPR compilation."""

    def __init__(
        self,
        model: RuntimeModel = CALIBRATED_MODEL,
        compress_bitstreams: bool = True,
        floorplan_utilization: float = 0.7,
    ) -> None:
        self.model = model
        self.compress_bitstreams = compress_bitstreams
        self.floorplan_utilization = floorplan_utilization

    def build(self, config: SocConfig) -> MonolithicResult:
        """Compile ``config`` with one global synthesis + one P&R run."""
        device = config.device()
        partition = partition_design(config)
        metrics = compute_metrics(config)

        tool = VivadoInstance(
            "monolithic", self.model, compress_bitstreams=self.compress_bitstreams
        )
        # Global synthesis of the whole design in one run.
        global_netlist = tool.synth_design(partition.rtl, ooc=False)
        synth_minutes = tool.cpu_minutes

        # Manual-equivalent floorplanning still happens (the standard
        # flow requires hand-made pblocks; we reuse the same step).
        floorplan = plan_floorplan(device, partition, self.floorplan_utilization)

        tool.implement_full(
            global_netlist,
            [],
            device,
            floorplan.pblocks(),
            [a.demand for a in floorplan.assignments],
            mode=ParMode.MONOLITHIC,
        )
        par_minutes = tool.cpu_minutes - synth_minutes

        bitstreams: List[Bitstream] = [tool.write_full_bitstream(config.name, device)]
        for rp in partition.rps:
            assignment = floorplan.assignment_for(rp.name)
            for ip in rp.tile.modes:
                bitstreams.append(
                    tool.write_partial_bitstream(
                        rp.name, ip.name, assignment.provided, ip.resources
                    )
                )
        # Bitstream time is part of the single instance's P&R budget.
        par_minutes = tool.cpu_minutes - synth_minutes

        return MonolithicResult(
            config=config,
            partition=partition,
            metrics=metrics,
            floorplan=floorplan,
            synth_minutes=synth_minutes,
            par_minutes=par_minutes,
            bitstreams=bitstreams,
        )
