"""Simulated synthesis: RTL module trees to netlist checkpoints.

Synthesis "reads" the RTL hierarchy (``repro.soc.rtl``), resolves leaf
LUT annotations into a netlist size, validates black-box instances, and
charges CPU time from the runtime model. Out-of-context mode mirrors
Vivado's ``synth_design -mode out_of_context``: no I/O insertion and a
checkpoint that can later be stitched into a parent run — the feature
the PR-ESP flow exploits to parallelize all syntheses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import SynthesisError
from repro.soc.rtl import Module
from repro.vivado.checkpoint import NetlistCheckpoint
from repro.vivado.runtime_model import CALIBRATED_MODEL, JobKind, RuntimeModel


@dataclass(frozen=True)
class SynthesisResult:
    """Checkpoint plus the CPU time the run charged."""

    checkpoint: NetlistCheckpoint
    cpu_minutes: float


class SynthesisEngine:
    """Runs simulated syntheses against a runtime model."""

    def __init__(self, model: RuntimeModel = CALIBRATED_MODEL) -> None:
        self.model = model

    def synth_module(
        self,
        module: Module,
        ooc: bool = True,
        black_box_names: Sequence[str] = (),
    ) -> SynthesisResult:
        """Synthesize one module subtree.

        ``black_box_names`` are instances inside the subtree to leave
        unresolved (the static part synthesizes reconfigurable wrappers
        as black boxes). Their LUT contributions are excluded from the
        netlist size.
        """
        black_set = set(black_box_names)
        found: set = set()
        luts = 0
        stack = [module]
        while stack:
            node = stack.pop()
            if node.name in black_set:
                found.add(node.name)
                continue
            luts += node.luts
            if node.children:
                stack += node.children
        missing = black_set - found
        if missing:
            raise SynthesisError(
                f"{module.name}: black boxes not found in hierarchy: {sorted(missing)}"
            )
        kluts = luts / 1000.0
        kind = JobKind.OOC_SYNTH if ooc else JobKind.GLOBAL_SYNTH
        cpu_minutes = self.model.job_minutes(kind, kluts)
        checkpoint = NetlistCheckpoint(
            design=module.name,
            kluts=kluts,
            ooc=ooc,
            black_boxes=tuple(sorted(black_set)),
        )
        return SynthesisResult(checkpoint=checkpoint, cpu_minutes=cpu_minutes)

    def synth_global(self, top: Module) -> SynthesisResult:
        """Monolithic full-design synthesis (the baseline flow's mode)."""
        return self.synth_module(top, ooc=False, black_box_names=())
