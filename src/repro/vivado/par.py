"""Simulated place-and-route.

Three modes mirror the runs the PR-ESP flow launches:

* ``STATIC_WITH_PLACEHOLDERS`` — place and route the static netlist
  with pre-built empty hard macros filling the reconfigurable black
  boxes, then lock the routing (the intermediate step of the parallel
  strategies);
* ``IN_CONTEXT`` — open the locked static checkpoint and implement one
  group of reconfigurable tiles inside their pblocks (one such run per
  parallel tool instance; its time is the paper's Ω);
* ``FULL_SERIAL`` — implement the whole DPR design in one run (τ = 1),
  or the standard Xilinx flow's single-instance compilation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ImplementationError
from repro.fabric.device import Device
from repro.fabric.pblock import Pblock, check_pblock
from repro.fabric.resources import ResourceVector
from repro.vivado.checkpoint import NetlistCheckpoint, RoutedCheckpoint
from repro.vivado.runtime_model import CALIBRATED_MODEL, JobKind, RuntimeModel


class ParMode(enum.Enum):
    """The P&R run modes of the flow."""

    STATIC_WITH_PLACEHOLDERS = "static_placeholders"
    IN_CONTEXT = "in_context"
    FULL_SERIAL = "full_serial"
    MONOLITHIC = "monolithic"  # standard-flow single-instance DPR compile

    # Members are singletons, so hashing by identity agrees with enum
    # equality and keeps dict lookups keyed on members in C (Enum's own
    # __hash__ is a Python-level call on every lookup).
    __hash__ = object.__hash__


@dataclass(frozen=True)
class ParResult:
    """Routed checkpoint plus charged CPU time."""

    checkpoint: RoutedCheckpoint
    cpu_minutes: float


_MODE_TO_JOB = {
    ParMode.STATIC_WITH_PLACEHOLDERS: JobKind.STATIC_PAR,
    ParMode.IN_CONTEXT: JobKind.CONTEXT_PAR,
    ParMode.FULL_SERIAL: JobKind.SERIAL_DPR_PAR,
    ParMode.MONOLITHIC: JobKind.MONO_DPR_PAR,
}


def job_kind_for_mode(mode: ParMode) -> JobKind:
    """The runtime-model job kind a P&R mode is charged as.

    Public because the fault-tolerant flow keys its retry planning on
    the same kinds the cost model uses — one taxonomy for both cost
    and failure probability.
    """
    try:
        return _MODE_TO_JOB[mode]
    except KeyError:  # pragma: no cover - enum exhaustive today
        raise ImplementationError(f"no job kind for P&R mode {mode}") from None


class ParEngine:
    """Runs simulated P&R jobs against a runtime model."""

    def __init__(self, model: RuntimeModel = CALIBRATED_MODEL) -> None:
        self.model = model

    def run_static(
        self,
        static_netlist: NetlistCheckpoint,
        device: Device,
        pblocks: Sequence[Pblock],
        rp_demands: Sequence[ResourceVector],
    ) -> ParResult:
        """Static pre-route with placeholder macros in the black boxes.

        The pblocks are validated against the device and each RP's
        demand before routing (the placeholder macros are prepared
        offline in the real flow, so they add no timing overhead — the
        run is charged only for the static netlist size).
        """
        if len(pblocks) != len(static_netlist.black_boxes):
            raise ImplementationError(
                f"{static_netlist.design}: {len(static_netlist.black_boxes)} black "
                f"boxes but {len(pblocks)} pblocks"
            )
        if len(rp_demands) != len(pblocks):
            raise ImplementationError(
                f"{static_netlist.design}: demand list does not match pblocks"
            )
        placed = list(pblocks)
        for pblock, demand in zip(placed, rp_demands):
            report = check_pblock(device, pblock, demand, others=placed)
            if not report.legal:
                raise ImplementationError(
                    f"{static_netlist.design}: illegal pblock {pblock.name}: "
                    + "; ".join(report.violations)
                )
        cpu = self.model.job_minutes(JobKind.STATIC_PAR, static_netlist.kluts)
        checkpoint = RoutedCheckpoint(
            design=f"{static_netlist.design}_static_routed",
            kluts=static_netlist.kluts,
            locked_static=True,
            pblocks=tuple(placed),
            cpu_minutes=cpu,
        )
        return ParResult(checkpoint=checkpoint, cpu_minutes=cpu)

    def run_in_context(
        self,
        static_routed: RoutedCheckpoint,
        group: Sequence[NetlistCheckpoint],
        pblock_names: Sequence[str],
    ) -> ParResult:
        """Implement a group of reconfigurable netlists in context.

        Requires a locked static checkpoint; every member of the group
        must be an OoC netlist and must target one of the checkpoint's
        pblocks. Charged for the summed group size (the paper's Ω
        grows with the group's total LUTs).
        """
        if not static_routed.locked_static:
            raise ImplementationError(
                f"{static_routed.design}: in-context P&R needs a locked static design"
            )
        if not group:
            raise ImplementationError("in-context P&R of an empty group")
        if len(pblock_names) != len(group):
            raise ImplementationError("one target pblock per group member required")
        known = {p.name for p in static_routed.pblocks}
        for netlist, pblock_name in zip(group, pblock_names):
            if not netlist.ooc:
                raise ImplementationError(
                    f"{netlist.design}: in-context member must be an OoC netlist"
                )
            if pblock_name not in known:
                raise ImplementationError(
                    f"{netlist.design}: unknown target pblock {pblock_name!r}"
                )
        group_kluts = sum(n.kluts for n in group)
        cpu = self.model.job_minutes(JobKind.CONTEXT_PAR, group_kluts)
        checkpoint = RoutedCheckpoint(
            design="+".join(n.design for n in group) + "_routed",
            kluts=group_kluts,
            locked_static=False,
            pblocks=static_routed.pblocks,
            cpu_minutes=cpu,
        )
        return ParResult(checkpoint=checkpoint, cpu_minutes=cpu)

    def run_full(
        self,
        static_netlist: NetlistCheckpoint,
        rp_netlists: Sequence[NetlistCheckpoint],
        device: Device,
        pblocks: Sequence[Pblock],
        rp_demands: Sequence[ResourceVector],
        mode: ParMode = ParMode.FULL_SERIAL,
    ) -> ParResult:
        """Whole-design single-instance P&R (serial PR-ESP or baseline).

        In the serial PR-ESP run the reconfigurable netlists are charged
        at the model's reconfigurable-LUT weight (pblock-constrained
        placement); the monolithic baseline passes one global netlist
        and an empty RP list (its curve was fitted on total size).
        """
        if mode not in (ParMode.FULL_SERIAL, ParMode.MONOLITHIC):
            raise ImplementationError(f"run_full cannot execute mode {mode}")
        placed = list(pblocks)
        for pblock, demand in zip(placed, rp_demands):
            report = check_pblock(device, pblock, demand, others=placed)
            if not report.legal:
                raise ImplementationError(
                    f"illegal pblock {pblock.name}: " + "; ".join(report.violations)
                )
        static_kluts = static_netlist.kluts
        reconf_kluts = sum(n.kluts for n in rp_netlists)
        if mode is ParMode.FULL_SERIAL:
            cpu = self.model.serial_par_minutes(static_kluts, reconf_kluts)
        else:
            cpu = self.model.job_minutes(
                JobKind.MONO_DPR_PAR, static_kluts + reconf_kluts
            )
        checkpoint = RoutedCheckpoint(
            design=static_netlist.design + "_full_routed",
            kluts=static_kluts + reconf_kluts,
            locked_static=True,
            pblocks=tuple(placed),
            cpu_minutes=cpu,
        )
        return ParResult(checkpoint=checkpoint, cpu_minutes=cpu)
