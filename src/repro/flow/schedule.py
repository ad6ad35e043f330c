"""Turning a strategy decision into concrete implementation runs.

The pre-implementation stage (Fig. 1) decides the optimal level of
parallelism; this module materializes that decision into the list of
tool runs the flow launches:

* serial          — one full-design run;
* fully-parallel  — one static pre-route, then N in-context runs (one
  reconfigurable tile each), all dependent on the static run;
* semi-parallel   — one static pre-route, then τ in-context runs over
  LPT-balanced groups of tiles.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, List, Tuple

from repro.core.strategy import ImplementationStrategy, StrategyDecision
from repro.errors import FlowError
from repro.flow.grouping import balanced_groups
from repro.soc.partition import DesignPartition, ReconfigurablePartition


class RunKind(enum.Enum):
    """Kinds of implementation runs the plan can contain."""

    FULL_SERIAL = "full_serial"
    STATIC = "static"
    IN_CONTEXT = "in_context"


@dataclass(frozen=True)
class ImplementationRun:
    """One planned tool run."""

    name: str
    kind: RunKind
    rp_names: Tuple[str, ...]
    depends_on: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ImplementationPlan:
    """The complete set of runs for one strategy."""

    strategy: ImplementationStrategy
    tau: int
    runs: Tuple[ImplementationRun, ...]

    @property
    def static_run(self) -> ImplementationRun:
        """The static pre-route run (parallel strategies only)."""
        for run in self.runs:
            if run.kind is RunKind.STATIC:
                return run
        raise FlowError(f"{self.strategy.value} plan has no static run")

    @property
    def context_runs(self) -> List[ImplementationRun]:
        """The in-context runs in plan order."""
        return [run for run in self.runs if run.kind is RunKind.IN_CONTEXT]


def plan_implementation(
    partition: DesignPartition,
    decision: StrategyDecision,
    exclude: AbstractSet[str] = frozenset(),
) -> ImplementationPlan:
    """Materialize ``decision`` into runs over ``partition``'s RPs.

    ``exclude`` names RPs to plan around — the fault-tolerant flow
    passes the tiles whose synthesis failed permanently, so the
    implementation runs (and therefore the makespan) are computed over
    the surviving partitions only; the dark tiles get blanking
    bitstreams outside the plan.
    """
    excluded: FrozenSet[str] = frozenset(exclude)
    unknown = excluded - {rp.name for rp in partition.rps}
    if unknown:
        raise FlowError(f"cannot exclude unknown RPs: {sorted(unknown)}")
    rps = [rp for rp in partition.rps if rp.name not in excluded]
    if not rps:
        if excluded:
            raise FlowError(
                "every reconfigurable partition is excluded; nothing to implement"
            )
        raise FlowError("cannot plan implementation of a design without RPs")
    strategy = decision.strategy

    if strategy is ImplementationStrategy.SERIAL:
        run = ImplementationRun(
            name="impl_serial",
            kind=RunKind.FULL_SERIAL,
            rp_names=tuple(rp.name for rp in rps),
        )
        return ImplementationPlan(strategy=strategy, tau=1, runs=(run,))

    static_run = ImplementationRun(name="impl_static", kind=RunKind.STATIC, rp_names=())
    if strategy is ImplementationStrategy.FULLY_PARALLEL:
        groups: List[List[ReconfigurablePartition]] = [[rp] for rp in rps]
        tau = len(rps)
    else:
        tau = max(1, min(decision.tau, len(rps)))
        groups = balanced_groups(rps, tau, weight=lambda rp: rp.synthesis_luts)
        if len(groups) < 2 and len(rps) >= 2:
            raise FlowError(
                "semi-parallel plan degenerated to one group; use serial instead"
            )
    context_runs = [
        ImplementationRun(
            name=f"impl_ctx_{index}",
            kind=RunKind.IN_CONTEXT,
            rp_names=tuple(rp.name for rp in group),
            depends_on=(static_run.name,),
        )
        for index, group in enumerate(groups)
    ]
    return ImplementationPlan(
        strategy=strategy, tau=tau, runs=(static_run, *context_runs)
    )
