"""The PR-ESP DPR flow orchestrator (Fig. 1).

``DprFlow.build()`` is the paper's single make target: it parses the
SoC configuration, splits static from reconfigurable sources, runs the
parallel OoC syntheses, floorplans the reconfigurable partitions,
chooses the size-driven P&R parallelism, orchestrates the (possibly
parallel) implementation runs, and generates full plus compressed
partial bitstreams. The returned :class:`FlowResult` carries every
intermediate the paper's tables report (synthesis makespan, t_static,
Ω per run, T_P&R, bitstream sizes).

The flow is fault-tolerant and resumable:

* every synthesis and P&R job runs under the build's
  :class:`~repro.vivado.faults.CadFaultModel` and
  :class:`~repro.vivado.faults.RetryPolicy` — failed attempts burn
  their modelled runtime plus backoff, reshaping the makespan;
* a reconfigurable tile whose job fails *permanently* does not abort
  the build: the tile goes dark (blanking bitstream only, written on a
  fault-exempt recovery instance) and the result is marked
  ``degraded``. Static-logic failures still abort — there is no SoC
  without the static design;
* each completed stage (and each tool job inside the long stages) is
  checkpointed when a ``checkpoint_dir`` is given, so a killed build
  resumes from its last completed stage with ``resume=True`` and, by
  construction of the deterministic fault model, produces the same
  summary an uninterrupted run would have.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.metrics import DesignMetrics, compute_metrics
from repro.core.strategy import (
    ImplementationStrategy,
    StrategyDecision,
    choose_strategy,
)
from repro.errors import FlowError
from repro.fabric.device import Device
from repro.obs import events as ev
from repro.obs.instrumentation import OFF, Instrumentation
from repro.obs.logconfig import get_logger
from repro.obs.profiler import Profiler
from repro.obs.tracer import Tracer
from repro.floorplan.constraints import validate_floorplan
from repro.floorplan.flora import Floorplan, FloraFloorplanner
from repro.flow.blackbox import BlackBoxWrapper, generate_blackboxes
from repro.flow.checkpoint import FlowCheckpointer
from repro.flow.schedule import ImplementationPlan, plan_implementation
from repro.soc.config import SocConfig
from repro.soc.partition import DesignPartition, partition_design
from repro.vivado.bitstream import Bitstream
from repro.vivado.checkpoint import NetlistCheckpoint
from repro.vivado.faults import (
    DEFAULT_RETRY_POLICY,
    NO_FAULTS,
    CadFaultError,
    CadFaultModel,
    FaultPlanner,
    JobExecution,
    RetryPolicy,
)
from repro.vivado.par import ParMode
from repro.vivado.runtime_model import CALIBRATED_MODEL, RuntimeModel
from repro.vivado.server import ScheduleResult, ToolJob, VivadoServer
from repro.vivado.tool import VivadoInstance

logger = get_logger("flow")


@dataclass(frozen=True)
class StageTrace:
    """One executed flow stage (the boxes of Fig. 1)."""

    stage: str
    wall_minutes: float
    detail: str


@dataclass(frozen=True)
class JobFailure:
    """One permanently failed CAD job and the tiles it took down."""

    stage: str
    job: str
    rp_names: Tuple[str, ...]
    attempts: int
    minutes_burned: float

    def to_dict(self) -> Dict:
        return {
            "stage": self.stage,
            "job": self.job,
            "rps": list(self.rp_names),
            "attempts": self.attempts,
            "minutes_burned": self.minutes_burned,
        }


@dataclass
class FlowResult:
    """Everything the flow produced for one SoC."""

    config: SocConfig
    partition: DesignPartition
    metrics: DesignMetrics
    decision: StrategyDecision
    plan: ImplementationPlan
    floorplan: Floorplan
    blackboxes: List[BlackBoxWrapper]
    synth_makespan_minutes: float
    static_par_minutes: Optional[float]
    omega_minutes: Dict[str, float]
    par_makespan_minutes: float
    bitstreams: List[Bitstream]
    stages: List[StageTrace]
    schedule: ScheduleResult
    #: Schedule of the parallel OoC synthesis runs (None on results
    #: produced before this field existed).
    synth_schedule: Optional[ScheduleResult] = None
    #: True when one or more reconfigurable tiles went dark.
    degraded: bool = False
    #: Permanently failed jobs (empty on a clean build).
    failures: Tuple[JobFailure, ...] = ()
    #: Full attempt timeline of every planned CAD job, by job name.
    executions: Dict[str, JobExecution] = field(default_factory=dict)
    #: Stages restored from a checkpoint instead of re-run (kept out of
    #: the summary dict so resumed and uninterrupted builds compare
    #: equal).
    resumed_stages: Tuple[str, ...] = ()

    @property
    def strategy(self) -> ImplementationStrategy:
        """The strategy the flow executed."""
        return self.plan.strategy

    @property
    def max_omega_minutes(self) -> Optional[float]:
        """max{Ω} over the in-context runs (None for serial)."""
        if not self.omega_minutes:
            return None
        return max(self.omega_minutes.values())

    @property
    def total_minutes(self) -> float:
        """T_tot — synthesis plus implementation wall time."""
        return self.synth_makespan_minutes + self.par_makespan_minutes

    @property
    def total_retries(self) -> int:
        """Failed-then-retried attempts across every CAD job."""
        return sum(e.retries for e in self.executions.values())

    @property
    def dark_rps(self) -> Tuple[str, ...]:
        """Names of the tiles the build completed without, sorted."""
        names = set()
        for failure in self.failures:
            names.update(failure.rp_names)
        return tuple(sorted(names))

    def partial_bitstreams(self) -> List[Bitstream]:
        """The partial bitstreams, in (tile, mode) order."""
        from repro.vivado.bitstream import BitstreamKind

        return [b for b in self.bitstreams if b.kind is BitstreamKind.PARTIAL]

    def to_summary_dict(self) -> Dict:
        """JSON-serializable summary (for tooling and CI dashboards)."""
        return {
            "soc": self.config.name,
            "board": self.config.board,
            "grid": f"{self.config.rows}x{self.config.cols}",
            "design_class": self.decision.design_class.value,
            "strategy": self.strategy.value,
            "tau": self.plan.tau,
            "metrics": {
                "kappa": self.metrics.kappa,
                "alpha_av": self.metrics.alpha_av,
                "gamma": self.metrics.gamma,
                "num_rps": self.metrics.num_rps,
            },
            "minutes": {
                "synthesis": self.synth_makespan_minutes,
                "t_static": self.static_par_minutes,
                "max_omega": self.max_omega_minutes,
                "par_makespan": self.par_makespan_minutes,
                "total": self.total_minutes,
            },
            "fault_tolerance": {
                "degraded": self.degraded,
                "retries": self.total_retries,
                "dark_rps": list(self.dark_rps),
                "failures": [f.to_dict() for f in self.failures],
                "retried_jobs": {
                    name: execution.retries
                    for name, execution in sorted(self.executions.items())
                    if execution.retries
                },
            },
            "bitstreams": [
                {
                    "name": b.name,
                    "kind": b.kind.value,
                    "kib": round(b.size_kib, 1),
                    "target": b.target_rp,
                    "mode": b.mode,
                }
                for b in self.bitstreams
            ],
            "floorplan": [
                {
                    "rp": a.rp_name,
                    "cols": [a.pblock.col_lo, a.pblock.col_hi],
                    "rows": [a.pblock.row_lo, a.pblock.row_hi],
                    "utilization": round(a.lut_utilization, 3),
                }
                for a in self.floorplan.assignments
            ],
        }


@contextlib.contextmanager
def _tool_frame(instrumentation: Instrumentation, tool: VivadoInstance):
    """A ``vivado.<job>`` profiler frame around one tool run.

    The frame is charged the tool's CPU minutes as simulated seconds,
    burned (retried or failed) attempts included, also when the run
    raises.
    """
    with instrumentation.frame(f"vivado.{tool.name}"):
        try:
            yield
        finally:
            instrumentation.add_sim(tool.cpu_minutes * 60.0)


class DprFlow:
    """The automated PR-ESP FPGA flow."""

    def __init__(
        self,
        model: RuntimeModel = CALIBRATED_MODEL,
        max_instances: int = 16,
        compress_bitstreams: bool = True,
        floorplan_utilization: float = 0.7,
        faults: CadFaultModel = NO_FAULTS,
        retry: RetryPolicy = DEFAULT_RETRY_POLICY,
    ) -> None:
        if max_instances <= 0:
            raise FlowError("flow needs at least one tool instance")
        self.model = model
        self.max_instances = max_instances
        self.compress_bitstreams = compress_bitstreams
        self.floorplan_utilization = floorplan_utilization
        self.faults = faults
        self.retry = retry

    # ------------------------------------------------------------------
    def build(
        self,
        config: SocConfig,
        strategy_override: Optional[ImplementationStrategy] = None,
        semi_tau: int = 2,
        instrumentation: Instrumentation = OFF,
        checkpoint_dir: Union[None, str, Path, FlowCheckpointer] = None,
        resume: bool = False,
    ) -> FlowResult:
        """Run the full RTL-to-bitstream flow for ``config``.

        ``strategy_override`` forces a P&R strategy (used by the
        evaluation to sweep all three); by default the size-driven
        algorithm decides. The ``instrumentation`` probe's tracer
        (modelled CAD minutes) receives one span per Fig. 1 stage plus
        one per scheduled tool job; its bus receives a start/finish
        pair per stage, stamped on the same modelled-minute clock, plus
        retry/failure/degradation events when the fault model bites.
        Its profiler gets a ``build.<soc>`` frame over the whole flow, a
        ``flow.<stage>``
        frame per Fig. 1 stage (charged the stage's modelled minutes as
        simulated seconds) and a ``vivado.<job>`` frame per tool run
        (charged the tool's CPU minutes, burned attempts included).

        With ``checkpoint_dir`` set, every completed stage (and tool
        job) is persisted under the build's content key; ``resume=True``
        restores whatever matching prefix the directory holds instead
        of re-running it. Without ``resume`` the directory is cleared
        first, so a fresh build never trusts stale state.

        Its registry receives per-stage CAD job accounting:
        ``flow.jobs_total``, ``flow.job_retries_total`` and
        ``flow.job_failures_total`` — the counters the
        ``cad-retry-rate`` SLO reads.
        """
        with instrumentation.frame(f"build.{config.name}"):
            return self._build(
                config, strategy_override, semi_tau, instrumentation,
                checkpoint_dir, resume,
            )

    def _build(
        self,
        config: SocConfig,
        strategy_override: Optional[ImplementationStrategy],
        semi_tau: int,
        instrumentation: Instrumentation,
        checkpoint_dir: Union[None, str, Path, FlowCheckpointer],
        resume: bool,
    ) -> FlowResult:
        from repro.flow.cache import flow_cache_key

        stages: List[StageTrace] = []
        resumed: List[str] = []
        device = config.device()
        planner = FaultPlanner(faults=self.faults, policy=self.retry)
        logger.info("build %s: starting flow on %s", config.name, device.name)

        ckpt: Optional[FlowCheckpointer] = None
        if checkpoint_dir is not None:
            if isinstance(checkpoint_dir, FlowCheckpointer):
                ckpt = checkpoint_dir
            else:
                key = flow_cache_key(self, config, strategy_override, semi_tau)
                ckpt = FlowCheckpointer(checkpoint_dir, key)
            if not resume:
                ckpt.clear()

        def add_stage(stage: str, wall_minutes: float, detail: str) -> None:
            """Record one Fig. 1 stage and emit its start/finish pair."""
            start = sum(s.wall_minutes for s in stages)
            instrumentation.emit(
                ev.FLOW_STAGE_STARTED, time=start, source=stage, soc=config.name
            )
            stages.append(
                StageTrace(stage=stage, wall_minutes=wall_minutes, detail=detail)
            )
            instrumentation.emit(
                ev.FLOW_STAGE_FINISHED,
                time=start + wall_minutes,
                source=stage,
                soc=config.name,
                wall_minutes=wall_minutes,
                detail=detail,
            )

        def run_stage(name: str, compute):
            """Load ``name`` from the checkpoint or compute and save it.

            ``compute`` returns ``(payload, wall_minutes, detail)``; the
            payload must be picklable. A restored stage contributes the
            same :class:`StageTrace` a fresh run would, so downstream
            accounting (and the summary) cannot tell the difference.
            """
            if ckpt is not None and ckpt.has_stage(name):
                payload, wall, detail = ckpt.load_stage(name)
                start = sum(s.wall_minutes for s in stages)
                stages.append(
                    StageTrace(stage=name, wall_minutes=wall, detail=detail)
                )
                resumed.append(name)
                instrumentation.leaf((f"flow.{name}", "resumed"), sim_s=wall * 60.0)
                instrumentation.emit(
                    ev.FLOW_STAGE_RESUMED,
                    time=start + wall,
                    source=name,
                    soc=config.name,
                    wall_minutes=wall,
                    detail=detail,
                )
                logger.info("build %s: resumed stage %s from checkpoint",
                            config.name, name)
                return payload
            with instrumentation.frame(f"flow.{name}"):
                payload, wall, detail = compute()
                # The stage's modelled CAD minutes are its simulated-
                # time attribution (the flow clock runs in minutes).
                instrumentation.add_sim(wall * 60.0)
            add_stage(name, wall, detail)
            if ckpt is not None:
                ckpt.save_stage(name, payload, wall, detail)
                instrumentation.emit(
                    ev.FLOW_CHECKPOINT_SAVED,
                    time=sum(s.wall_minutes for s in stages),
                    source=name,
                    soc=config.name,
                )
            return payload

        def emit_job_events(
            stage_name: str,
            stage_start: float,
            schedule: ScheduleResult,
            executions: Dict[str, JobExecution],
        ) -> None:
            """Emit retry/failure events placed on the schedule's clock.

            Also folds the stage's job outcomes into the registry's
            CAD accounting counters — every scheduled job counts, not
            just the retried/failed ones the event loop below reports.
            """
            jobs_total = instrumentation.counter(
                "flow.jobs_total", "CAD jobs scheduled, by stage"
            )
            retries_total = instrumentation.counter(
                "flow.job_retries_total", "retried CAD job attempts, by stage"
            )
            failures_total = instrumentation.counter(
                "flow.job_failures_total",
                "CAD jobs that exhausted their retry budget, by stage",
            )
            for name, execution in sorted(executions.items()):
                jobs_total.inc(stage=stage_name)
                if execution.retries:
                    retries_total.inc(execution.retries, stage=stage_name)
                if not execution.succeeded:
                    failures_total.inc(stage=stage_name)
            by_name = {placed.job.name: placed for placed in schedule.jobs}
            for name, execution in sorted(executions.items()):
                if execution.succeeded and not execution.retries:
                    continue
                placed = by_name.get(name)
                base = stage_start + (placed.start_minutes if placed else 0.0)
                offset = 0.0
                for attempt in execution.attempts:
                    offset += attempt.backoff_minutes + attempt.busy_minutes
                    if not attempt.succeeded and attempt.index < len(
                        execution.attempts
                    ):
                        instrumentation.emit(
                            ev.CAD_JOB_RETRIED,
                            time=base + offset,
                            source=stage_name,
                            job=name,
                            attempt=attempt.index,
                            backoff_minutes=execution.attempts[
                                attempt.index
                            ].backoff_minutes,
                        )
                if not execution.succeeded:
                    instrumentation.emit(
                        ev.CAD_JOB_FAILED,
                        time=base + offset,
                        source=stage_name,
                        job=name,
                        attempts=len(execution.attempts),
                        minutes_burned=execution.total_minutes,
                    )

        # -- 1. parse the SoC configuration / split the sources --------
        def compute_parse():
            parsed = partition_design(config)
            return (
                parsed,
                0.0,
                f"static={parsed.static.luts} LUTs, "
                f"{parsed.num_rps} reconfigurable tiles",
            )

        partition: DesignPartition = run_stage("parse", compute_parse)

        # -- 2. black-box wrapper generation ----------------------------
        def compute_blackboxes():
            wrappers = generate_blackboxes(partition)
            return wrappers, 0.0, f"{len(wrappers)} wrappers"

        blackboxes: List[BlackBoxWrapper] = run_stage(
            "blackbox_gen", compute_blackboxes
        )

        # -- 3. parallel OoC synthesis ----------------------------------
        def compute_synthesis():
            payload = self._synthesize(partition, planner, ckpt, instrumentation)
            makespan = payload["schedule"].makespan_minutes
            return (
                payload,
                makespan,
                f"{1 + len(partition.rps)} parallel OoC runs",
            )

        synth = run_stage("synthesis", compute_synthesis)
        for execution in synth["executions"].values():
            planner.restore(execution)
        synth_schedule: ScheduleResult = synth["schedule"]
        netlists: Dict[str, NetlistCheckpoint] = synth["netlists"]
        static_netlist: NetlistCheckpoint = synth["static_netlist"]
        synth_failures: Tuple[JobFailure, ...] = synth["failures"]
        synth_makespan = synth_schedule.makespan_minutes
        if "synthesis" not in resumed:
            emit_job_events("synthesis", 0.0, synth_schedule, synth["executions"])
        logger.info(
            "build %s: synthesis makespan %.1f min over %d runs",
            config.name,
            synth_makespan,
            len(synth_schedule.jobs),
        )
        dark_synth = frozenset(
            name for failure in synth_failures for name in failure.rp_names
        )
        if dark_synth:
            logger.warning(
                "build %s: %d tile(s) lost to synthesis faults: %s",
                config.name,
                len(dark_synth),
                ", ".join(sorted(dark_synth)),
            )

        # -- 4. floorplanning -------------------------------------------
        def compute_floorplan():
            floorplanner = FloraFloorplanner(
                device, target_utilization=self.floorplan_utilization
            )
            plan = floorplanner.plan(
                [(rp.name, rp.demand) for rp in partition.rps]
            )
            report = validate_floorplan(device, plan)
            if not report.legal:
                raise FlowError(
                    "floorplan validation failed: " + "; ".join(report.violations)
                )
            return (
                plan,
                0.0,
                f"{len(plan.assignments)} pblocks on {device.name}",
            )

        floorplan: Floorplan = run_stage("floorplan", compute_floorplan)

        # -- 5. size-driven strategy choice ------------------------------
        # The classification runs on the full design (paper semantics);
        # the materialized plan excludes tiles already lost to synthesis
        # faults, so the implementation runs cover survivors only.
        def compute_choice():
            metrics = compute_metrics(config)
            decision = choose_strategy(
                metrics,
                estimator=self.model.strategy_estimator(tau=semi_tau),
                semi_tau=semi_tau,
            )
            if (
                strategy_override is not None
                and strategy_override is not decision.strategy
            ):
                final = StrategyDecision(
                    classification=decision.classification,
                    strategy=strategy_override,
                    tau=(
                        1
                        if strategy_override is ImplementationStrategy.SERIAL
                        else metrics.num_rps
                        if strategy_override is ImplementationStrategy.FULLY_PARALLEL
                        else min(semi_tau, metrics.num_rps)
                    ),
                )
            else:
                final = decision
            plan = plan_implementation(partition, final, exclude=dark_synth)
            detail = (
                f"class {final.design_class.value} -> "
                f"{final.strategy.value} (tau={plan.tau})"
            )
            if dark_synth:
                detail += f", excluding {len(dark_synth)} dark tile(s)"
            return (metrics, final, plan), 0.0, detail

        metrics, decision, plan = run_stage("choose_parallelism", compute_choice)

        # -- 6. implementation + bitstream generation --------------------
        # Each tool instance writes the bitstreams of the partitions it
        # implemented, so bitgen time lands inside the runs (as in the
        # real flow) and the makespan stays comparable to the baseline.
        def compute_implementation():
            payload = self._implement(
                config,
                partition,
                plan,
                device,
                floorplan,
                netlists,
                static_netlist,
                planner,
                ckpt,
                dark_synth,
                instrumentation,
            )
            return (
                payload,
                payload["schedule"].makespan_minutes,
                f"{len(plan.runs)} runs, strategy {plan.strategy.value}",
            )

        impl = run_stage("implementation", compute_implementation)
        for execution in impl["executions"].values():
            planner.restore(execution)
        schedule: ScheduleResult = impl["schedule"]
        par_makespan = schedule.makespan_minutes
        bitstreams: List[Bitstream] = impl["bitstreams"]
        if "implementation" not in resumed:
            emit_job_events(
                "implementation",
                sum(s.wall_minutes for s in stages) - par_makespan,
                schedule,
                impl["executions"],
            )

        failures: Tuple[JobFailure, ...] = synth_failures + impl["failures"]
        degraded = bool(failures)

        def compute_bitstream_stage():
            detail = (
                f"{len(bitstreams)} bitstreams "
                f"({'compressed' if self.compress_bitstreams else 'raw'} partials)"
            )
            if degraded:
                dark = sorted(
                    {name for f in failures for name in f.rp_names}
                )
                detail += f", blanking-only for dark tiles: {', '.join(dark)}"
            return None, 0.0, detail

        run_stage("bitstreams", compute_bitstream_stage)

        result = FlowResult(
            config=config,
            partition=partition,
            metrics=metrics,
            decision=decision,
            plan=plan,
            floorplan=floorplan,
            blackboxes=blackboxes,
            synth_makespan_minutes=synth_makespan,
            static_par_minutes=impl["static_minutes"],
            omega_minutes=impl["omegas"],
            par_makespan_minutes=par_makespan,
            bitstreams=bitstreams,
            stages=stages,
            schedule=schedule,
            synth_schedule=synth_schedule,
            degraded=degraded,
            failures=failures,
            executions=dict(planner.executions),
            resumed_stages=tuple(resumed),
        )
        if degraded:
            instrumentation.emit(
                ev.FLOW_DEGRADED,
                time=result.total_minutes,
                source="flow",
                soc=config.name,
                rps=list(result.dark_rps),
            )
            logger.warning(
                "build %s: completed DEGRADED without tiles %s",
                config.name,
                ", ".join(result.dark_rps),
            )
        logger.info(
            "build %s: %s (tau=%d), total %.1f min%s",
            config.name,
            plan.strategy.value,
            plan.tau,
            result.total_minutes,
            " [degraded]" if degraded else "",
        )
        if instrumentation.tracer is not None:
            self.record_trace(result, instrumentation.tracer)
        return result

    # ------------------------------------------------------------------
    def record_trace(self, result: FlowResult, tracer: Tracer) -> None:
        """Project a finished build onto the tracer (CAD minutes).

        Public because cache hits replay it: a ``FlowResult`` served
        from the :class:`repro.flow.cache.FlowCache` carries everything
        the projection reads, so a cached build traces byte-identically
        to the fresh one.

        The stage spans tile the ``flow/build`` track back to back
        (zero-cost stages become instants); each scheduled tool job
        lands on its instance's track, offset to its stage's window,
        so every job span nests inside its stage span. Reading from
        the same `FlowResult` the report renders keeps the trace and
        the human report in agreement by construction.
        """
        root = tracer.record(
            f"build {result.config.name}",
            0.0,
            result.total_minutes,
            category="flow.build",
            track="flow/build",
            soc=result.config.name,
            board=result.config.board,
            strategy=result.strategy.value,
            tau=result.plan.tau,
            design_class=result.decision.design_class.value,
            kappa=result.metrics.kappa,
            alpha_av=result.metrics.alpha_av,
            gamma=result.metrics.gamma,
            degraded=result.degraded,
        )
        offset = 0.0
        stage_spans: Dict[str, "object"] = {}
        for stage in result.stages:
            stage_spans[stage.stage] = tracer.record(
                stage.stage,
                offset,
                offset + stage.wall_minutes,
                category="flow.stage",
                track="flow/build",
                parent=root,
                detail=stage.detail,
            )
            offset += stage.wall_minutes

        run_tiles = {run.name: run.rp_names for run in result.plan.runs}
        for schedule, stage_name in (
            (result.synth_schedule, "synthesis"),
            (result.schedule, "implementation"),
        ):
            if schedule is None:
                continue
            stage_span = stage_spans.get(stage_name)
            base = stage_span.start if stage_span is not None else 0.0
            for placed in schedule.jobs:
                tracer.record(
                    placed.job.name,
                    base + placed.start_minutes,
                    base + placed.end_minutes,
                    category="flow.job",
                    track=f"flow/vivado{placed.instance:02d}",
                    parent=stage_span,
                    cpu_minutes=placed.job.cpu_minutes,
                    stage=stage_name,
                    tiles=list(run_tiles.get(placed.job.name, ())),
                )

    def record_profile(self, result: FlowResult, profiler: Profiler) -> None:
        """Project a finished build onto the profiler (cache hits).

        A cache hit costs no host time, but its modelled CAD minutes
        still belong in the profile — otherwise a cached sweep would
        report zero simulated flow time. The projection mirrors the
        shape a fresh build produces (``build.<soc>`` → ``flow.<stage>``
        → ``vivado.<job>``), marked with a ``cache_hit`` leaf.
        """
        base = (f"build.{result.config.name}",)
        profiler.record_leaf(base + ("cache_hit",))
        for stage in result.stages:
            profiler.record_leaf(
                base + (f"flow.{stage.stage}",), sim_s=stage.wall_minutes * 60.0
            )
        for schedule, stage_name in (
            (result.synth_schedule, "synthesis"),
            (result.schedule, "implementation"),
        ):
            if schedule is None:
                continue
            for placed in schedule.jobs:
                profiler.record_leaf(
                    base + (f"flow.{stage_name}", f"vivado.{placed.job.name}"),
                    sim_s=placed.job.cpu_minutes * 60.0,
                )

    # ------------------------------------------------------------------
    def _synthesize(
        self,
        partition: DesignPartition,
        planner: FaultPlanner,
        ckpt: Optional[FlowCheckpointer],
        instrumentation: Instrumentation = OFF,
    ) -> Dict:
        """Run the static + per-tile OoC syntheses in parallel.

        The static top is synthesized with the reconfigurable wrappers
        black-boxed; it is charged on the OoC curve because the run is
        identical in character (no context, netlist-out) even though the
        result is the design top. A permanent fault on the static
        synthesis aborts the build; a per-tile fault marks that tile
        dark and the flow continues without it.
        """
        black_box_names = [rp.wrapper.name for rp in partition.rps]
        jobs: List[ToolJob] = []
        failures: List[JobFailure] = []
        executions: Dict[str, JobExecution] = {}

        def run_synth(job_name, module, black_boxes=(), rp_names=()):
            """One synthesis job: checkpoint-aware, fault-aware.

            Returns (netlist_or_None, failure_or_None)."""
            if ckpt is not None:
                cached = ckpt.load_job(job_name)
                if cached is not None:
                    execution = cached.get("execution")
                    if execution is not None:
                        planner.restore(execution)
                        executions[job_name] = execution
                    jobs.append(
                        ToolJob(name=job_name, cpu_minutes=cached["cpu_minutes"])
                    )
                    instrumentation.leaf(
                        (f"vivado.{job_name}", "resumed"),
                        sim_s=cached["cpu_minutes"] * 60.0,
                    )
                    return cached["netlist"], cached["failure"]
            tool = VivadoInstance(
                job_name, self.model, planner=planner, stage="synthesis"
            )
            netlist = None
            failure = None
            with _tool_frame(instrumentation, tool):
                try:
                    netlist = tool.synth_design(
                        module, ooc=True, black_box_names=black_boxes
                    )
                except CadFaultError as error:
                    failure = JobFailure(
                        stage="synthesis",
                        job=job_name,
                        rp_names=tuple(rp_names),
                        attempts=len(error.execution.attempts),
                        minutes_burned=error.execution.total_minutes,
                    )
            execution = planner.executions.get(job_name)
            if execution is not None:
                executions[job_name] = execution
            jobs.append(ToolJob(name=job_name, cpu_minutes=tool.cpu_minutes))
            if ckpt is not None:
                ckpt.save_job(
                    job_name,
                    {
                        "netlist": netlist,
                        "cpu_minutes": tool.cpu_minutes,
                        "execution": execution,
                        "failure": failure,
                    },
                )
            return netlist, failure

        static_netlist, static_failure = run_synth(
            "synth_static", partition.rtl, black_boxes=black_box_names
        )
        if static_failure is not None:
            raise CadFaultError(executions["synth_static"])

        netlists: Dict[str, NetlistCheckpoint] = {}
        for rp in partition.rps:
            netlist, failure = run_synth(
                f"synth_{rp.name}", rp.wrapper, rp_names=(rp.name,)
            )
            if failure is not None:
                failures.append(failure)
            else:
                netlists[rp.name] = netlist
        server = VivadoServer(max_instances=self.max_instances)
        schedule = server.schedule(jobs)
        return {
            "schedule": schedule,
            "netlists": netlists,
            "static_netlist": static_netlist,
            "failures": tuple(failures),
            "executions": executions,
        }

    # ------------------------------------------------------------------
    def _write_rp_bitstreams(
        self,
        tool: VivadoInstance,
        partition: DesignPartition,
        floorplan: Floorplan,
        rp_names: Sequence[str],
    ) -> List[Bitstream]:
        """Write the partial bitstreams of the given RPs on ``tool``."""
        from repro.fabric.resources import ResourceVector
        from repro.soc.tiles import CPU_TILE_LUTS

        bitstreams: List[Bitstream] = []
        for rp_name in rp_names:
            rp = partition.rp_by_name(rp_name)
            assignment = floorplan.assignment_for(rp.name)
            for ip in rp.tile.modes:
                bitstreams.append(
                    tool.write_partial_bitstream(
                        rp.name, ip.name, assignment.provided, ip.resources
                    )
                )
            if rp.tile.host_cpu:
                core_luts = CPU_TILE_LUTS[rp.tile.hosted_cpu_core]
                bitstreams.append(
                    tool.write_partial_bitstream(
                        rp.name,
                        rp.tile.hosted_cpu_core.value,
                        assignment.provided,
                        ResourceVector(lut=core_luts, ff=int(core_luts * 1.2)),
                    )
                )
            # Blanking (greybox) image: lets the runtime erase the
            # region for power saving or fault clearing.
            bitstreams.append(
                tool.write_blanking_bitstream(rp.name, assignment.provided)
            )
        return bitstreams

    def _implement(
        self,
        config: SocConfig,
        partition: DesignPartition,
        plan: ImplementationPlan,
        device: Device,
        floorplan: Floorplan,
        netlists: Dict[str, NetlistCheckpoint],
        static_netlist: NetlistCheckpoint,
        planner: FaultPlanner,
        ckpt: Optional[FlowCheckpointer],
        dark_synth: frozenset,
        instrumentation: Instrumentation = OFF,
    ) -> Dict:
        """Execute the implementation plan.

        Static-path faults (the serial full run, the static pre-route)
        abort the build; a faulted in-context run marks its whole group
        of tiles dark and the flow continues. Every dark tile — from
        synthesis or implementation — gets its blanking bitstream from
        a fault-exempt recovery instance, so a degraded build is always
        loadable.
        """
        pblocks = floorplan.pblocks()
        demands = [a.demand for a in floorplan.assignments]
        pblock_by_rp = {a.rp_name: a.pblock.name for a in floorplan.assignments}

        jobs: List[ToolJob] = []
        omegas: Dict[str, float] = {}
        static_minutes: Optional[float] = None
        bitstreams: List[Bitstream] = []
        failures: List[JobFailure] = []
        executions: Dict[str, JobExecution] = {}

        def record_execution(job_name: str) -> Optional[JobExecution]:
            execution = planner.executions.get(job_name)
            if execution is not None:
                executions[job_name] = execution
            return execution

        def load_job(job_name: str) -> Optional[Dict]:
            if ckpt is None:
                return None
            cached = ckpt.load_job(job_name)
            if cached is None:
                return None
            execution = cached.get("execution")
            if execution is not None:
                planner.restore(execution)
                executions[job_name] = execution
            return cached

        if plan.strategy is ImplementationStrategy.SERIAL:
            run = plan.runs[0]
            cached = load_job(run.name)
            if cached is not None:
                bitstreams += cached["bitstreams"]
                jobs.append(
                    ToolJob(name=run.name, cpu_minutes=cached["cpu_minutes"])
                )
                instrumentation.leaf(
                    (f"vivado.{run.name}", "resumed"),
                    sim_s=cached["cpu_minutes"] * 60.0,
                )
            else:
                tool = VivadoInstance(
                    run.name,
                    self.model,
                    compress_bitstreams=self.compress_bitstreams,
                    planner=planner,
                    stage="implementation",
                )
                rp_netlists = [netlists[name] for name in run.rp_names]
                # The serial run implements the static design too; a
                # permanent fault here aborts — no degraded SoC exists
                # without its static logic.
                with _tool_frame(instrumentation, tool):
                    tool.implement_full(
                        static_netlist,
                        rp_netlists,
                        device,
                        pblocks,
                        demands,
                        mode=ParMode.FULL_SERIAL,
                    )
                    record_execution(run.name)
                    run_bitstreams = [
                        tool.write_full_bitstream(config.name, device)
                    ]
                    run_bitstreams += self._write_rp_bitstreams(
                        tool, partition, floorplan, run.rp_names
                    )
                bitstreams += run_bitstreams
                jobs.append(ToolJob(name=run.name, cpu_minutes=tool.cpu_minutes))
                if ckpt is not None:
                    ckpt.save_job(
                        run.name,
                        {
                            "bitstreams": run_bitstreams,
                            "cpu_minutes": tool.cpu_minutes,
                            "execution": executions.get(run.name),
                        },
                    )
        else:
            cached = load_job("impl_static")
            if cached is not None:
                static_routed = cached["static_routed"]
                bitstreams.append(cached["full_bitstream"])
                static_minutes = cached["cpu_minutes"]
                jobs.append(
                    ToolJob(name="impl_static", cpu_minutes=static_minutes)
                )
                instrumentation.leaf(
                    ("vivado.impl_static", "resumed"),
                    sim_s=static_minutes * 60.0,
                )
            else:
                static_tool = VivadoInstance(
                    "impl_static",
                    self.model,
                    compress_bitstreams=self.compress_bitstreams,
                    planner=planner,
                    stage="implementation",
                )
                # A permanent fault on the static pre-route aborts: every
                # in-context run depends on the locked static design.
                with _tool_frame(instrumentation, static_tool):
                    static_routed = static_tool.implement_static(
                        static_netlist, device, pblocks, demands
                    )
                    record_execution("impl_static")
                    # The static instance assembles and writes the
                    # full-device bitstream (with placeholder greyboxes).
                    full_bitstream = static_tool.write_full_bitstream(
                        config.name, device
                    )
                bitstreams.append(full_bitstream)
                static_minutes = static_tool.cpu_minutes
                jobs.append(
                    ToolJob(name="impl_static", cpu_minutes=static_minutes)
                )
                if ckpt is not None:
                    ckpt.save_job(
                        "impl_static",
                        {
                            "static_routed": static_routed,
                            "full_bitstream": full_bitstream,
                            "cpu_minutes": static_minutes,
                            "execution": executions.get("impl_static"),
                        },
                    )
            for run in plan.context_runs:
                cached = load_job(run.name)
                if cached is not None:
                    bitstreams += cached["bitstreams"]
                    if cached["failure"] is not None:
                        failures.append(cached["failure"])
                    else:
                        omegas[run.name] = cached["cpu_minutes"]
                    jobs.append(
                        ToolJob(
                            name=run.name,
                            cpu_minutes=cached["cpu_minutes"],
                            depends_on=("impl_static",),
                        )
                    )
                    instrumentation.leaf(
                        (f"vivado.{run.name}", "resumed"),
                        sim_s=cached["cpu_minutes"] * 60.0,
                    )
                    continue
                tool = VivadoInstance(
                    run.name,
                    self.model,
                    compress_bitstreams=self.compress_bitstreams,
                    planner=planner,
                    stage="implementation",
                )
                group = [netlists[name] for name in run.rp_names]
                targets = [pblock_by_rp[name] for name in run.rp_names]
                failure = None
                run_bitstreams: List[Bitstream] = []
                with _tool_frame(instrumentation, tool):
                    try:
                        tool.implement_in_context(static_routed, group, targets)
                    except CadFaultError as error:
                        # The whole group goes dark; the burned minutes
                        # stay on the schedule so the makespan reflects
                        # the loss.
                        failure = JobFailure(
                            stage="implementation",
                            job=run.name,
                            rp_names=run.rp_names,
                            attempts=len(error.execution.attempts),
                            minutes_burned=error.execution.total_minutes,
                        )
                        failures.append(failure)
                    else:
                        run_bitstreams = self._write_rp_bitstreams(
                            tool, partition, floorplan, run.rp_names
                        )
                        bitstreams += run_bitstreams
                        omegas[run.name] = tool.cpu_minutes
                record_execution(run.name)
                jobs.append(
                    ToolJob(
                        name=run.name,
                        cpu_minutes=tool.cpu_minutes,
                        depends_on=("impl_static",),
                    )
                )
                if ckpt is not None:
                    ckpt.save_job(
                        run.name,
                        {
                            "bitstreams": run_bitstreams,
                            "cpu_minutes": tool.cpu_minutes,
                            "execution": executions.get(run.name),
                            "failure": failure,
                        },
                    )

        # -- recovery: blanking bitstreams for every dark tile ----------
        # Written on a planner-free instance (bitgen is fault-exempt by
        # design) so a degraded build always ships a loadable image for
        # each dark region.
        dark_impl = {name for failure in failures for name in failure.rp_names}
        dark_all = sorted(dark_synth | dark_impl)
        if dark_all:
            recovery = VivadoInstance(
                "impl_recovery",
                self.model,
                compress_bitstreams=self.compress_bitstreams,
            )
            with _tool_frame(instrumentation, recovery):
                for rp_name in dark_all:
                    assignment = floorplan.assignment_for(rp_name)
                    bitstreams.append(
                        recovery.write_blanking_bitstream(
                            rp_name, assignment.provided
                        )
                    )
            depends = (
                ("impl_static",)
                if plan.strategy is not ImplementationStrategy.SERIAL
                else ()
            )
            jobs.append(
                ToolJob(
                    name="impl_recovery",
                    cpu_minutes=recovery.cpu_minutes,
                    depends_on=depends,
                )
            )

        server = VivadoServer(max_instances=max(self.max_instances, plan.tau))
        schedule = server.schedule(jobs)
        return {
            "static_minutes": static_minutes,
            "omegas": omegas,
            "schedule": schedule,
            "bitstreams": bitstreams,
            "failures": tuple(failures),
            "executions": executions,
        }
