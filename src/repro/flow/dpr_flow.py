"""The PR-ESP DPR flow orchestrator (Fig. 1).

``DprFlow.build()`` is the paper's single make target: it parses the
SoC configuration, splits static from reconfigurable sources, runs the
parallel OoC syntheses, floorplans the reconfigurable partitions,
chooses the size-driven P&R parallelism, orchestrates the (possibly
parallel) implementation runs, and generates full plus compressed
partial bitstreams. The returned :class:`FlowResult` carries every
intermediate the paper's tables report (synthesis makespan, t_static,
Ω per run, T_P&R, bitstream sizes).

The flow is the table :data:`STAGES`: seven plain stage functions, each
``BuildState -> (payload, wall_minutes, detail)``. One stage runner
(:meth:`BuildState.run_stage`) checkpoints, restores, records and
narrates every stage; one tool-job runner (:meth:`ToolJobs.run`) does
the same for each tool job inside the synthesis and implementation
stages.

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
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.metrics import DesignMetrics, compute_metrics
from repro.core.strategy import (
    ImplementationStrategy,
    StrategyDecision,
    choose_strategy,
)
from repro.errors import FlowError
from repro.fabric.device import Device
from repro.fabric.resources import ResourceVector
from repro.obs import events as ev
from repro.obs.instrumentation import OFF, Instrumentation
from repro.obs.logconfig import get_logger
from repro.obs.recorder import CAD_MIN, Recorder
from repro.floorplan.constraints import validate_floorplan
from repro.floorplan.flora import Floorplan, FloraFloorplanner
from repro.flow.blackbox import BlackBoxWrapper, generate_blackboxes
from repro.flow.checkpoint import FlowCheckpointer
from repro.flow.schedule import ImplementationPlan, plan_implementation
from repro.soc.config import SocConfig
from repro.soc.partition import DesignPartition, partition_design
from repro.soc.tiles import CPU_TILE_LUTS
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
    """A ``vivado.<job>`` host frame around one tool run.

    The frame is charged the tool's CPU minutes as simulated seconds,
    burned (retried or failed) attempts included, also when the run
    raises.
    """
    with instrumentation.frame(f"vivado.{tool.name}") as frame:
        try:
            yield
        finally:
            frame.charge(tool.cpu_minutes * 60.0)


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
        checkpoint_dir: Union[None, str, Path] = None,
        resume: bool = False,
    ) -> FlowResult:
        """Run the full RTL-to-bitstream flow for ``config``.

        ``strategy_override`` forces a P&R strategy (used by the
        evaluation to sweep all three); by default the size-driven
        algorithm decides. The ``instrumentation`` probe's trace
        (modelled CAD minutes) receives one record per Fig. 1 stage plus
        one per scheduled tool job; its bus receives a start/finish
        pair per stage, stamped on the same modelled-minute clock, plus
        retry/failure/degradation events when the fault model bites.
        Its profile gets a ``build.<soc>`` frame over the whole flow, a
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
        from repro.flow.cache import flow_cache_key

        with instrumentation.frame(f"build.{config.name}"):
            device = config.device()
            logger.info("build %s: starting flow on %s", config.name, device.name)
            ckpt: Optional[FlowCheckpointer] = None
            if checkpoint_dir is not None:
                key = flow_cache_key(self, config, strategy_override, semi_tau)
                ckpt = FlowCheckpointer(checkpoint_dir, key)
                if not resume:
                    ckpt.clear()
            build = BuildState(
                flow=self,
                config=config,
                strategy_override=strategy_override,
                semi_tau=semi_tau,
                instrumentation=instrumentation,
                ckpt=ckpt,
                device=device,
                planner=FaultPlanner(faults=self.faults, policy=self.retry),
            )
            for name, stage in STAGES:
                build.run_stage(name, stage)

            metrics, decision, plan = build.outputs["choose_parallelism"]
            synth = build.outputs["synthesis"]
            impl = build.outputs["implementation"]
            failures = _failures(build)
            result = FlowResult(
                config=config,
                partition=build.outputs["parse"],
                metrics=metrics,
                decision=decision,
                plan=plan,
                floorplan=build.outputs["floorplan"],
                blackboxes=build.outputs["blackbox_gen"],
                synth_makespan_minutes=synth["schedule"].makespan_minutes,
                static_par_minutes=impl["static_minutes"],
                omega_minutes=impl["omegas"],
                par_makespan_minutes=impl["schedule"].makespan_minutes,
                bitstreams=impl["bitstreams"],
                stages=build.stages,
                schedule=impl["schedule"],
                synth_schedule=synth["schedule"],
                degraded=bool(failures),
                failures=failures,
                executions=dict(build.planner.executions),
                resumed_stages=tuple(build.resumed),
            )
            if result.degraded:
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
                " [degraded]" if result.degraded else "",
            )
            if instrumentation.tracer is not None:
                self.record_trace(result, instrumentation.tracer)
            return result

    # ------------------------------------------------------------------
    def record_trace(
        self, result: FlowResult, recorder: Recorder, replay: bool = False
    ) -> None:
        """Project a finished build onto the record stream (CAD minutes).

        Public because cache hits replay it: a ``FlowResult`` served
        from the :class:`repro.flow.cache.FlowCache` carries everything
        the projection reads, so a cached build traces byte-identically
        to the fresh one. A fresh build's live frames already folded
        it, so its projection reaches the trace only; with ``replay``
        each record also names its fold path and simulated seconds, so
        the one projection feeds both exports. A hit costs no host time
        but keeps its modelled CAD minutes, in the shape a fresh build
        folds to (``build.<soc>`` → ``flow.<stage>`` → ``vivado.<job>``),
        marked with a ``cache_hit`` leaf.

        The stage records tile the ``flow/build`` track back to back;
        each scheduled tool job lands on its instance's track, offset
        to its stage's window, so every job record nests inside its
        stage record. Reading from the same `FlowResult` the report
        renders keeps the trace and the human report in agreement by
        construction.
        """
        build = f"build.{result.config.name}"

        def fold(*names: str) -> Optional[Tuple[str, ...]]:
            return (build, *names) if replay else None

        root = recorder.record(
            f"build {result.config.name}",
            0.0,
            result.total_minutes,
            CAD_MIN,
            category="flow.build",
            track="flow/build",
            sim_s=0.0,
            path=fold("cache_hit"),
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
            stage_spans[stage.stage] = recorder.record(
                stage.stage,
                offset,
                offset + stage.wall_minutes,
                CAD_MIN,
                category="flow.stage",
                track="flow/build",
                parent=root,
                sim_s=stage.wall_minutes * 60.0,
                path=fold(f"flow.{stage.stage}"),
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
                recorder.record(
                    placed.job.name,
                    base + placed.start_minutes,
                    base + placed.end_minutes,
                    CAD_MIN,
                    category="flow.job",
                    track=f"flow/vivado{placed.instance:02d}",
                    parent=stage_span,
                    sim_s=placed.job.cpu_minutes * 60.0,
                    path=fold(f"flow.{stage_name}", f"vivado.{placed.job.name}"),
                    cpu_minutes=placed.job.cpu_minutes,
                    stage=stage_name,
                    tiles=list(run_tiles.get(placed.job.name, ())),
                )


#: A Fig. 1 stage: reads the build so far and returns ``(payload,
#: wall_minutes, detail)``. The payload must be picklable; a stage that
#: runs tool jobs returns the dict of :meth:`ToolJobs.payload`.
Stage = Callable[["BuildState"], Tuple[object, float, str]]


@dataclass
class BuildState:
    """One ``DprFlow.build()`` call: its request, its fault ledger and
    the payload of every stage run or restored so far, by stage name."""

    flow: "DprFlow"
    config: SocConfig
    strategy_override: Optional[ImplementationStrategy]
    semi_tau: int
    instrumentation: Instrumentation
    ckpt: Optional[FlowCheckpointer]
    device: Device
    planner: FaultPlanner
    stages: List[StageTrace] = field(default_factory=list)
    resumed: List[str] = field(default_factory=list)
    outputs: Dict[str, object] = field(default_factory=dict)

    def run_stage(self, name: str, stage: Stage) -> None:
        """Restore ``name`` from the checkpoint, or run and save it.

        A restored stage contributes the same :class:`StageTrace` a
        fresh run would, so downstream accounting (and the summary)
        cannot tell the difference. A tool-job stage's executions go
        back into the planner either way; its job events are emitted
        only when it ran.
        """
        inst = self.instrumentation
        start = sum(s.wall_minutes for s in self.stages)
        restored = self.ckpt.load_stage(name) if self.ckpt is not None else None
        if restored is not None:
            payload, wall, detail = restored
            self.stages.append(StageTrace(stage=name, wall_minutes=wall, detail=detail))
            self.resumed.append(name)
            inst.record(
                f"flow.{name}", start, start + wall, CAD_MIN, track=None,
                sim_s=wall * 60.0, path=(f"flow.{name}", "resumed"),
            )
            inst.emit(
                ev.FLOW_STAGE_RESUMED,
                time=start + wall,
                source=name,
                soc=self.config.name,
                wall_minutes=wall,
                detail=detail,
            )
            logger.info("build %s: resumed stage %s from checkpoint",
                        self.config.name, name)
        else:
            with inst.frame(f"flow.{name}") as frame:
                payload, wall, detail = stage(self)
                # The stage's modelled CAD minutes are its simulated-
                # time attribution (the flow clock runs in minutes).
                frame.charge(wall * 60.0)
            inst.emit(
                ev.FLOW_STAGE_STARTED, time=start, source=name, soc=self.config.name
            )
            self.stages.append(StageTrace(stage=name, wall_minutes=wall, detail=detail))
            inst.emit(
                ev.FLOW_STAGE_FINISHED,
                time=start + wall,
                source=name,
                soc=self.config.name,
                wall_minutes=wall,
                detail=detail,
            )
            if self.ckpt is not None:
                self.ckpt.save_stage(name, payload, wall, detail)
                inst.emit(
                    ev.FLOW_CHECKPOINT_SAVED,
                    time=sum(s.wall_minutes for s in self.stages),
                    source=name,
                    soc=self.config.name,
                )
        self.outputs[name] = payload
        if isinstance(payload, dict):  # a tool-job stage: ToolJobs.payload
            for execution in payload["executions"].values():
                self.planner.restore(execution)
            if name not in self.resumed:
                self._emit_job_events(
                    name,
                    sum(s.wall_minutes for s in self.stages) - wall,
                    payload["schedule"],
                    payload["executions"],
                )

    def _emit_job_events(
        self,
        stage_name: str,
        stage_start: float,
        schedule: ScheduleResult,
        executions: Dict[str, JobExecution],
    ) -> None:
        """Emit retry/failure events placed on the schedule's clock.

        Also folds the stage's job outcomes into the registry's CAD
        accounting counters — every scheduled job counts, not just the
        retried/failed ones the event loop below reports.
        """
        inst = self.instrumentation
        jobs_total = inst.counter("flow.jobs_total", "CAD jobs scheduled, by stage")
        retries_total = inst.counter(
            "flow.job_retries_total", "retried CAD job attempts, by stage"
        )
        failures_total = inst.counter(
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
                if not attempt.succeeded and attempt.index < len(execution.attempts):
                    inst.emit(
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
                inst.emit(
                    ev.CAD_JOB_FAILED,
                    time=base + offset,
                    source=stage_name,
                    job=name,
                    attempts=len(execution.attempts),
                    minutes_burned=execution.total_minutes,
                )


class ToolJobs:
    """The tool jobs of one long stage, each run or restored by :meth:`run`."""

    def __init__(self, build: BuildState, stage: str) -> None:
        self.build = build
        self.stage = stage
        self.jobs: List[ToolJob] = []
        self.executions: Dict[str, JobExecution] = {}

    def run(
        self,
        name: str,
        work: Callable[[VivadoInstance], Dict],
        tiles: Tuple[str, ...] = (),
        depends_on: Tuple[str, ...] = (),
    ) -> Dict:
        """Run one checkpoint-aware, fault-aware tool job, or restore it.

        ``work`` drives a fresh :class:`VivadoInstance` and returns the
        job's outputs. The returned dict holds them plus ``cpu_minutes``,
        ``execution`` and ``failure``: a permanent fault darkens
        ``tiles`` (``failure`` set, no outputs); on a job without tiles
        it aborts the build.
        """
        build = self.build
        job = build.ckpt.load_job(name) if build.ckpt is not None else None
        if job is not None:
            if job["execution"] is not None:
                build.planner.restore(job["execution"])
            cpu_minutes = job["cpu_minutes"]
            build.instrumentation.record(
                f"vivado.{name}", 0.0, cpu_minutes, CAD_MIN, track=None,
                sim_s=cpu_minutes * 60.0, path=(f"vivado.{name}", "resumed"),
            )
        else:
            flow = build.flow
            tool = VivadoInstance(
                name,
                flow.model,
                compress_bitstreams=flow.compress_bitstreams,
                planner=build.planner,
                stage=self.stage,
            )
            job = {"failure": None}
            with _tool_frame(build.instrumentation, tool):
                try:
                    job.update(work(tool))
                except CadFaultError as error:
                    if not tiles:
                        raise
                    # The burned minutes stay on the schedule so the
                    # makespan reflects the loss.
                    job["failure"] = JobFailure(
                        stage=self.stage,
                        job=name,
                        rp_names=tiles,
                        attempts=len(error.execution.attempts),
                        minutes_burned=error.execution.total_minutes,
                    )
            job["cpu_minutes"] = tool.cpu_minutes
            job["execution"] = build.planner.executions.get(name)
            if build.ckpt is not None:
                build.ckpt.save_job(name, job)
        if job["execution"] is not None:
            self.executions[name] = job["execution"]
        self.jobs.append(
            ToolJob(name=name, cpu_minutes=job["cpu_minutes"], depends_on=depends_on)
        )
        return job

    def payload(self, max_instances: int, **outputs) -> Dict:
        """The stage payload: the jobs' schedule, executions and ``outputs``."""
        schedule = VivadoServer(max_instances=max_instances).schedule(self.jobs)
        return {"schedule": schedule, "executions": self.executions, **outputs}


# ----------------------------------------------------------------------
# the stages of Fig. 1
# ----------------------------------------------------------------------
def plan_floorplan(
    device: Device, partition: DesignPartition, target_utilization: float
) -> Floorplan:
    """FLORA pblocks for ``partition``'s RPs; an illegal plan raises."""
    plan = FloraFloorplanner(device, target_utilization=target_utilization).plan(
        [(rp.name, rp.demand) for rp in partition.rps]
    )
    report = validate_floorplan(device, plan)
    if not report.legal:
        raise FlowError("floorplan validation failed: " + "; ".join(report.violations))
    return plan


def _dark_tiles(failures: Sequence[JobFailure]) -> frozenset:
    """The tiles the given failures took down."""
    return frozenset(name for failure in failures for name in failure.rp_names)


def _failures(build: BuildState) -> Tuple[JobFailure, ...]:
    """Every permanently failed job, synthesis first."""
    return (
        build.outputs["synthesis"]["failures"]
        + build.outputs["implementation"]["failures"]
    )


def _parse(build: BuildState):
    """Parse the SoC configuration and split the sources."""
    parsed = partition_design(build.config)
    return (
        parsed,
        0.0,
        f"static={parsed.static.luts} LUTs, {parsed.num_rps} reconfigurable tiles",
    )


def _blackbox_gen(build: BuildState):
    """Generate the black-box wrappers the static synthesis uses."""
    wrappers = generate_blackboxes(build.outputs["parse"])
    return wrappers, 0.0, f"{len(wrappers)} wrappers"


def _synthesis(build: BuildState):
    """Run the static + per-tile OoC syntheses in parallel.

    The static top is synthesized with the reconfigurable wrappers
    black-boxed; it is charged on the OoC curve because the run is
    identical in character (no context, netlist-out) even though the
    result is the design top. A permanent fault on the static
    synthesis aborts the build; a per-tile fault marks that tile dark
    and the flow continues without it.
    """
    partition: DesignPartition = build.outputs["parse"]
    black_box_names = [rp.wrapper.name for rp in partition.rps]
    jobs = ToolJobs(build, "synthesis")
    static = jobs.run(
        "synth_static",
        lambda tool: {
            "netlist": tool.synth_design(
                partition.rtl, ooc=True, black_box_names=black_box_names
            )
        },
    )
    netlists: Dict[str, NetlistCheckpoint] = {}
    failures: List[JobFailure] = []
    for rp in partition.rps:
        job = jobs.run(
            f"synth_{rp.name}",
            lambda tool, rp=rp: {"netlist": tool.synth_design(rp.wrapper, ooc=True)},
            tiles=(rp.name,),
        )
        if job["failure"] is not None:
            failures.append(job["failure"])
        else:
            netlists[rp.name] = job["netlist"]
    payload = jobs.payload(
        build.flow.max_instances,
        netlists=netlists,
        static_netlist=static["netlist"],
        failures=tuple(failures),
    )
    makespan = payload["schedule"].makespan_minutes
    logger.info("build %s: synthesis makespan %.1f min over %d runs",
                build.config.name, makespan, len(jobs.jobs))
    dark = _dark_tiles(failures)
    if dark:
        logger.warning("build %s: %d tile(s) lost to synthesis faults: %s",
                       build.config.name, len(dark), ", ".join(sorted(dark)))
    return payload, makespan, f"{1 + len(partition.rps)} parallel OoC runs"


def _floorplan(build: BuildState):
    """Floorplan the reconfigurable partitions."""
    plan = plan_floorplan(
        build.device, build.outputs["parse"], build.flow.floorplan_utilization
    )
    return plan, 0.0, f"{len(plan.assignments)} pblocks on {build.device.name}"


def _choose_parallelism(build: BuildState):
    """Size-driven strategy choice.

    The classification runs on the full design (paper semantics); the
    materialized plan excludes tiles already lost to synthesis faults,
    so the implementation runs cover survivors only.
    """
    semi_tau, override = build.semi_tau, build.strategy_override
    metrics = compute_metrics(build.config)
    decision = choose_strategy(
        metrics,
        estimator=build.flow.model.strategy_estimator(tau=semi_tau),
        semi_tau=semi_tau,
    )
    if override is not None and override is not decision.strategy:
        decision = StrategyDecision(
            classification=decision.classification,
            strategy=override,
            tau=(
                1
                if override is ImplementationStrategy.SERIAL
                else metrics.num_rps
                if override is ImplementationStrategy.FULLY_PARALLEL
                else min(semi_tau, metrics.num_rps)
            ),
        )
    dark_synth = _dark_tiles(build.outputs["synthesis"]["failures"])
    plan = plan_implementation(build.outputs["parse"], decision, exclude=dark_synth)
    detail = (
        f"class {decision.design_class.value} -> "
        f"{decision.strategy.value} (tau={plan.tau})"
    )
    if dark_synth:
        detail += f", excluding {len(dark_synth)} dark tile(s)"
    return (metrics, decision, plan), 0.0, detail


def _implementation(build: BuildState):
    """Execute the implementation plan, bitstream generation included.

    Each tool instance writes the bitstreams of the partitions it
    implemented, so bitgen time lands inside the runs (as in the real
    flow) and the makespan stays comparable to the baseline.
    Static-path faults (the serial full run, the static pre-route)
    abort the build; a faulted in-context run marks its whole group of
    tiles dark and the flow continues. Every dark tile — from synthesis
    or implementation — gets its blanking bitstream from a fault-exempt
    recovery instance, so a degraded build is always loadable.
    """
    flow, config, device = build.flow, build.config, build.device
    partition: DesignPartition = build.outputs["parse"]
    synth = build.outputs["synthesis"]
    netlists: Dict[str, NetlistCheckpoint] = synth["netlists"]
    floorplan: Floorplan = build.outputs["floorplan"]
    plan: ImplementationPlan = build.outputs["choose_parallelism"][2]
    pblocks = floorplan.pblocks()
    demands = [a.demand for a in floorplan.assignments]
    pblock_by_rp = {a.rp_name: a.pblock.name for a in floorplan.assignments}

    jobs = ToolJobs(build, "implementation")
    omegas: Dict[str, float] = {}
    static_minutes: Optional[float] = None
    bitstreams: List[Bitstream] = []
    failures: List[JobFailure] = []

    serial = plan.strategy is ImplementationStrategy.SERIAL
    if serial:
        run = plan.runs[0]

        # The serial run implements the static design too; a permanent
        # fault here aborts — no degraded SoC exists without its
        # static logic.
        def full_run(tool: VivadoInstance) -> Dict:
            tool.implement_full(
                synth["static_netlist"],
                [netlists[name] for name in run.rp_names],
                device,
                pblocks,
                demands,
                mode=ParMode.FULL_SERIAL,
            )
            return {
                "bitstreams": [tool.write_full_bitstream(config.name, device)]
                + _rp_bitstreams(tool, partition, floorplan, run.rp_names)
            }

        bitstreams += jobs.run(run.name, full_run)["bitstreams"]
    else:
        # A permanent fault on the static pre-route aborts: every
        # in-context run depends on the locked static design. The
        # static instance assembles and writes the full-device
        # bitstream (with placeholder greyboxes).
        static = jobs.run(
            "impl_static",
            lambda tool: {
                "static_routed": tool.implement_static(
                    synth["static_netlist"], device, pblocks, demands
                ),
                "full_bitstream": tool.write_full_bitstream(config.name, device),
            },
        )
        bitstreams.append(static["full_bitstream"])
        static_minutes = static["cpu_minutes"]
        for run in plan.context_runs:

            def in_context(tool: VivadoInstance, run=run) -> Dict:
                tool.implement_in_context(
                    static["static_routed"],
                    [netlists[name] for name in run.rp_names],
                    [pblock_by_rp[name] for name in run.rp_names],
                )
                return {
                    "bitstreams": _rp_bitstreams(
                        tool, partition, floorplan, run.rp_names
                    )
                }

            job = jobs.run(
                run.name, in_context, tiles=run.rp_names, depends_on=("impl_static",)
            )
            if job["failure"] is not None:
                failures.append(job["failure"])
            else:
                bitstreams += job["bitstreams"]
                omegas[run.name] = job["cpu_minutes"]

    # -- recovery: blanking bitstreams for every dark tile --------------
    # Written on a planner-free instance (bitgen is fault-exempt by
    # design) so a degraded build always ships a loadable image for
    # each dark region.
    dark_all = sorted(_dark_tiles(synth["failures"] + tuple(failures)))
    if dark_all:
        recovery = VivadoInstance(
            "impl_recovery", flow.model, compress_bitstreams=flow.compress_bitstreams
        )
        with _tool_frame(build.instrumentation, recovery):
            for rp_name in dark_all:
                assignment = floorplan.assignment_for(rp_name)
                bitstreams.append(
                    recovery.write_blanking_bitstream(rp_name, assignment.provided)
                )
        depends = () if serial else ("impl_static",)
        jobs.jobs.append(ToolJob("impl_recovery", recovery.cpu_minutes, depends))

    payload = jobs.payload(
        max(flow.max_instances, plan.tau),
        static_minutes=static_minutes,
        omegas=omegas,
        bitstreams=bitstreams,
        failures=tuple(failures),
    )
    return (
        payload,
        payload["schedule"].makespan_minutes,
        f"{len(plan.runs)} runs, strategy {plan.strategy.value}",
    )


def _bitstreams(build: BuildState):
    """Account for the bitstreams the implementation runs wrote."""
    bitstreams = build.outputs["implementation"]["bitstreams"]
    detail = (
        f"{len(bitstreams)} bitstreams "
        f"({'compressed' if build.flow.compress_bitstreams else 'raw'} partials)"
    )
    dark = _dark_tiles(_failures(build))
    if dark:
        detail += f", blanking-only for dark tiles: {', '.join(sorted(dark))}"
    return None, 0.0, detail


def _rp_bitstreams(
    tool: VivadoInstance,
    partition: DesignPartition,
    floorplan: Floorplan,
    rp_names: Sequence[str],
) -> List[Bitstream]:
    """Write the partial bitstreams of the given RPs on ``tool``."""
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
        # Blanking (greybox) image: lets the runtime erase the region
        # for power saving or fault clearing.
        bitstreams.append(tool.write_blanking_bitstream(rp.name, assignment.provided))
    return bitstreams


#: The Fig. 1 flow, in order. ``DprFlow.build`` walks this table
#: through :meth:`BuildState.run_stage`.
STAGES: Tuple[Tuple[str, Stage], ...] = (
    ("parse", _parse),
    ("blackbox_gen", _blackbox_gen),
    ("synthesis", _synthesis),
    ("floorplan", _floorplan),
    ("choose_parallelism", _choose_parallelism),
    ("implementation", _implementation),
    ("bitstreams", _bitstreams),
)
