"""The PR-ESP platform facade.

One object ties the whole reproduction together: ``build()`` runs the
automated DPR flow (the paper's single make target), ``compare_with_
monolithic()`` reproduces the Table V experiment for one SoC,
``profile_wami()`` reproduces the Fig. 3 profiling methodology (a 2x2
SoC with a single accelerator tile), and ``deploy_wami()`` programs a
built SoC and runs the WAMI application under the runtime manager,
returning performance and energy (the Fig. 4 experiment).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.strategy import ImplementationStrategy
from repro.energy.measure import EnergyReport, measure_energy
from repro.energy.power import DEFAULT_POWER_MODEL, PowerModel
from repro.errors import ConfigurationError
from repro.flow.batch import BatchBuilder, BuildOutcome, BuildRequest, cached_build
from repro.flow.dpr_flow import DprFlow, FlowResult
from repro.flow.monolithic import MonolithicFlow, MonolithicResult
from repro.flow.options import BuildOptions
from repro.noc.mesh import Mesh
from repro.obs.context import RequestIdFactory, TelemetryContext, activate
from repro.obs.events import EventBus
from repro.obs.health import HealthMonitor, HealthReport
from repro.obs.instrumentation import OFF, Instrumentation
from repro.obs.tsdb import TelemetryStore
from repro.runtime.api import DprUserApi
from repro.runtime.driver import AcceleratorDriver, DriverRegistry
from repro.runtime.executor import AppExecutor, ExecutionTimeline
from repro.runtime.faults import NO_RUNTIME_FAULTS, RuntimeFaultOptions
from repro.runtime.manager import ReconfigurationManager
from repro.runtime.memory import BitstreamStore
from repro.runtime.prc import PrcDevice
from repro.runtime.stats import RuntimeStats, collect_stats
from repro.runtime.steps import counted_on_read, project
from repro.sim.kernel import Simulator
from repro.soc.config import SocConfig
from repro.soc.tiles import ReconfigurableTile, Tile, TileKind
from repro.vivado.runtime_model import CALIBRATED_MODEL, RuntimeModel
from repro.wami.accelerators import WAMI_ACCELERATORS, wami_accelerator
from repro.wami.app import WamiApplication
from repro.wami.graph import WamiStage

#: SoC clock of the paper's deployment (VC707 at 78 MHz).
DEPLOYMENT_CLOCK_HZ = 78e6


@dataclass
class WamiRunReport:
    """Outcome of running WAMI on a built SoC."""

    config: SocConfig
    frames: int
    timeline: ExecutionTimeline
    energy: EnergyReport
    reconfigurations: int
    software_stages: Tuple[WamiStage, ...]
    runtime_stats: Optional[RuntimeStats] = None

    @property
    def seconds_per_frame(self) -> float:
        """Average frame latency."""
        return self.timeline.makespan_s / self.frames

    @property
    def joules_per_frame(self) -> float:
        """Average energy per frame."""
        return self.energy.joules_per_frame

    def to_summary_dict(self, metrics: Optional[Dict[str, float]] = None) -> Dict:
        """JSON-serializable report (``repro deploy --json``).

        ``metrics`` is an optional registry snapshot to embed alongside
        the report, so the machine output carries both views of the
        same run.
        """
        summary = {
            "soc": self.config.name,
            "frames": self.frames,
            "seconds_per_frame": self.seconds_per_frame,
            "joules_per_frame": self.joules_per_frame,
            "average_power_w": self.energy.average_power_w,
            "makespan_s": self.timeline.makespan_s,
            "reconfigurations": self.reconfigurations,
            "reconfiguration_time_s": self.timeline.reconfiguration_time(),
            "software_stages": [s.kernel_name for s in self.software_stages],
        }
        if self.runtime_stats is not None:
            summary["runtime"] = self.runtime_stats.to_dict()
        if metrics is not None:
            summary["metrics"] = metrics
        return summary


@dataclass
class WamiProfile:
    """Fig. 3-style profile of one accelerator on the 2x2 profiling SoC."""

    stage: WamiStage
    luts: int
    exec_time_s: float
    partial_bitstream_kib: float
    region_kluts: float


@dataclass(frozen=True)
class BuildResult:
    """``build()`` output: the flow result plus the optional baseline."""

    flow: FlowResult
    baseline: Optional[MonolithicResult] = None
    cached: bool = False

    @property
    def speedup_vs_baseline(self) -> Optional[float]:
        """Baseline-total over PR-ESP-total (None without a baseline)."""
        if self.baseline is None:
            return None
        return self.baseline.total_minutes / self.flow.total_minutes


class PrEspPlatform:
    """Top-level entry point of the reproduction."""

    def __init__(
        self,
        model: RuntimeModel = CALIBRATED_MODEL,
        max_instances: int = 16,
        compress_bitstreams: bool = True,
        power_model: PowerModel = DEFAULT_POWER_MODEL,
        prc_fetch_bytes_per_cycle: Optional[float] = None,
        instrumentation: Optional[Instrumentation] = None,
        options: Optional[BuildOptions] = None,
        runtime_options: Optional[RuntimeFaultOptions] = None,
        request_ids: Optional[RequestIdFactory] = None,
        telemetry: Optional[TelemetryStore] = None,
    ) -> None:
        """``instrumentation`` is the one probe (recorder, metrics,
        event bus) every platform operation observes through;
        ``options`` bundles the build-side configuration (cache, batch
        jobs, fault/retry policy, checkpoint directory);
        ``runtime_options`` bundles the
        deploy-side runtime fault model and watchdog/recovery policy
        (the DES mirror of the CAD fault options).

        ``request_ids`` turns on request-scoped telemetry: every verb
        mints (or accepts via ``context=``) a
        :class:`~repro.obs.context.TelemetryContext` and activates it,
        so the live instrumentation stamps each span, event, metric
        sample and profile leaf with the request ID. ``telemetry``
        attaches a :class:`~repro.obs.tsdb.TelemetryStore` that
        snapshots the metrics registry after every verb — the series
        the SLO tracker and the ``repro dashboard`` verb read. Both
        default off, preserving context-free label keys.
        """
        self.options = options if options is not None else BuildOptions()
        self.runtime_options = (
            runtime_options if runtime_options is not None else RuntimeFaultOptions()
        )
        self.instrumentation = (
            instrumentation if instrumentation is not None else OFF
        )
        self.request_ids = request_ids
        self.telemetry = telemetry
        self.model = model
        self.power_model = power_model
        self.prc_fetch_bytes_per_cycle = prc_fetch_bytes_per_cycle
        self.flow = DprFlow(
            model=model,
            max_instances=max_instances,
            compress_bitstreams=compress_bitstreams,
            faults=self.options.faults,
            retry=self.options.retry,
        )
        self.baseline_flow = MonolithicFlow(
            model=model, compress_bitstreams=compress_bitstreams
        )
        self.cache = self.options.cache
        self.batch = self._make_batch(self.options.jobs)
        #: Batches for per-call ``jobs=`` overrides, keyed by job count,
        #: so each override reuses one warm worker pool instead of
        #: forking a throwaway pool per call.
        self._override_batches: Dict[int, BatchBuilder] = {}

    @contextlib.contextmanager
    def _request(
        self, verb: str, context: Optional[TelemetryContext]
    ) -> Iterator[Optional[TelemetryContext]]:
        """Activate the verb's telemetry context around its body.

        An explicit ``context=`` wins; otherwise one is minted from the
        platform's :class:`RequestIdFactory` when configured, and with
        neither the verb runs unattributed (the seed behaviour — label
        keys stay context-free). On exit the platform's
        :class:`TelemetryStore`, when configured, records one registry
        snapshot — failed verbs included, so SLO burn sees their
        failure counters.
        """
        if context is None and self.request_ids is not None:
            context = self.request_ids.mint(verb)
        try:
            with activate(context):
                yield context
        finally:
            if self.telemetry is not None:
                metrics = self.instrumentation.metrics
                self.telemetry.record(metrics if metrics is not None else {})

    def _make_batch(self, jobs: int) -> BatchBuilder:
        """A build service sharing the platform's flow, cache and probe."""
        return BatchBuilder(
            flow=self.flow,
            cache=self.cache,
            jobs=jobs,
            instrumentation=self.instrumentation,
        )

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def build(
        self,
        config: SocConfig,
        strategy_override: Optional[ImplementationStrategy] = None,
        with_baseline: bool = False,
        resume: Optional[bool] = None,
        context: Optional[TelemetryContext] = None,
    ) -> BuildResult:
        """Compile ``config`` with the PR-ESP flow (plus baseline if asked).

        The platform's :class:`Instrumentation` receives the flow's
        stage and tool-job spans plus the retry/failure/degradation
        events. When the platform's :class:`BuildOptions` carry a
        :class:`~repro.flow.cache.FlowCache`, a repeat build of the
        same configuration is served from it (and still traced — the
        flow replays the cached result's spans); with a
        ``checkpoint_dir`` the build is stage-checkpointed, and
        ``resume`` (defaulting to the options' flag) restores the
        matching prefix of a previously killed build.

        ``context=`` attributes the build to an existing request;
        without one the platform's ID factory (when configured) mints a
        fresh ``build-...`` context.
        """
        with self._request("build", context):
            flow_result, cached = cached_build(
                self.flow,
                self.cache,
                config,
                strategy_override=strategy_override,
                instrumentation=self.instrumentation,
                checkpoint_dir=self.options.checkpoint_dir,
                resume=self.options.resume if resume is None else resume,
            )
            baseline = self.baseline_flow.build(config) if with_baseline else None
        return BuildResult(flow=flow_result, baseline=baseline, cached=cached)

    def build_many(
        self,
        requests: Sequence[BuildRequest],
        jobs: Optional[int] = None,
        context: Optional[TelemetryContext] = None,
    ) -> List[BuildOutcome]:
        """Fan a batch of build requests out over the build service.

        ``jobs`` overrides the worker count the platform was
        constructed with (1 = serial in-process). Outcomes keep the
        request order; a failing request carries its own ``BuildError``
        instead of aborting the batch. The whole batch runs under one
        telemetry context (``context=`` or a minted ``batch-...`` one);
        pool workers re-activate it from their work item, so
        worker-side telemetry joins the batch's request ID.
        """
        batch = self.batch
        if jobs is not None and jobs != batch.jobs:
            batch = self._override_batches.get(jobs)
            if batch is None:
                batch = self._override_batches[jobs] = self._make_batch(jobs)
        with self._request("batch", context):
            return batch.build_many(requests)

    def close(self) -> None:
        """Release platform-owned resources (the warm build pools).

        Idempotent; the platform stays usable — the next parallel batch
        simply starts a fresh pool. Also runs on context-manager exit.
        """
        self.batch.close()
        for batch in self._override_batches.values():
            batch.close()
        self._override_batches.clear()

    def __enter__(self) -> "PrEspPlatform":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def compare_with_monolithic(
        self, config: SocConfig, context: Optional[TelemetryContext] = None
    ) -> Tuple[FlowResult, MonolithicResult]:
        """The Table V experiment for one SoC."""
        with self._request("compare", context) as ctx:
            result = self.build(config, with_baseline=True, context=ctx)
        assert result.baseline is not None
        return result.flow, result.baseline

    # ------------------------------------------------------------------
    # profiling (Fig. 3 methodology)
    # ------------------------------------------------------------------
    def profile_wami(self, stage: WamiStage) -> WamiProfile:
        """Profile one WAMI accelerator on a 2x2 single-tile SoC."""
        profile = wami_accelerator(stage)
        config = SocConfig.assemble(
            name=f"profile_{profile.name}",
            board="vc707",
            rows=2,
            cols=2,
            tiles=[
                Tile(kind=TileKind.CPU, name="cpu0"),
                Tile(kind=TileKind.MEM, name="mem0"),
                Tile(kind=TileKind.AUX, name="aux0"),
                ReconfigurableTile(name="rt0", modes=[profile.as_ip()]),
            ],
        )
        flow_result = self.flow.build(config)
        partials = flow_result.partial_bitstreams()
        assignment = flow_result.floorplan.assignment_for("rt0")
        return WamiProfile(
            stage=stage,
            luts=profile.luts,
            exec_time_s=profile.exec_time_s,
            partial_bitstream_kib=partials[0].size_kib,
            region_kluts=assignment.provided.lut / 1000.0,
        )

    # ------------------------------------------------------------------
    # deployment (Fig. 4 methodology)
    # ------------------------------------------------------------------
    def deploy_wami(
        self,
        config: SocConfig,
        flow_result: Optional[FlowResult] = None,
        frames: int = 1,
        app: Optional[WamiApplication] = None,
        power_gating: bool = False,
        pipelined: bool = False,
        prc_setup: Optional[Callable[[PrcDevice], None]] = None,
        instrumentation: Optional[Instrumentation] = None,
        runtime_options: Optional[RuntimeFaultOptions] = None,
        context: Optional[TelemetryContext] = None,
    ) -> WamiRunReport:
        """Program a built SoC and run WAMI for ``frames`` frames.

        Builds the SoC first when ``flow_result`` is not supplied; a
        live trace then shows that build on its ``flow/*`` rows, in CAD
        minutes.
        ``power_gating`` enables the blank-after-frame policy: each tile
        erases its region once its frame work completes, and the energy
        account charges region power only for configured windows.
        ``pipelined`` overlaps consecutive frames (an extension: the
        paper processes frames without pipelining).

        Observability comes from ``instrumentation`` (falling back to
        the platform's probe). While the DES runs, the runtime writes
        each protocol step once into its step log and emits only the
        manager's lifecycle events on the bus (reconfig
        requested/started/completed/failed, driver swaps, lock waits)
        — subscribe a :class:`~repro.obs.health.HealthMonitor` for
        live watchdogs — and a live profile gets a ``deploy.<soc>``
        call-path subtree (per-event-type DES dispatch nodes charged
        the clock advances they cause, per-callback-site frames, NoC
        transfer windows). After the run, one projection of the step
        log (:func:`repro.runtime.steps.project`, also when the run
        raises) gives the recorder, on the DES clock (simulated
        seconds), the kernel-level records (lock-wait, decouple, ICAP,
        exec) and then the application-level timeline records — one
        merged Fig. 4 trace — and the profile its root-anchored
        ``runtime;*`` view; it gives the metrics registry the
        manager/PRC counters and the `RuntimeStats` gauges.
        ``prc_setup`` is called with the constructed PRC before the run
        starts — the hook for installing a targeted
        :class:`~repro.runtime.faults.RuntimeFaultModel` on
        ``prc.faults``.

        ``runtime_options`` (falling back to the platform's bundle)
        carries the runtime fault model and watchdog/recovery policy.
        The model is a *specification*: the deployment draws from a
        fresh per-run copy (:meth:`RuntimeFaultModel.fresh`), so
        repeated same-seed deploys replay the identical fault timeline.
        """
        if frames <= 0:
            raise ConfigurationError("frames must be positive")
        inst = (
            instrumentation if instrumentation is not None else self.instrumentation
        )
        # One deployment = one profile subtree: the DES dispatch, NoC
        # and runtime-recovery attributions all nest under it.
        with self._request("deploy", context), inst.frame(f"deploy.{config.name}"):
            return self._deploy_wami(
                config, flow_result, frames, app, power_gating, pipelined,
                prc_setup, inst, runtime_options,
            )

    def _deploy_wami(
        self,
        config: SocConfig,
        flow_result: Optional[FlowResult],
        frames: int,
        app: Optional[WamiApplication],
        power_gating: bool,
        pipelined: bool,
        prc_setup: Optional[Callable[[PrcDevice], None]],
        inst: Instrumentation,
        runtime_options: Optional[RuntimeFaultOptions],
    ) -> WamiRunReport:
        if flow_result is None:
            flow_result = self.flow.build(config, instrumentation=inst)
        if flow_result.config.name != config.name:
            raise ConfigurationError(
                "flow result belongs to a different SoC "
                f"({flow_result.config.name!r} vs {config.name!r})"
            )
        application = app or WamiApplication()
        ropts = (
            runtime_options if runtime_options is not None else self.runtime_options
        )
        faults = ropts.faults
        if faults is not NO_RUNTIME_FAULTS:
            faults = faults.fresh()

        sim = Simulator()
        inst.use_clock(lambda: sim.now)
        sim.attach_observability(inst)
        mesh = Mesh(
            rows=config.rows, cols=config.cols, clock_hz=DEPLOYMENT_CLOCK_HZ
        )
        mem_tile = config.tiles_of_kind(TileKind.MEM)[0]
        aux_tile = config.tiles_of_kind(TileKind.AUX)[0]
        prc_kwargs = {}
        if self.prc_fetch_bytes_per_cycle is not None:
            prc_kwargs["fetch_bytes_per_cycle"] = self.prc_fetch_bytes_per_cycle
        prc = PrcDevice(
            sim,
            mesh,
            mem_position=config.position_of(mem_tile.name),
            aux_position=config.position_of(aux_tile.name),
            clock_hz=DEPLOYMENT_CLOCK_HZ,
            instrumentation=inst,
            faults=faults,
            **prc_kwargs,
        )
        if prc_setup is not None:
            prc_setup(prc)
        store = BitstreamStore()
        store.load_flow_output(flow_result.bitstreams)
        registry = DriverRegistry()
        for profile in WAMI_ACCELERATORS.values():
            registry.install(
                AcceleratorDriver(
                    accelerator=profile.name, exec_time_s=profile.exec_time_s
                )
            )
        manager = ReconfigurationManager(
            sim,
            prc,
            store,
            registry,
            instrumentation=inst,
            recovery=ropts.recovery,
        )
        for tile in config.reconfigurable_tiles:
            manager.attach_tile(tile.name)

        api = DprUserApi(manager)
        tasks = application.tasks_for_soc(config)
        executor = AppExecutor(
            sim, api, tasks, blank_after_frame=power_gating, instrumentation=inst
        )
        timeline = runtime_stats = None
        try:
            with counted_on_read(manager.steps, inst):
                timeline = executor.run(frames=frames, pipelined=pipelined)
            runtime_stats = collect_stats(manager, failovers=executor.failovers)
        finally:
            project(manager.steps, inst, timeline, runtime_stats)

        region_kluts: Dict[str, float] = {
            assignment.rp_name: assignment.provided.lut / 1000.0
            for assignment in flow_result.floorplan.assignments
        }
        energy = measure_energy(
            timeline=timeline,
            frames=frames,
            static_kluts=config.static_luts() / 1000.0,
            region_kluts=region_kluts,
            mode_power_w=application.mode_power_w(),
            task_modes=application.task_modes(),
            model=self.power_model,
            configured_fraction=(
                manager.configured_fractions() if power_gating else None
            ),
        )
        return WamiRunReport(
            config=config,
            frames=frames,
            timeline=timeline,
            energy=energy,
            reconfigurations=manager.total_reconfigurations(),
            software_stages=tuple(application.software_stages(config)),
            runtime_stats=runtime_stats,
        )

    def monitor_wami(
        self,
        config: SocConfig,
        frames: int = 1,
        flow_result: Optional[FlowResult] = None,
        reconfig_deadline_s: float = 1.0,
        window_s: float = 60.0,
        failure_rate_degraded: float = 0.05,
        failure_rate_critical: float = 0.5,
        queue_depth_degraded: int = 4,
        instrumentation: Optional[Instrumentation] = None,
        runtime_options: Optional[RuntimeFaultOptions] = None,
        context: Optional[TelemetryContext] = None,
    ) -> Tuple[WamiRunReport, HealthReport, EventBus]:
        """Deploy WAMI with a health monitor attached (``repro monitor``).

        Subscribes a :class:`~repro.obs.health.HealthMonitor` to the
        event bus of ``instrumentation`` (falling back to the
        platform's probe; a fresh :class:`~repro.obs.events.EventBus`
        joins it when it has none), runs :meth:`deploy_wami` through
        that probe and returns the run report, the end-of-run health
        verdict, and the bus (its ring buffer holds the recent events
        for the dashboard). ``runtime_options`` (falling back to
        the platform's bundle) supplies the fault model and recovery
        policy; arm targeted faults on its model to exercise the
        failure-rate watchdog deliberately.
        """
        inst = (
            instrumentation if instrumentation is not None else self.instrumentation
        )
        if inst.events is None:
            inst = replace(inst, events=EventBus())
        bus = inst.events
        monitor = HealthMonitor(
            bus,
            window_s=window_s,
            reconfig_deadline_s=reconfig_deadline_s,
            failure_rate_degraded=failure_rate_degraded,
            failure_rate_critical=failure_rate_critical,
            queue_depth_degraded=queue_depth_degraded,
        )
        with self._request("monitor", context) as ctx:
            report = self.deploy_wami(
                config,
                flow_result=flow_result,
                frames=frames,
                instrumentation=inst,
                runtime_options=runtime_options,
                context=ctx,
            )
        return report, monitor.report(), bus
