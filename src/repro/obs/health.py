"""The health judge: watchdog rules over the event bus, SLOs over telemetry.

The :class:`HealthMonitor` is the one place a run's health is judged.
It subscribes to a :class:`~repro.obs.events.EventBus` and folds the
runtime manager's lifecycle events into sliding windows:
reconfiguration durations, lock waits, success/failure outcomes and
per-tile lock queue depths. :meth:`HealthMonitor.report` evaluates its
rule table at one instant into a :class:`HealthReport`. Each bus rule
that fires is a :class:`HealthFinding`:

* **stuck reconfiguration** — a reconfiguration started but neither
  completed nor was abandoned, and its age *exceeds* the deadline
  (an age of exactly the deadline is still healthy): ``critical``;
* **failure rate** — failed transfer attempts over all outcomes in the
  window crossing the degraded/critical thresholds;
* **queue depth** — threads queued on one tile's lock crossing the
  threshold: ``degraded``;
* **flow degradation** — the CAD flow shipped a degraded build:
  ``degraded``;
* **runtime faults** — quarantined tiles, last-known-good fallbacks and
  scheduler failovers: ``degraded``;
* **service state** — an open admission breaker (``critical``) and
  dead-lettered jobs (``degraded``);
* **events dropped** — the bus ring overflowed while the monitor was
  attached, so the recent-event history is incomplete: ``degraded``.

Each :class:`~repro.obs.slo.SloSpec` is one more rule, over the
judge's :class:`~repro.obs.tsdb.TelemetryStore`. The judge reads the
store in one pass: a sample's SLI is computed once per spec, the first
time a report sees it, and running observation/violation counts are
kept per spec over the samples still buffered and inside the SLO
window. SLO statuses render under ``slo``, never among the findings.
One fold, :func:`_worst`, makes the bus verdict, the SLO verdict and
the overall verdict the CLI exits with and ``/healthz`` serves.

A catch-all subscription checks the bus-global ``seq`` numbers for
continuity; a discontinuity (events emitted while the monitor was not
listening, or a bus bug) is counted in ``seq_gaps``. CAD flow events
(``flow.job_retried``, ``flow.job_failed``, ``flow.degraded``) ride
the modelled CAD clock and service events no simulated clock, so both
fold into cumulative, unwindowed counters.

Window percentiles (p50/p95/p99) are interpolated from histogram
buckets, as ``Histogram.series()`` exports them. The monitor never
reads a wall clock: events carry their own (simulated) timestamps and
``report`` takes the evaluation instant explicitly. One lock guards
the event fold, the SLO counts and ``report``: a daemon's worker
threads emit while its HTTP threads ask for a verdict.
"""

from __future__ import annotations

import bisect
import enum
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import PrEspError
from repro.obs import events as ev
from repro.obs.events import Event, EventBus
from repro.obs.metrics import DEFAULT_BUCKETS, bucket_quantile
from repro.obs.slo import DEFAULT_SLOS, SloError, SloSpec
from repro.obs.tsdb import Sample, TelemetryStore


class HealthError(PrEspError):
    """Misuse of the health-monitoring API (bad window or threshold)."""


class Verdict(enum.Enum):
    """Overall health of a monitored run."""

    OK = "ok"
    DEGRADED = "degraded"
    CRITICAL = "critical"

    @property
    def rank(self) -> int:
        return ("ok", "degraded", "critical").index(self.value)

    @property
    def exit_code(self) -> int:
        """CLI exit status: 0 ok, 1 degraded, 2 critical."""
        return self.rank


def _worst(verdicts: Iterable[Verdict]) -> Verdict:
    """The one verdict fold: the most severe of ``verdicts`` (OK if none)."""
    return max(verdicts, key=lambda verdict: verdict.rank, default=Verdict.OK)


@dataclass(frozen=True)
class HealthFinding:
    """One triggered watchdog rule."""

    rule: str
    severity: Verdict
    message: str

    def __str__(self) -> str:
        return f"[{self.severity.value}] {self.rule}: {self.message}"


@dataclass(frozen=True)
class WindowStats:
    """Sliding-window distribution summary of one signal."""

    count: int
    mean: float
    minimum: float
    maximum: float
    p50: float
    p95: float
    p99: float

    @classmethod
    def from_samples(cls, samples: List[float]) -> Optional["WindowStats"]:
        """Bucket the samples and interpolate the tail quantiles.

        Returns None for an empty window — the caller renders "no
        data" instead of a fake all-zero distribution.
        """
        if not samples:
            return None
        counts = [0] * (len(DEFAULT_BUCKETS) + 1)
        for value in samples:
            counts[bisect.bisect_left(DEFAULT_BUCKETS, value)] += 1
        low, high = min(samples), max(samples)
        quantiles = {
            q: bucket_quantile(DEFAULT_BUCKETS, counts, q, minimum=low, maximum=high)
            for q in (0.50, 0.95, 0.99)
        }
        return cls(
            count=len(samples),
            mean=sum(samples) / len(samples),
            minimum=low,
            maximum=high,
            p50=quantiles[0.50],
            p95=quantiles[0.95],
            p99=quantiles[0.99],
        )


@dataclass(frozen=True)
class SloStatus:
    """One SLO rule's judgement of the samples in its window."""

    spec: SloSpec
    #: Latest SLI observation (None = no data in the window).
    sli: Optional[float]
    observations: int
    violations: int

    @property
    def burn(self) -> float:
        """Fraction of observations violating the objective."""
        return self.violations / self.observations if self.observations else 0.0

    @property
    def budget_remaining(self) -> float:
        """``1 - burn/budget``: positive = headroom, <= 0 = breached."""
        return 1.0 - self.burn / self.spec.budget

    @property
    def verdict(self) -> Verdict:
        if self.burn >= 1.0:
            # Every observation violated: the SLI never met the
            # objective at all — not just budget exhaustion.
            return Verdict.CRITICAL
        return Verdict.DEGRADED if self.budget_remaining <= 0.0 else Verdict.OK

    def to_dict(self) -> Dict:
        return {
            "name": self.spec.name,
            "description": self.spec.description,
            "objective": self.spec.objective,
            "budget": self.spec.budget,
            "verdict": self.verdict.value,
            "sli": self.sli,
            "observations": self.observations,
            "violations": self.violations,
            "burn": self.burn,
            "budget_remaining": self.budget_remaining,
        }

    def summary(self) -> str:
        unit = self.spec.unit
        if self.observations == 0:
            state = "no data"
        else:
            state = (
                f"sli={self.sli:.6g}{unit} objective<={self.spec.objective:g}{unit} "
                f"burn={self.burn * 100:.1f}% of {self.spec.budget * 100:g}% "
                f"budget ({self.budget_remaining * 100:+.1f}% left)"
            )
        return f"[{self.verdict.value}] {self.spec.name}: {state}"


#: One sample as the SLO rules see it: its time and one SLI per spec.
SliRow = Tuple[float, Tuple[Optional[float], ...]]


@dataclass(frozen=True)
class SloReport:
    """Every SLO rule's status at one instant."""

    statuses: Tuple[SloStatus, ...]
    window_s: Optional[float] = None
    #: Every buffered sample's SLIs, oldest first (the ``--follow`` replay).
    history: Tuple[SliRow, ...] = ()

    @property
    def verdict(self) -> Verdict:
        return _worst(status.verdict for status in self.statuses)

    def to_dict(self) -> Dict:
        return {
            "verdict": self.verdict.value,
            "window_s": self.window_s,
            "objectives": [status.to_dict() for status in self.statuses],
        }

    def summary_lines(self) -> List[str]:
        lines = [f"slo verdict   : {self.verdict.value.upper()}"]
        lines.extend(f"  {status.summary()}" for status in self.statuses)
        return lines

    def replay(self) -> List[Dict]:
        """One frame per buffered sample: the SLO verdict and burns after it.

        The timeline a live refresh would have shown, replayed from the
        stored SLIs (none is recomputed), starting at the oldest sample
        still buffered.
        """
        specs = tuple(status.spec for status in self.statuses)
        fold = _SloFold(specs, self.window_s, capacity=len(self.history))
        frames = []
        for time, slis in self.history:
            fold.push(time, slis)
            report = fold.report()
            burn = {status.spec.name: status.burn for status in report.statuses}
            frames.append({"time": time, "verdict": report.verdict.value, "burn": burn})
        return frames


class _SloFold:
    """Running per-spec SLO counts over the samples in one window.

    :meth:`push` takes one sample's SLIs and evicts what fell out of
    the window: samples older than ``window_s`` before the newest one,
    and the oldest beyond ``capacity`` (the store's ring).
    """

    def __init__(
        self, specs: Tuple[SloSpec, ...], window_s: Optional[float], capacity: int
    ) -> None:
        self.specs = specs
        self.window_s = window_s
        self.capacity = capacity
        self._rows: Deque[SliRow] = deque()
        self._observations = [0] * len(specs)
        self._violations = [0] * len(specs)
        self._latest: List[Optional[float]] = [None] * len(specs)

    def _count(self, slis: Tuple[Optional[float], ...], step: int) -> None:
        for index, (spec, sli) in enumerate(zip(self.specs, slis)):
            if sli is not None:
                self._observations[index] += step
                self._violations[index] += step * (sli > spec.objective)
                if step > 0:
                    self._latest[index] = sli

    def push(self, time: float, slis: Tuple[Optional[float], ...]) -> None:
        self._rows.append((time, slis))
        self._count(slis, 1)
        horizon = None if self.window_s is None else time - self.window_s
        while len(self._rows) > self.capacity or (
            horizon is not None and self._rows[0][0] < horizon
        ):
            self._count(self._rows.popleft()[1], -1)

    def report(self, history: Tuple[SliRow, ...] = ()) -> SloReport:
        # The newest SLI seen is in the window whenever any is.
        statuses = tuple(
            SloStatus(spec, latest if observations else None, observations, violations)
            for spec, observations, violations, latest in zip(
                self.specs, self._observations, self._violations, self._latest
            )
        )
        return SloReport(statuses, self.window_s, history)


@dataclass
class HealthReport:
    """One evaluation of the judge's rules."""

    #: The bus rules' verdict (``findings``); ``to_dict`` reports this one.
    verdict: Verdict
    findings: List[HealthFinding]
    #: The SLO rules' statuses and verdict.
    slo: SloReport
    #: Both folded: what the CLI exits with and ``/healthz`` serves.
    overall: Verdict
    now: float
    window_s: float
    reconfig_s: Optional[WindowStats]
    lock_wait_s: Optional[WindowStats]
    completions: int
    failures: int
    failure_rate: float
    queue_depth: Dict[str, int]
    #: Reconfigurations in flight: tile -> age in seconds at ``now``.
    active_reconfigs: Dict[str, float] = field(default_factory=dict)
    events_seen: int = 0
    events_dropped: int = 0
    #: Cumulative CAD fault-tolerance counters (modelled clock, unwindowed).
    cad_retries: int = 0
    cad_failed_jobs: List[str] = field(default_factory=list)
    dark_tiles: List[str] = field(default_factory=list)
    #: Cumulative runtime-fault counters (never windowed: a quarantine
    #: hours ago still degrades the deployment now).
    quarantined_tiles: List[str] = field(default_factory=list)
    fallbacks: int = 0
    kernel_hangs: int = 0
    failovers: int = 0
    #: Service-tier resilience state (the daemon's bus only).
    breaker_open: bool = False
    breaker_opens: int = 0
    dead_jobs: List[str] = field(default_factory=list)
    #: Bus transport state: capacity, buffered, emitted, dropped, seq_gaps.
    bus: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when no bus rule fired."""
        return self.verdict is Verdict.OK

    def to_dict(self) -> Dict:
        """JSON-serializable form (``repro monitor --json``)."""

        def window(stats: Optional[WindowStats]) -> Optional[Dict]:
            if stats is None:
                return None
            return {
                "count": stats.count,
                "mean": stats.mean,
                "min": stats.minimum,
                "max": stats.maximum,
                "p50": stats.p50,
                "p95": stats.p95,
                "p99": stats.p99,
            }

        return {
            "verdict": self.verdict.value,
            "now": self.now,
            "window_s": self.window_s,
            "findings": [
                {
                    "rule": f.rule,
                    "severity": f.severity.value,
                    "message": f.message,
                }
                for f in self.findings
            ],
            "reconfig_s": window(self.reconfig_s),
            "lock_wait_s": window(self.lock_wait_s),
            "completions": self.completions,
            "failures": self.failures,
            "failure_rate": self.failure_rate,
            "queue_depth": dict(sorted(self.queue_depth.items())),
            "active_reconfigs": dict(sorted(self.active_reconfigs.items())),
            "events_seen": self.events_seen,
            "events_dropped": self.events_dropped,
            "cad": {
                "retries": self.cad_retries,
                "failed_jobs": list(self.cad_failed_jobs),
                "dark_tiles": list(self.dark_tiles),
            },
            "runtime_faults": {
                "quarantined_tiles": list(self.quarantined_tiles),
                "fallbacks": self.fallbacks,
                "kernel_hangs": self.kernel_hangs,
                "failovers": self.failovers,
            },
            "service": {
                "breaker_open": self.breaker_open,
                "breaker_opens": self.breaker_opens,
                "dead_jobs": list(self.dead_jobs),
            },
            "bus": dict(self.bus),
        }

    def summary_lines(self) -> List[str]:
        """The text dashboard (``repro monitor``)."""

        def dist(label: str, stats: Optional[WindowStats], unit: str) -> str:
            if stats is None:
                return f"{label:14s}: no samples in window"
            return (
                f"{label:14s}: n={stats.count} mean={stats.mean:.6f}{unit} "
                f"p50={stats.p50:.6f}{unit} p95={stats.p95:.6f}{unit} "
                f"p99={stats.p99:.6f}{unit} max={stats.maximum:.6f}{unit}"
            )

        lines = [
            f"verdict       : {self.verdict.value.upper()}",
            f"window        : last {self.window_s:g}s at t={self.now:.6f}s "
            f"({self.events_seen} events, {self.events_dropped} dropped)",
        ]
        if self.bus:
            lines.append(
                f"{'bus':14s}: {self.bus.get('emitted', 0)} emitted, "
                f"{self.bus.get('buffered', 0)} buffered "
                f"(capacity {self.bus.get('capacity', 0)}), "
                f"{self.bus.get('dropped', 0)} dropped, "
                f"{self.bus.get('seq_gaps', 0)} seq gaps"
            )
        lines += [
            dist("reconfig", self.reconfig_s, "s"),
            dist("lock wait", self.lock_wait_s, "s"),
            f"{'outcomes':14s}: {self.completions} completed, "
            f"{self.failures} failed "
            f"(failure rate {self.failure_rate * 100:.1f}%)",
        ]
        if self.active_reconfigs:
            active = ", ".join(
                f"{tile} ({age:.6f}s)"
                for tile, age in sorted(self.active_reconfigs.items())
            )
            lines.append(f"{'in flight':14s}: {active}")
        depth = {t: d for t, d in sorted(self.queue_depth.items()) if d > 0}
        if depth:
            lines.append(
                f"{'lock queues':14s}: "
                + ", ".join(f"{t}={d}" for t, d in depth.items())
            )
        if self.cad_retries or self.cad_failed_jobs or self.dark_tiles:
            cad = (
                f"{'cad flow':14s}: {self.cad_retries} retried attempts, "
                f"{len(self.cad_failed_jobs)} permanent failures"
            )
            if self.dark_tiles:
                cad += f", dark tiles {', '.join(self.dark_tiles)}"
            lines.append(cad)
        if (
            self.quarantined_tiles
            or self.fallbacks
            or self.kernel_hangs
            or self.failovers
        ):
            runtime = (
                f"{'runtime faults':14s}: {self.fallbacks} fallbacks, "
                f"{self.kernel_hangs} kernel hangs, "
                f"{self.failovers} failovers"
            )
            if self.quarantined_tiles:
                runtime += f", quarantined {', '.join(self.quarantined_tiles)}"
            lines.append(runtime)
        if self.findings:
            lines.append("findings:")
            lines.extend(f"  {finding}" for finding in self.findings)
        else:
            lines.append("findings      : none")
        return lines


# The bus rules: each yields a (severity, message) pair per finding.
def _stuck_reconfigurations(monitor: "HealthMonitor", report: HealthReport):
    deadline = monitor.reconfig_deadline_s
    for tile, age in report.active_reconfigs.items():
        if age > deadline:  # exactly the deadline is still on time
            yield Verdict.CRITICAL, (
                f"{tile}: reconfiguration in flight for {age:.6f}s "
                f"(deadline {deadline:g}s)"
            )


def _failure_rate(monitor: "HealthMonitor", report: HealthReport):
    outcomes = report.completions + report.failures
    rate = report.failure_rate
    if outcomes and rate >= monitor.failure_rate_degraded:
        critical = rate >= monitor.failure_rate_critical
        yield (Verdict.CRITICAL if critical else Verdict.DEGRADED), (
            f"{report.failures}/{outcomes} transfer outcomes failed "
            f"({rate * 100:.1f}% >= {monitor.failure_rate_degraded * 100:g}%)"
        )


def _queue_depths(monitor: "HealthMonitor", report: HealthReport):
    for tile, depth in sorted(report.queue_depth.items()):
        if depth >= monitor.queue_depth_degraded:
            yield Verdict.DEGRADED, (
                f"{tile}: {depth} threads queued on the tile lock "
                f"(threshold {monitor.queue_depth_degraded})"
            )


def _dropped_while_watching(monitor: "HealthMonitor", report: HealthReport):
    dropped = report.events_dropped - monitor._dropped_at_attach
    return dropped > 0 and (
        f"{dropped} event(s) dropped from the bus ring (capacity "
        f"{monitor.bus.capacity}) while monitoring — the recent-event "
        "history is incomplete"
    )


def _once(severity: Verdict, message):
    """A rule that fires once, when ``message(monitor, report)`` is truthy."""

    def rule(monitor: "HealthMonitor", report: HealthReport):
        text = message(monitor, report)
        return ((severity, text),) if text else ()

    return rule


#: The bus rules in finding order: (rule name, rule).
RULES = (
    ("stuck-reconfiguration", _stuck_reconfigurations),
    ("failure-rate", _failure_rate),
    ("queue-depth", _queue_depths),
    ("flow-degraded", _once(Verdict.DEGRADED, lambda m, r: r.dark_tiles and (
        f"build completed without tiles {', '.join(r.dark_tiles)} (blanking bitstreams only)"
    ))),
    ("tile-quarantined", _once(Verdict.DEGRADED, lambda m, r: r.quarantined_tiles and (
        f"tiles {', '.join(r.quarantined_tiles)} quarantined after persistent runtime faults"
    ))),
    ("bitstream-fallback", _once(Verdict.DEGRADED, lambda m, r: r.fallbacks and (
        f"{r.fallbacks} reconfiguration(s) fell back to a last-known-good bitstream"
    ))),
    ("scheduler-failover", _once(Verdict.DEGRADED, lambda m, r: r.failovers and (
        f"{r.failovers} instance(s) re-planned off a quarantined tile"
    ))),
    ("breaker-open", _once(Verdict.CRITICAL, lambda m, r: r.breaker_open and (
        "the admission breaker is open: submits are being shed until recovery probes succeed"
    ))),
    ("dead-letter", _once(Verdict.DEGRADED, lambda m, r: r.dead_jobs and (
        f"jobs {', '.join(r.dead_jobs)} exhausted their attempt budgets and await a manual requeue"
    ))),
    ("events-dropped", _once(Verdict.DEGRADED, _dropped_while_watching)),
)


class HealthMonitor:
    """The health judge: bus rules and SLO rules, one verdict fold."""

    #: Event kinds the monitor subscribes to.
    KINDS = (
        ev.RECONFIG_STARTED,
        ev.RECONFIG_COMPLETED,
        ev.RECONFIG_FAILED,
        ev.RECONFIG_FALLBACK,
        ev.KERNEL_HUNG,
        ev.TILE_QUARANTINED,
        ev.SCHED_FAILOVER,
        ev.LOCK_REQUESTED,
        ev.LOCK_ACQUIRED,
        ev.CAD_JOB_RETRIED,
        ev.CAD_JOB_FAILED,
        ev.FLOW_DEGRADED,
        ev.SERVICE_JOB_DEAD,
        ev.SERVICE_JOB_REQUEUED,
        ev.SERVICE_BREAKER_OPENED,
        ev.SERVICE_BREAKER_CLOSED,
    )

    def __init__(
        self,
        bus: EventBus,
        window_s: float = 60.0,
        reconfig_deadline_s: float = 1.0,
        failure_rate_degraded: float = 0.05,
        failure_rate_critical: float = 0.5,
        queue_depth_degraded: int = 4,
        store: Optional[TelemetryStore] = None,
        slos: Sequence[SloSpec] = DEFAULT_SLOS,
        slo_window_s: Optional[float] = None,
    ) -> None:
        """``store`` is the telemetry the ``slos`` rules read, over the
        ``slo_window_s`` before the newest sample (default: all buffered).

        Without a store the judge keeps its own for one end-of-run
        snapshot (``repro monitor``). Burn over a single sample is
        all-or-nothing, so there an SLO CRITICAL adds only DEGRADED to
        the overall verdict.
        """
        if window_s <= 0:
            raise HealthError(f"window must be positive: {window_s}")
        if reconfig_deadline_s <= 0:
            raise HealthError(f"deadline must be positive: {reconfig_deadline_s}")
        if not 0.0 <= failure_rate_degraded <= failure_rate_critical <= 1.0:
            raise HealthError(
                "failure-rate thresholds must satisfy "
                f"0 <= degraded <= critical <= 1, got "
                f"{failure_rate_degraded}/{failure_rate_critical}"
            )
        if queue_depth_degraded <= 0:
            raise HealthError(f"queue-depth threshold must be positive: {queue_depth_degraded}")
        if slo_window_s is not None and slo_window_s < 0:
            raise HealthError(f"window must be >= 0: {slo_window_s}")
        names = [spec.name for spec in slos]
        if len(set(names)) != len(names):
            raise SloError(f"duplicate SLO names: {names}")
        self.bus = bus
        self.window_s = window_s
        self.reconfig_deadline_s = reconfig_deadline_s
        self.failure_rate_degraded = failure_rate_degraded
        self.failure_rate_critical = failure_rate_critical
        self.queue_depth_degraded = queue_depth_degraded
        self.store = store if store is not None else TelemetryStore()
        self.slos: Tuple[SloSpec, ...] = tuple(slos)
        self._slo_ceiling = Verdict.CRITICAL if store is not None else Verdict.DEGRADED
        self._slo = _SloFold(self.slos, slo_window_s, self.store.capacity)
        #: Every buffered sample's SLIs, mirroring the store's ring.
        self._slis: Deque[SliRow] = deque(maxlen=self.store.capacity)
        self._last_sample: Optional[Sample] = None
        self._lock = threading.Lock()

        self._active: Dict[str, float] = {}
        self._durations: Deque[Tuple[float, float]] = deque()
        self._waits: Deque[Tuple[float, float]] = deque()
        self._outcomes: Deque[Tuple[float, bool]] = deque()
        self._queue_depth: Dict[str, int] = {}
        self._cad_retries = 0
        self._cad_failed_jobs: List[str] = []
        self._dark_tiles: Tuple[str, ...] = ()
        self._quarantined: List[str] = []
        self._fallbacks = 0
        self._kernel_hangs = 0
        self._failovers = 0
        self._breaker_open = False
        self._breaker_opens = 0
        self._dead_jobs: List[str] = []
        self._last_time = 0.0
        self.events_seen = 0
        #: Ring drops already on the bus when the monitor attached —
        #: only drops *while watching* degrade the verdict.
        self._dropped_at_attach = bus.dropped
        #: Bus-seq discontinuities the catch-all subscription observed.
        self.seq_gaps = 0
        self._next_seq: Optional[int] = None
        bus.subscribe(self._on_event, kinds=self.KINDS)
        bus.subscribe(self._on_any)

    # ------------------------------------------------------------------
    def _on_any(self, event: Event) -> None:
        """Catch-all continuity check over the bus-global ``seq``."""
        with self._lock:
            if self._next_seq is not None and event.seq != self._next_seq:
                self.seq_gaps += event.seq - self._next_seq
            self._next_seq = event.seq + 1

    def _on_event(self, event: Event) -> None:
        with self._lock:
            self._fold(event)

    def _fold(self, event: Event) -> None:
        self.events_seen += 1
        kind, source, attrs = event.kind, event.source, event.attrs
        # CAD flow events carry modelled CAD minutes and service events
        # no simulated clock: both fold into cumulative state, unwindowed.
        if kind == ev.CAD_JOB_RETRIED:
            self._cad_retries += 1
        elif kind == ev.CAD_JOB_FAILED:
            self._cad_failed_jobs.append(f"{source}/{attrs.get('job', '?')}")
        elif kind == ev.FLOW_DEGRADED:
            self._dark_tiles = tuple(attrs.get("rps", ()))
        elif kind == ev.SERVICE_JOB_DEAD:
            if source not in self._dead_jobs:
                self._dead_jobs.append(source)
        elif kind == ev.SERVICE_JOB_REQUEUED:
            # A manual revive takes the job out of the dead letter.
            if attrs.get("manual") and source in self._dead_jobs:
                self._dead_jobs.remove(source)
        elif kind == ev.SERVICE_BREAKER_OPENED:
            self._breaker_open = True
            self._breaker_opens += 1
        elif kind == ev.SERVICE_BREAKER_CLOSED:
            self._breaker_open = False
        else:
            self._fold_runtime(event)

    def _fold_runtime(self, event: Event) -> None:
        kind, source, time = event.kind, event.source, event.time
        self._last_time = max(self._last_time, time)
        if kind == ev.RECONFIG_STARTED:
            self._active[source] = time
        elif kind == ev.RECONFIG_COMPLETED:
            self._active.pop(source, None)
            self._durations.append((time, float(event.attrs.get("duration_s", 0.0))))
            self._outcomes.append((time, True))
        elif kind == ev.RECONFIG_FAILED:
            if event.attrs.get("abandoned", False):
                self._active.pop(source, None)
            self._outcomes.append((time, False))
        elif kind == ev.RECONFIG_FALLBACK:
            self._fallbacks += 1
        elif kind == ev.KERNEL_HUNG:
            # A hung kernel is a failed runtime outcome for the rate rule.
            self._kernel_hangs += 1
            self._outcomes.append((time, False))
        elif kind == ev.TILE_QUARANTINED:
            if source not in self._quarantined:
                self._quarantined.append(source)
            self._active.pop(source, None)
        elif kind == ev.SCHED_FAILOVER:
            self._failovers += 1
        elif kind == ev.LOCK_REQUESTED:
            self._queue_depth[source] = self._queue_depth.get(source, 0) + 1
        elif kind == ev.LOCK_ACQUIRED:
            self._queue_depth[source] = max(0, self._queue_depth.get(source, 0) - 1)
            self._waits.append((time, float(event.attrs.get("wait_s", 0.0))))

    # ------------------------------------------------------------------
    def _prune(self, now: float) -> None:
        horizon = now - self.window_s
        for window in (self._durations, self._waits, self._outcomes):
            while window and window[0][0] < horizon:
                window.popleft()

    def _fold_samples(self) -> None:
        """Fold the samples recorded since the last report, one SLI per spec."""
        samples = self.store.samples()
        start = len(samples)  # walk back to the last sample already folded
        while start and samples[start - 1] is not self._last_sample:
            start -= 1
        for sample in samples[start:]:
            slis = tuple(spec.sli(sample) for spec in self.slos)
            self._slis.append((sample.time, slis))
            self._slo.push(sample.time, slis)
        if samples:
            self._last_sample = samples[-1]

    def report(self, now: Optional[float] = None) -> HealthReport:
        """Judge every rule at instant ``now``.

        ``now`` defaults to the latest event timestamp seen — right for
        a post-run verdict; pass the live simulation time to catch
        in-flight stalls.
        """
        with self._lock:
            if now is None:
                now = self._last_time
            self._prune(now)
            self._fold_samples()
            completions = sum(1 for _, good in self._outcomes if good)
            failures = len(self._outcomes) - completions
            report = HealthReport(
                verdict=Verdict.OK,
                findings=[],
                slo=self._slo.report(history=tuple(self._slis)),
                overall=Verdict.OK,
                now=now,
                window_s=self.window_s,
                reconfig_s=WindowStats.from_samples([d for _, d in self._durations]),
                lock_wait_s=WindowStats.from_samples([w for _, w in self._waits]),
                completions=completions,
                failures=failures,
                failure_rate=failures / len(self._outcomes) if self._outcomes else 0.0,
                queue_depth=dict(self._queue_depth),
                active_reconfigs={
                    tile: now - started for tile, started in sorted(self._active.items())
                },
                events_seen=self.events_seen,
                events_dropped=self.bus.dropped,
                cad_retries=self._cad_retries,
                cad_failed_jobs=list(self._cad_failed_jobs),
                dark_tiles=list(self._dark_tiles),
                quarantined_tiles=list(self._quarantined),
                fallbacks=self._fallbacks,
                kernel_hangs=self._kernel_hangs,
                failovers=self._failovers,
                breaker_open=self._breaker_open,
                breaker_opens=self._breaker_opens,
                dead_jobs=list(self._dead_jobs),
                bus={
                    "capacity": self.bus.capacity,
                    "buffered": len(self.bus),
                    "emitted": self._next_seq if self._next_seq is not None else 0,
                    "dropped": self.bus.dropped,
                    "seq_gaps": self.seq_gaps,
                },
            )
        report.findings = [
            HealthFinding(rule=name, severity=severity, message=message)
            for name, rule in RULES
            for severity, message in rule(self, report)
        ]
        report.verdict = _worst(finding.severity for finding in report.findings)
        slo = report.slo.verdict
        if slo.rank > self._slo_ceiling.rank:
            slo = self._slo_ceiling
        report.overall = _worst([report.verdict, slo])
        return report
