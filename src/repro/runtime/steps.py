"""The runtime's one record: each protocol step, appended once.

The manager, the PRC and the executor write a deployment into one
:class:`StepLog`, one :class:`Step` per protocol step as it closes: a
lock wait, a decouple window, a transfer attempt, an execution, a hang,
a retry, a quarantine, a software task, a power-gating blank. Only the
manager's events are emitted live (a health monitor judges the run as
it goes). The invocations, transfer records, timeline and statistics
are folds of the log, and :func:`project` replays it after the run into
the probe's recorder and registry.
"""

from __future__ import annotations

import functools
import itertools
from operator import attrgetter
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional

from repro.noc.analytic import flit_count
from repro.obs.instrumentation import Instrumentation
from repro.obs.recorder import DES_S

if TYPE_CHECKING:  # the report views are built by the layers above
    from repro.runtime.executor import ExecutionTimeline
    from repro.runtime.stats import RuntimeStats

# Step kinds. A lock wait runs from the request to the acquisition; a
# decouple window (reconfigure, blank, fallback) while the tile is dark;
# a transfer is one ICAP attempt (fault ``crc``/``stuck``); an execution
# is the attempt that completed an invocation, a hang one the watchdog
# caught (fault ``abandoned`` for the last one allowed, else ``hang``);
# a retry charges its backoff as ``sim_s``; a quarantine's fault is what
# tipped the tile. Executor steps name the worker as ``tile`` and the
# task instance as ``mode``.
LOCK, TRANSFER, EXEC, HANG, RETRY = "lock", "transfer", "exec", "hang", "retry"
RECONFIGURE, BLANK, FALLBACK = "reconfigure", "blank", "fallback"
WINDOWS = (RECONFIGURE, BLANK, FALLBACK)
QUARANTINE, SOFTWARE, GATE = "quarantine", "sw", "gate"

#: Where the profile's root-anchored view counts a step, by ``(kind, failed)``.
VIEW = {
    (LOCK, False): ("runtime", "lock_wait"),
    (EXEC, False): ("runtime", "exec"),
    (RECONFIGURE, False): ("runtime", "reconfigure"),
    (RECONFIGURE, True): ("runtime", "recovery", "abandon"),
    (BLANK, True): ("runtime", "recovery", "abandon"),
    (FALLBACK, False): ("runtime", "recovery", "fallback"),
    (HANG, True): ("runtime", "recovery", "kernel_hang"),
    (RETRY, True): ("runtime", "recovery", "retry"),
    (QUARANTINE, True): ("runtime", "recovery", "quarantine"),
}

#: The counters a step adds one to on its tile, by ``(kind, failed)``:
#: the registry's, and the runtime's fault tallies (:attr:`Folded.faults`).
COUNTED = {
    (EXEC, False): ("runtime.invocations",),
    (TRANSFER, False): ("prc.transfers",),
    (TRANSFER, True): ("prc.transfer_failures",),
    (RECONFIGURE, False): ("runtime.reconfigurations",),
    (BLANK, False): ("runtime.reconfigurations",),
    (FALLBACK, False): ("runtime.reconfigurations", "runtime.fallbacks"),
    # A failed window's last transfer attempt failed.
    (RECONFIGURE, True): ("runtime.reconfig_failures", "runtime.failed_attempts"),
    (BLANK, True): ("runtime.reconfig_failures", "runtime.failed_attempts"),
    (FALLBACK, True): ("runtime.failed_attempts",),
    (RETRY, True): ("runtime.reconfig_retries", "runtime.failed_attempts"),
    (HANG, True): ("runtime.kernel_hangs",),
    (QUARANTINE, True): ("runtime.quarantines",),
}

#: Help text of the registry instruments the steps feed.
HELP = {
    "runtime.lock_wait_s": "queueing delay before tile acquisition",
    "runtime.invocations": "completed accelerator invocations",
    "runtime.reconfigurations": "completed tile reconfigurations",
    "runtime.reconfig_seconds": "end-to-end reconfiguration latency",
    "runtime.fallbacks": "fallbacks to a last-known-good bitstream",
    "runtime.reconfig_failures": "reconfigurations abandoned after retries",
    "runtime.reconfig_retries": "transfer retries after CRC errors",
    "runtime.failed_attempts": "failed bitstream transfer attempts",
    "runtime.kernel_hangs": "hung invocations caught by the watchdog",
    "runtime.hang_abandons": "invocations abandoned after repeated hangs",
    "runtime.quarantines": "tiles quarantined after persistent failures",
    "prc.transfers": "completed bitstream transfers",
    "prc.transfer_failures": "transfers ending in a CRC error",
    "prc.icap_busy_s": "time the ICAP spent streaming",
    "noc.bytes": "payload bytes crossing the NoC",
    "noc.flits": "flits crossing the NoC",
}


class Step(NamedTuple):
    """One protocol step."""

    kind: str
    #: Where the trace numbers the step: windows and executions draw
    #: theirs when they open, every other step when it is appended.
    seq: int
    tile: str
    mode: str
    start: float
    end: float
    #: Bitstream bytes of a window or transfer.
    size: int = 0
    #: Simulated seconds the profile charges (None: ``end - start``).
    sim_s: Optional[float] = None
    #: Why the step failed (None: it did not).
    fault: Optional[str] = None


#: Builds a named tuple from all its fields in one C call, not through
#: its Python constructor: the hot protocol steps and the views folded
#: from the log number in the hundreds per deployment.
build = tuple.__new__


class StepLog(list):
    """One deployment's steps, in the order they closed; ``ticket()``
    hands out the ``seq`` each carries (drawn when the step opens)."""

    def __init__(self) -> None:
        super().__init__()
        self.ticket = itertools.count().__next__
        #: How many steps the registry has counted (see :func:`count`).
        self.counted = 0
        self._folded = (0, None)

    def folded(self) -> "Folded":
        """The log's views (read-only), folded again once the log grew."""
        if self._folded[1] is None or self._folded[0] != len(self):
            self._folded = (len(self), fold_steps(self))
        return self._folded[1]


class InvocationRecord(NamedTuple):
    """Telemetry of one accelerator invocation (a :func:`fold_steps` view)."""

    tile_name: str
    mode_name: str
    requested_s: float
    reconfig_s: float  # time spent reconfiguring (0 when already loaded)
    start_exec_s: float
    end_exec_s: float
    #: Failed transfer attempts this invocation rode through (the
    #: user-facing ``degraded`` signal).
    failed_attempts: int = 0
    #: Hung execution attempts the watchdog restarted before success.
    hang_attempts: int = 0

    @property
    def exec_time_s(self) -> float:
        """Accelerator execution time (including hung attempts)."""
        return self.end_exec_s - self.start_exec_s

    @property
    def wait_s(self) -> float:
        """Queueing delay before the tile was acquired."""
        return self.start_exec_s - self.reconfig_s - self.requested_s


class Folded(NamedTuple):
    """The runtime's views of a step log (see :func:`fold_steps`)."""

    #: Completed invocations by their execution's ``seq``, in order.
    invocations: Dict[int, InvocationRecord]
    #: Executions, software tasks and gating blanks, in log order.
    tasks: List[Step]
    #: Completed transfers, in log order.
    transfers: List[Step]
    #: ``{counter: {tile: count}}`` of the :data:`COUNTED` counters over
    #: the failed steps and fallbacks (complete for the fault counters).
    faults: Dict[str, Dict[str, int]]


def fold_steps(steps: List[Step]) -> Folded:
    """The runtime's views of the log, in one pass: a tile's steps run
    under its lock, so an invocation is the run of its steps from a lock
    wait to an execution (one that raised has none)."""
    open_: Dict[str, list] = {}
    records: Dict[int, InvocationRecord] = {}
    tasks: List[Step] = []
    transfers: List[Step] = []
    faults: Dict[str, Dict[str, int]] = {}
    for step in steps:
        kind, fault = step.kind, step.fault
        if kind is LOCK:
            # [requested, reconfig_s, first attempt, failed, hangs]
            open_[step.tile] = [step.start, 0.0, None, 0, 0]
        elif kind is EXEC:
            tasks.append(step)
            pending = open_.pop(step.tile, None)
            if pending is not None:
                requested, reconfig_s, first, failures, hung = pending
                start = step.start if first is None else first
                records[step.seq] = build(
                    InvocationRecord,
                    (step.tile, step.mode, requested, reconfig_s, start, step.end,
                     failures, hung),
                )
        elif kind is TRANSFER and fault is None:
            transfers.append(step)
        elif kind is SOFTWARE or kind is GATE:
            tasks.append(step)
        else:
            pending = open_.get(step.tile)
            if pending is not None:
                if kind is RECONFIGURE:
                    pending[1] = step.end - step.start
                elif kind is RETRY:
                    pending[3] += 1
                elif kind is HANG:
                    if pending[2] is None:
                        pending[2] = step.start
                    pending[4] += 1
            if fault is not None or kind is FALLBACK:
                for name in COUNTED.get((kind, fault is not None), ()):
                    per_tile = faults.setdefault(name, {})
                    per_tile[step.tile] = per_tile.get(step.tile, 0) + 1
    return Folded(records, tasks, transfers, faults)


# ----------------------------------------------------------------------
# the projection
# ----------------------------------------------------------------------
def _trace_record(step: Step):
    """``(name, category, track, attrs)`` of the step's trace record, if
    the trace keeps one (not for a lock taken at once, a retry, a
    quarantine or an executor step)."""
    kind, tile, mode, size = step.kind, step.tile, step.mode, step.size
    failed = {} if step.fault is None else {"failed": True}
    if kind is TRANSFER:
        attrs = {"tile": tile, "mode": mode, "size_bytes": size}
        if step.fault is None:
            return f"{tile}/{mode}", "kernel.icap", "kernel/icap", attrs
        attrs["reason"] = step.fault
        return f"{tile}/{mode}", "kernel.icap-error", "kernel/icap", attrs
    track = f"kernel/{tile}"
    if kind is EXEC or kind is HANG:
        return mode, "kernel.exec", track, {"tile": tile, "mode": mode, **failed}
    if kind is LOCK and step.end > step.start:
        return "lock_wait", "kernel.lock-wait", track, {"mode": mode}
    if kind is RECONFIGURE or kind is FALLBACK:
        attrs = {"mode": mode, "size_bytes": size, **failed}
        return f"{kind}:{mode}", "kernel.decouple", track, attrs
    if kind is BLANK:
        return "blank", "kernel.decouple", track, {"size_bytes": size, **failed}
    return None


def _count(probe: Instrumentation, step: Step) -> None:
    """Account one step on the runtime, PRC and NoC instruments."""
    kind, tile, fault = step.kind, step.tile, step.fault
    length = step.end - step.start
    for name in COUNTED.get((kind, fault is not None), ()):
        probe.counter(name, HELP[name]).inc(tile=tile)
    if kind is LOCK:
        name = "runtime.lock_wait_s"
        probe.histogram(name, HELP[name]).observe(length, tile=tile)
    elif kind in WINDOWS and fault is None:
        name = "runtime.reconfig_seconds"
        probe.histogram(name, HELP[name]).observe(length, tile=tile)
    elif kind is HANG and fault == "abandoned":
        name = "runtime.hang_abandons"
        probe.counter(name, HELP[name]).inc(tile=tile)
    elif kind is TRANSFER:
        if fault != "stuck":
            probe.counter("noc.bytes", HELP["noc.bytes"]).inc(step.size, source="prc")
            flits = flit_count(step.size)
            probe.counter("noc.flits", HELP["noc.flits"]).inc(flits, source="prc")
        if fault is None:
            probe.counter("prc.icap_busy_s", HELP["prc.icap_busy_s"]).inc(length)


def _publish(probe: Instrumentation, stats: "RuntimeStats") -> None:
    """The report's :class:`RuntimeStats` as ``runtime.totals``/``runtime.tile``."""
    totals = probe.gauge("runtime.totals", "whole-SoC aggregates of one deployment")
    for stat, value in (
        ("invocations", stats.total_invocations),
        ("reconfigurations", stats.total_reconfigurations),
        ("failed_attempts", stats.failed_attempts),
        ("icap_busy_s", stats.icap_busy_s),
        ("span_s", stats.span_s),
        ("icap_utilization", stats.icap_utilization),
    ):
        totals.set(value, stat=stat)
    tile_gauge = probe.gauge("runtime.tile", "per-tile aggregates")
    for tile in stats.tiles.values():
        for stat, value in (
            ("invocations", tile.invocations),
            ("reconfigurations", tile.reconfigurations),
            ("failed_attempts", tile.failed_attempts),
            ("exec_s", tile.exec_time_s),
            ("reconfig_s", tile.reconfig_time_s),
            ("wait_s", tile.wait_time_s),
            ("reconfig_share", tile.reconfig_share),
            ("mean_wait_s", tile.mean_wait_s),
        ):
            tile_gauge.set(value, tile=tile.tile_name, stat=stat)


def project(
    steps: StepLog,
    instrumentation: Instrumentation,
    timeline: Optional["ExecutionTimeline"] = None,
    stats: Optional["RuntimeStats"] = None,
) -> None:
    """Replay a run's steps into the probe's recorder and registry.

    The trace keeps the steps' records in the order they began
    (``seq``); the profile's ``runtime;*`` view and the registry count
    them in the order they closed. A finished run adds its ``timeline``
    (the ``app/<worker>`` records) and ``stats`` (gauges).
    """
    recorder = instrumentation.recorder
    if recorder is not None and recorder.trace:
        for step in sorted(steps, key=attrgetter("seq")):
            record = _trace_record(step)
            if record is not None:
                name, category, track, attrs = record
                instrumentation.record(
                    name, step.start, step.end, DES_S, category, track, **attrs
                )
        for event in timeline.events if timeline is not None else ():
            instrumentation.record(
                event.task, event.start_s, event.end_s, DES_S, f"app.{event.kind}",
                f"app/{event.worker}", worker=event.worker, kind=event.kind,
            )
    if recorder is not None and recorder.profile:
        for step in steps:
            path = VIEW.get((step.kind, step.fault is not None))
            if path is not None:
                sim_s = step.sim_s
                recorder.tally(path, step.end - step.start if sim_s is None else sim_s)
    if instrumentation.metrics is not None:
        count(steps, instrumentation)
        if stats is not None:
            _publish(instrumentation, stats)


def count(steps: StepLog, instrumentation: Instrumentation) -> None:
    """Count the steps the probe's registry has not counted yet."""
    for step in steps[steps.counted:]:
        _count(instrumentation, step)
    steps.counted = len(steps)


class counted_on_read:
    """While the block runs, a read of the probe's registry counts the
    steps logged so far first: a reader sampling it on the event stream
    (the dashboard's telemetry store) sees the run as of each event."""

    def __init__(self, steps: StepLog, instrumentation: Instrumentation) -> None:
        self.registry = instrumentation.metrics
        self.collector = functools.partial(count, steps, instrumentation)

    def __enter__(self) -> None:
        if self.registry is not None:
            self.registry.collectors.append(self.collector)

    def __exit__(self, *exc_info) -> None:
        if self.registry is not None:
            self.registry.collectors.remove(self.collector)
