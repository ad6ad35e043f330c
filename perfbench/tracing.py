"""Outside-in span tracing for the benchmark's traced runs.

Nothing under ``src/`` records these spans. :class:`SpanRecorder`
replaces a fixed list of the program's public functions (see
:data:`PROBES`) with wrappers that time each call, and puts the
originals back when the traced window ends. Each span has a name, a
start, an end, a parent (the enclosing span on the same thread) and the
op it belongs to.

The op is found in this order: the benchmark's own per-op context
variable (set around every in-process op and every client call), the
daemon's active request ID (``current_request_id()``, which a job's
attempt thread carries), and last a per-thread key that the probes on
``JobQueue.pop`` and ``Supervisor.submit`` set once they learn which
job the thread is serving. Spans a thread recorded before it learned
its key are back-filled.

Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.context import current_request_id

#: The op the calling thread works for (``op-<index>``), set by the
#: workloads around each op.
CURRENT_OP: contextvars.ContextVar[Optional[str]] = contextvars.ContextVar(
    "perfbench_op", default=None
)


#: ``(span name, module, attribute path, mode)``.
#:
#: ``mode`` is ``"span"`` (time every call), ``"count"`` (count calls
#: only, for functions whose duration means nothing or that run
#: thousands of times per op, such as a DES process constructor) or
#: ``"dequeue"`` (``JobQueue.pop``: note when a job left the queue; the
#: idle polls of a worker are not spans).
PROBES: Tuple[Tuple[str, str, str, str], ...] = (
    # flow layers, bound where DprFlow looks them up
    ("flow.build", "repro.flow.dpr_flow", "DprFlow.build", "span"),
    ("soc.partition", "repro.flow.dpr_flow", "partition_design", "span"),
    ("floorplan.plan", "repro.floorplan.flora", "FloraFloorplanner.plan", "span"),
    ("floorplan.validate", "repro.flow.dpr_flow", "validate_floorplan", "span"),
    ("core.compute_metrics", "repro.flow.dpr_flow", "compute_metrics", "span"),
    ("core.choose_strategy", "repro.flow.dpr_flow", "choose_strategy", "span"),
    ("core.plan_implementation", "repro.flow.dpr_flow", "plan_implementation", "span"),
    ("vivado.synth", "repro.vivado.tool", "VivadoInstance.synth_design", "span"),
    ("vivado.impl", "repro.vivado.tool", "VivadoInstance.implement_full", "span"),
    ("vivado.impl", "repro.vivado.tool", "VivadoInstance.implement_static", "span"),
    ("vivado.impl", "repro.vivado.tool", "VivadoInstance.implement_in_context", "span"),
    ("vivado.bitstream", "repro.vivado.tool", "VivadoInstance.write_partial_bitstream", "span"),
    ("vivado.bitstream", "repro.vivado.tool", "VivadoInstance.write_blanking_bitstream", "span"),
    ("vivado.bitstream", "repro.vivado.tool", "VivadoInstance.write_full_bitstream", "span"),
    # deploy path
    ("platform.deploy", "repro.core.platform", "PrEspPlatform.deploy_wami", "span"),
    ("wami.tasks", "repro.wami.app", "WamiApplication.tasks_for_soc", "span"),
    ("runtime.executor", "repro.runtime.executor", "AppExecutor.run", "span"),
    ("sim.run", "repro.sim.kernel", "Simulator.run", "span"),
    ("sim.process", "repro.sim.kernel", "Simulator.process", "count"),
    ("runtime.reconfigure", "repro.runtime.prc", "PrcDevice.reconfigure", "count"),
    ("prc.transfer_seconds", "repro.runtime.prc", "PrcDevice.transfer_seconds", "count"),
    ("noc.analytic", "repro.noc.analytic", "AnalyticNocModel.transfer_time_s", "count"),
    ("energy.measure", "repro.core.platform", "measure_energy", "span"),
    # service path
    ("service.submit_http", "repro.service.client", "ServiceClient.submit", "span"),
    ("service.status_http", "repro.service.client", "ServiceClient.status", "span"),
    ("service.schema", "repro.service.httpd", "validate", "span"),
    ("service.admit", "repro.service.supervisor", "Supervisor.submit", "span"),
    ("queue.submit", "repro.service.queue", "JobQueue.submit", "span"),
    ("queue.pop", "repro.service.queue", "JobQueue.pop", "dequeue"),
    ("service.store_save", "repro.service.jobs", "JobStore.save", "span"),
    ("cache.get", "repro.flow.cache", "FlowCache.get", "span"),
    ("cache.put", "repro.flow.cache", "FlowCache.put", "span"),
    ("batch.build_one", "repro.flow.batch", "BatchBuilder.build_one", "span"),
    ("obs.telemetry_record", "repro.obs.tsdb", "TelemetryStore.record", "span"),
)


class Span:
    """One timed call."""

    __slots__ = ("id", "name", "start", "end", "parent", "pass_index", "op", "thread", "hit")

    def __init__(self, span_id, name, start, parent, pass_index, op, thread) -> None:
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.pass_index = pass_index
        self.op = op
        self.thread = thread
        #: Outcome tag for calls whose cost depends on it: a FlowCache
        #: get or a build_one is a hit or a miss.
        self.hit: Optional[bool] = None

    def to_dict(self) -> Dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "pass": self.pass_index,
            "op": self.op,
            "thread": self.thread,
            "hit": self.hit,
        }


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


class SpanRecorder:
    """Installs the probes, keeps the spans, reports per-layer figures."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._counts_lock = threading.Lock()
        #: Job ID -> when ``JobQueue.submit`` returned / when
        #: ``JobQueue.pop`` handed it out: their difference is queue wait.
        self.enqueued: Dict[str, float] = {}
        self.dequeued: Dict[str, float] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []
        self._pid = os.getpid()
        #: The pass being measured; the run loop advances it. A
        #: service pass starts a fresh daemon, which mints the same job
        #: IDs again, so spans are keyed by (pass, op).
        self.pass_index = 0

    # ------------------------------------------------------------------
    def install(self) -> None:
        for name, module_name, path, mode in PROBES:
            owner, attr = _resolve(module_name, path)
            original = (
                owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            )
            self._saved.append((owner, attr, original))
            if mode == "count":
                wrapper = self._counting(name, original)
            elif mode == "dequeue":
                wrapper = self._dequeueing(original)
            else:
                wrapper = self._timing(name, original)
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.key = None
            local.unkeyed = []
        return local

    def _op_key(self, local) -> Optional[str]:
        key = CURRENT_OP.get()
        if key is None:
            key = current_request_id()
        if key is None:
            key = local.key
        return key

    def _bind(self, local, job_id: Optional[str]) -> None:
        if job_id is None:
            return
        local.key = job_id
        for span in local.unkeyed:
            if span.op is None:
                span.op = job_id
        local.unkeyed.clear()

    def _counting(self, name: str, original):
        counts = self.counts
        lock = self._counts_lock
        pid = self._pid

        def probe(*args, **kwargs):
            if os.getpid() == pid:
                with lock:  # two daemon workers may deploy at once
                    counts[name] += 1
            return original(*args, **kwargs)

        return probe

    def _dequeueing(self, original):
        recorder = self
        pid = self._pid

        def probe(*args, **kwargs):
            job_id = original(*args, **kwargs)
            if job_id is not None and os.getpid() == pid:
                recorder.dequeued[job_id] = time.perf_counter()
                recorder._bind(recorder._thread_state(), job_id)
            return job_id

        return probe

    def _timing(self, name: str, original):
        recorder = self
        pid = self._pid
        current_thread = threading.current_thread

        def probe(*args, **kwargs):
            if os.getpid() != pid:
                # A forked pool worker: its spans would die with it.
                return original(*args, **kwargs)
            local = recorder._thread_state()
            stack = local.stack
            span = Span(
                next(recorder._ids),
                name,
                time.perf_counter(),
                stack[-1].id if stack else None,
                recorder.pass_index,
                recorder._op_key(local),
                current_thread().name,
            )
            if span.op is None:
                local.unkeyed.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if name == "cache.get":
                span.hit = result is not None
            elif name == "batch.build_one":
                span.hit = bool(result.cached)
            elif name == "queue.submit":
                recorder.enqueued[args[1].job_id] = span.end
            elif name == "service.admit":
                recorder._bind(local, result.job_id)
            return result

        return probe

    # ------------------------------------------------------------------
    def queue_waits_ms(self) -> List[float]:
        return [
            (self.dequeued[job] - start) * 1000.0
            for job, start in self.enqueued.items()
            if job in self.dequeued
        ]

    def layer_times(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive and self host seconds.

        A span's self time is its duration minus the time its child
        spans (same thread, nested inside it) cover.
        """
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            row = table[span.name]
            duration = span.end - span.start
            row["calls"] += 1
            row["inclusive_s"] += duration
            row["self_s"] += duration - child_time.get(span.id, 0.0)
        return dict(table)

    def write(self, path: Path, op_of_job: Dict[Tuple[int, str], str]) -> None:
        """All spans as JSON lines, job IDs translated to op keys."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                record = span.to_dict()
                record["op"] = op_of_job.get((span.pass_index, span.op), span.op)
                handle.write(json.dumps(record) + "\n")
