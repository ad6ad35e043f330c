"""The runtime's step log and its post-run projection.

The protocol appends each step once; the trace, the ``runtime;*``
profile view and the registry are replayed from the log after the run
(:func:`repro.runtime.steps.project`), also when the run raises.
"""

import dataclasses
import hashlib
import json

import pytest

import repro.api as api
from repro.core.designs import wami_soc_y
from repro.errors import TileQuarantinedError
from repro.obs.events import EventBus
from repro.obs.export import chrome_trace_dict
from repro.obs.instrumentation import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import (
    Profiler,
    canonical_tree,
    collapsed_stacks,
    profile_document,
)
from repro.obs.recorder import Recorder
from repro.runtime import steps as st
from repro.runtime.faults import (
    PERSISTENT,
    RuntimeFaultKind,
    RuntimeFaultModel,
    RuntimeFaultOptions,
)
from repro.wami.app import WamiApplication


def step(kind, fault=None, seq=0, start=1.0, end=1.5, **fields):
    return st.Step(kind, seq, "rt0", "fft", start, end, fault=fault, **fields)


@pytest.mark.parametrize(
    "kind, fault, path",
    [
        (st.LOCK, None, "lock_wait"),
        (st.EXEC, None, "exec"),
        (st.HANG, "hang", "recovery;kernel_hang"),
        (st.RECONFIGURE, None, "reconfigure"),
        (st.RECONFIGURE, "crc", "recovery;abandon"),
        (st.BLANK, None, None),
        (st.BLANK, "crc", "recovery;abandon"),
        (st.FALLBACK, None, "recovery;fallback"),
        (st.FALLBACK, "crc", None),
        (st.RETRY, "crc", "recovery;retry"),
        (st.QUARANTINE, "crc", "recovery;quarantine"),
        (st.TRANSFER, None, None),
    ],
)
def test_runtime_view_rule(kind, fault, path):
    profiler = Profiler()
    log = st.StepLog()
    log.append(step(kind, fault))
    with profiler.frame("deploy.soc"):
        st.project(log, Instrumentation(profiler=profiler))
    shares = collapsed_stacks(profile_document(profiler), weight="calls")
    assert [s for s in shares if s.startswith("runtime")] == (
        [] if path is None else [f"runtime;{path} 1"]
    )


def test_trace_numbers_by_begin_and_fold_charges_by_close():
    # rt0's execution began first and closed last.
    log = st.StepLog()
    first, second = log.ticket(), log.ticket()
    log.append(st.Step(st.EXEC, second, "rt1", "b", 1.0, 2.0, sim_s=0.1))
    log.append(st.Step(st.EXEC, first, "rt0", "a", 0.0, 3.0, sim_s=0.2))
    recorder = Recorder()
    st.project(log, Instrumentation(recorder=recorder))
    assert [(r.name, r.span_id) for r in recorder.spans] == [("a", 0), ("b", 1)]
    (runtime,) = profile_document(recorder)["tree"]["children"]
    assert runtime["children"][0]["self_sim_s"] == 0.1 + 0.2
    assert runtime["children"][0]["calls"] == 2


def test_an_off_probe_is_left_alone():
    log = st.StepLog()
    log.append(step(st.EXEC, sim_s=0.5))
    st.project(log, Instrumentation())  # nothing to write, nothing raised


class NoSoftwareFallback(WamiApplication):
    """WAMI with no software fallback: a quarantined stage cannot run."""

    def tasks_for_soc(self, config):
        return [
            dataclasses.replace(task, sw_duration_s=None)
            for task in super().tasks_for_soc(config)
        ]


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


#: What the runtime recorded live, for the same deploy, before its
#: records became a post-run projection: the registry snapshot, the
#: profile (host time stripped) and the Chrome trace without the
#: kernel's cancelled:* instants (which stay live and so now number
#: before the runtime's records).
RAISED = {
    "metrics": "4fd00d0830ec19706c8603c1cff69334eed57a3c24e254d062310a90f955054d",
    "profile": "69b4d15449e32a8948bcfc92e24f301cb9a6969b39201ca58ddb72d01d31f3b8",
    "trace": "676339803aaefd199d4455a5a679827500817f1f9f5c8106ea017cd5fdf8a3ea",
}


def test_a_deploy_that_raises_reports_the_steps_it_completed():
    probe = Instrumentation(
        recorder=Recorder(), metrics=MetricsRegistry(), events=EventBus()
    )
    model = RuntimeFaultModel()
    model.inject(
        "rt1", "change_detection", RuntimeFaultKind.BITSTREAM_CORRUPTION,
        count=PERSISTENT,
    )
    with pytest.raises(TileQuarantinedError):
        api.deploy(
            wami_soc_y(),
            frames=2,
            app=NoSoftwareFallback(),
            instrumentation=probe,
            runtime_options=RuntimeFaultOptions(faults=model),
        )
    snapshot = probe.metrics.snapshot()
    assert snapshot["runtime.quarantines{tile=rt1}"] == 1
    assert snapshot["runtime.invocations{tile=rt1}"] > 0
    assert snapshot["prc.transfer_failures{tile=rt1}"] > 0
    # A run that raised has no timeline and no statistics to publish.
    assert not [key for key in snapshot if key.startswith("runtime.totals")]
    events = chrome_trace_dict(probe.tracer)["traceEvents"]
    assert not [e for e in events if e.get("cat", "").startswith("app.")]
    kept = [e for e in events if e.get("cat") != "kernel.cancelled"]
    observed = {
        "metrics": snapshot,
        "profile": canonical_tree(profile_document(probe.profiler)),
        "trace": [
            {**e, "args": {k: v for k, v in e["args"].items() if k != "span_id"}}
            for e in kept
        ],
    }
    assert {name: _digest(value) for name, value in observed.items()} == RAISED


def test_a_registry_read_mid_run_counts_the_steps_so_far():
    # The dashboard's telemetry store samples the registry on each
    # event: every completed reconfiguration must already be counted.
    registry = MetricsRegistry()
    bus = EventBus()
    seen = []

    def sample(event):
        series = registry.snapshot().items()
        counts = [v for k, v in series if k.startswith("runtime.reconfigurations{")]
        seen.append(sum(counts))

    bus.subscribe(sample, kinds=("reconfig.completed",))
    probe = Instrumentation(metrics=registry, events=bus)
    report = api.deploy(wami_soc_y(), frames=2, instrumentation=probe)
    assert seen == list(range(1, report.reconfigurations + 1))
    assert registry.collectors == []

