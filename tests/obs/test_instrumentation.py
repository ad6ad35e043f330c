"""The probe: one instrumentation value with optional sinks."""

import pytest

from repro.obs.events import EventBus
from repro.obs.instrumentation import OFF, Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler, canonical_tree, profile_document
from repro.obs.tracer import Tracer


def _tracer_calls(probe):
    span = probe.begin("work", category="x", track="t/a")
    return [span, probe.end(span, failed=True), probe.record("b", 0.0, 1.0)]


def _metrics_calls(probe):
    counter = probe.counter("c")
    gauge = probe.gauge("g")
    histogram = probe.histogram("h")
    # One shared instrument serves every name: nothing accumulates.
    assert counter is gauge is histogram
    return [counter.inc(5.0, tile="rt0"), gauge.set(1.0), histogram.observe(1.0)]


def _events_calls(probe):
    probe.use_clock(lambda: 1.0)
    return [probe.emit("k", time=0.0, source="x", a=1), probe.emit("k")]


def _profiler_calls(probe):
    # The off frame is one shared context: nothing is allocated per call.
    assert probe.frame("a") is probe.frame("b")
    with probe.frame("y") as frame:
        result = probe.add_sim(1.0)
    return [frame, result, probe.leaf("z", sim_s=1.0), probe.leaf(("r",), anchor="root")]


@pytest.mark.parametrize(
    "sink, calls",
    [
        ("tracer", _tracer_calls),
        ("metrics", _metrics_calls),
        ("events", _events_calls),
        ("profiler", _profiler_calls),
    ],
    ids=["tracer", "metrics", "events", "profiler"],
)
def test_off_sink_is_inert(sink, calls):
    assert getattr(OFF, sink) is None
    assert all(result is None for result in calls(OFF))


def test_off_is_the_default_probe():
    assert Instrumentation() == OFF
    assert not OFF.enabled
    assert Instrumentation(events=EventBus()).enabled


def test_operations_reach_the_live_sinks():
    probe = Instrumentation(
        tracer=Tracer(time_unit="min"),
        metrics=MetricsRegistry(),
        events=EventBus(),
        profiler=Profiler(host_clock=lambda: 0.0),
    )
    probe.use_clock(lambda: 2.0)
    span = probe.begin("stage", category="flow.stage")
    probe.end(span, ok=True)
    probe.record("job", 0.0, 1.0, category="flow.job", parent=span)
    probe.counter("c").inc(2.0, stage="s")
    probe.gauge("g").set(3.0)
    probe.histogram("h").observe(0.5)
    event = probe.emit("k", source="x", a=1)
    with probe.frame("outer"):
        probe.add_sim(4.0)
        probe.leaf("inner", sim_s=1.0)
    probe.leaf(("runtime", "retry"), sim_s=2.0, anchor="root")

    assert [(s.name, s.start, s.end) for s in probe.tracer.spans] == [
        ("stage", 2.0, 2.0),
        ("job", 0.0, 1.0),
    ]
    assert probe.tracer.spans[0].attrs == {"ok": True}
    assert probe.tracer.spans[1].parent_id == span.span_id
    snapshot = probe.metrics.snapshot()
    assert snapshot["c{stage=s}"] == 2.0
    assert snapshot["g"] == 3.0
    assert snapshot["h.count"] == 1.0
    assert (event.kind, event.time, event.source, event.attrs) == ("k", 2.0, "x", {"a": 1})
    assert canonical_tree(profile_document(probe.profiler)) == {
        "name": "root",
        "calls": 0,
        "sim_s": 0.0,
        "children": [
            {
                "name": "outer",
                "calls": 1,
                "sim_s": 4.0,
                "children": [{"name": "inner", "calls": 1, "sim_s": 1.0}],
            },
            {
                "name": "runtime",
                "calls": 0,
                "sim_s": 0.0,
                "children": [{"name": "retry", "calls": 1, "sim_s": 2.0}],
            },
        ],
    }
