"""The probe: one instrumentation value with optional sinks."""

import pytest

from repro.obs.events import EventBus
from repro.obs.instrumentation import NO_FRAME, OFF, Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import canonical_tree, profile_document
from repro.obs.recorder import CAD_MIN, DES_S, Recorder, RecordingError


def _tracer_calls(probe):
    return [
        probe.record("work", 0.0, 1.0, DES_S, category="x", track="t/a", failed=True),
        probe.record("b", 0.0, 1.0, DES_S),
    ]


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
    assert probe.frame("a") is probe.frame("b") is NO_FRAME
    with probe.frame("y") as frame:
        result = frame.charge(1.0)
    return [result, probe.record("z", 0.0, 0.0, DES_S, track=None, path=("z",))]


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
        recorder=Recorder(host_clock=lambda: 0.0),
        metrics=MetricsRegistry(),
        events=EventBus(),
    )
    probe.use_clock(lambda: 2.0)
    span = probe.record("stage", 2.0, 2.0, CAD_MIN, category="flow.stage", ok=True)
    probe.record("job", 0.0, 1.0, CAD_MIN, category="flow.job", parent=span)
    probe.counter("c").inc(2.0, stage="s")
    probe.gauge("g").set(3.0)
    probe.histogram("h").observe(0.5)
    event = probe.emit("k", source="x", a=1)
    with probe.frame("outer") as frame:
        frame.charge(4.0)
        # A record without a track reaches the fold only, at its
        # explicit path under the open frame; a tally lands under the
        # root whatever frame is open.
        probe.record("inner", 0.0, 1.0, CAD_MIN, track=None, sim_s=1.0, path=("inner",))
        probe.profiler.tally(("runtime", "recovery", "retry"), 2.0)

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
                "children": [
                    {
                        "name": "recovery",
                        "calls": 0,
                        "sim_s": 0.0,
                        "children": [{"name": "retry", "calls": 1, "sim_s": 2.0}],
                    }
                ],
            },
        ],
    }


def test_one_recorder_per_probe():
    # The trace and the profile are two exports of one recorder.
    recorder = Recorder()
    probe = Instrumentation(tracer=recorder, profiler=recorder)
    assert probe.recorder is probe.tracer is probe.profiler is recorder
    with pytest.raises(RecordingError):
        Instrumentation(tracer=Recorder(), profiler=Recorder())

