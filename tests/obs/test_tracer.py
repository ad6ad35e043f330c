"""Tests for the recorder's trace export and its disabled path."""

import pytest

from repro.obs.instrumentation import OFF
from repro.obs.recorder import Recorder, RecordingError
from repro.obs.tracer import Tracer


class FakeClock:
    """A manually advanced clock for deterministic span bounds."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(clock=clock)


class TestSpans:
    def test_begin_end_stamps_clock(self, tracer, clock):
        span = tracer.begin("work", category="test")
        clock.advance(2.5)
        tracer.end(span)
        assert span.start == 0.0
        assert span.end == 2.5
        assert span.duration == 2.5
        assert span.closed

    def test_nesting_assigns_parent(self, tracer, clock):
        outer = tracer.begin("outer")
        clock.advance(1.0)
        inner = tracer.begin("inner")
        clock.advance(1.0)
        tracer.end(inner)
        clock.advance(1.0)
        tracer.end(outer)
        assert tracer.spans == [outer, inner]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert tracer.nesting_violations() == []

    def test_tracks_nest_independently(self, tracer, clock):
        a = tracer.begin("a", track="t/a")
        b = tracer.begin("b", track="t/b")
        clock.advance(1.0)
        tracer.end(a)  # closing a before b is fine: different tracks
        tracer.end(b)
        assert a.parent_id is None
        assert b.parent_id is None

    def test_unbalanced_end_rejected(self, tracer):
        outer = tracer.begin("outer")
        tracer.begin("inner")
        with pytest.raises(RecordingError):
            tracer.end(outer)

    def test_record_explicit_interval(self, tracer):
        span = tracer.record("job", 3.0, 7.5, category="flow.job", luts=1200)
        assert span.start == 3.0
        assert span.duration == 4.5
        assert span.attrs["luts"] == 1200

    def test_record_backwards_interval_rejected(self, tracer):
        with pytest.raises(RecordingError):
            tracer.record("bad", 5.0, 4.0)

    def test_attrs_merge_on_end(self, tracer):
        span = tracer.begin("work", tile="rt0")
        tracer.end(span, failed=True)
        assert span.attrs == {"tile": "rt0", "failed": True}

    def test_category_helpers(self, tracer, clock):
        a = tracer.begin("a", category="x")
        clock.advance(2.0)
        tracer.end(a)
        b = tracer.begin("b", category="y")
        clock.advance(3.0)
        tracer.end(b)
        assert tracer.total_duration("x") == 2.0
        assert [s.name for s in tracer.spans_in("y")] == ["b"]

    def test_use_clock_rebinds(self, tracer):
        tracer.use_clock(lambda: 42.0)
        span = tracer.begin("late")
        assert span.start == 42.0

    def test_bad_time_unit_rejected(self):
        with pytest.raises(RecordingError):
            Tracer(time_unit="fortnights")

    def test_a_recorder_records_something(self):
        with pytest.raises(RecordingError):
            Recorder(trace=False, profile=False)


class TestKeptRecords:
    def test_trackless_records_reach_the_fold_only(self, tracer):
        hidden = tracer.record("lock_wait", 1.0, 1.0, track=None)
        shown = tracer.record("lock_wait", 1.0, 2.0, track="kernel/rt0")
        # Ids number the kept records only, so they stay dense.
        assert tracer.spans == [shown]
        assert (hidden.span_id, shown.span_id) == (None, 0)

    def test_untraced_recorder_keeps_nothing(self):
        recorder = Recorder(trace=False)
        record = recorder.begin("work", track="t/a")
        recorder.end(record)
        assert recorder.spans == [] and record.span_id is None
        assert recorder.open_spans() == []

    def test_merge_replays_records_with_links_and_worker(self, tracer):
        worker = Tracer(time_unit="s")
        parent = worker.record("build", 0.0, 4.0, track="flow/build")
        worker.record("stage", 0.0, 1.0, track="flow/build", parent=parent)
        tracer.record("earlier", 0.0, 1.0)
        tracer.merge(worker.payload(), tag="ForkWorker-1")
        build, stage = tracer.spans[1:]
        assert stage.parent_id == build.span_id == 1
        assert build.attrs == {"worker": "ForkWorker-1"}


class TestNesting:
    def test_violation_detected(self, tracer):
        parent = tracer.record("parent", 0.0, 5.0)
        tracer.record("child", 4.0, 6.0, parent=parent)  # escapes parent
        violations = tracer.nesting_violations()
        assert len(violations) == 1
        assert "child" in violations[0]

    def test_open_spans_tracked(self, tracer):
        span = tracer.begin("open")
        assert tracer.open_spans() == [span]
        tracer.end(span)
        assert tracer.open_spans() == []


class TestNullTracer:
    def test_span_context_is_shared(self):
        # The disabled path allocates nothing per call: tracing off
        # hands out no spans and one shared frame context.
        assert OFF.tracer is None
        assert OFF.begin("a") is None
        assert OFF.record("b", 0.0, 1.0) is None
        assert OFF.frame("a") is OFF.frame("b")

