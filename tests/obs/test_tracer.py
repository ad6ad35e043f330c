"""Tests for the recorder's trace export and its disabled path."""

import pytest

from repro.obs.instrumentation import OFF, Instrumentation
from repro.obs.recorder import CAD_MIN, DES_S, Recorder, RecordingError
from repro.obs.tracer import Tracer


@pytest.fixture
def tracer():
    return Tracer()


class TestSpans:
    def test_record_stamps_its_clock(self, tracer):
        span = tracer.record("work", 0.0, 2.5, DES_S, category="test")
        assert (span.start, span.end, span.clock) == (0.0, 2.5, DES_S)
        assert span.duration == 2.5

    def test_nesting_assigns_parent(self, tracer):
        outer = tracer.record("outer", 0.0, 3.0, DES_S)
        inner = tracer.record("inner", 1.0, 2.0, DES_S, parent=outer)
        assert tracer.spans == [outer, inner]
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert tracer.nesting_violations() == []

    def test_tracks_nest_independently(self, tracer):
        a = tracer.record("a", 0.0, 2.0, DES_S, track="t/a")
        b = tracer.record("b", 1.0, 3.0, DES_S, track="t/b")
        # Overlapping records on two tracks are not linked: a parent is
        # only ever the one the caller names.
        assert (a.parent_id, b.parent_id) == (None, None)
        assert tracer.spans == [a, b]
        assert tracer.nesting_violations() == []

    def test_record_explicit_interval(self, tracer):
        span = tracer.record("job", 3.0, 7.5, CAD_MIN, category="flow.job", luts=1200)
        assert span.start == 3.0
        assert span.duration == 4.5
        assert span.attrs["luts"] == 1200

    def test_record_backwards_interval_rejected(self, tracer):
        with pytest.raises(RecordingError):
            tracer.record("bad", 5.0, 4.0, DES_S)

    def test_unknown_clock_rejected(self, tracer):
        with pytest.raises(RecordingError):
            tracer.record("late", 0.0, 1.0, "fortnights")

    @pytest.mark.parametrize(
        "probe",
        [Tracer(), Instrumentation(tracer=Tracer()), OFF],
        ids=["recorder", "probe", "off"],
    )
    def test_clock_has_no_default(self, probe):
        # A producer names the clock of its bounds; none is assumed.
        with pytest.raises(TypeError):
            probe.record("work", 0.0, 1.0)

    def test_category_helpers(self, tracer):
        tracer.record("a", 0.0, 2.0, DES_S, category="x")
        tracer.record("b", 2.0, 5.0, DES_S, category="y")
        assert tracer.total_duration("x") == 2.0
        assert [s.name for s in tracer.spans_in("y")] == ["b"]

    def test_a_recorder_records_something(self):
        with pytest.raises(RecordingError):
            Recorder(trace=False, profile=False)


class TestKeptRecords:
    def test_trackless_records_reach_the_fold_only(self, tracer):
        hidden = tracer.record("lock_wait", 1.0, 1.0, DES_S, track=None)
        shown = tracer.record("lock_wait", 1.0, 2.0, DES_S, track="kernel/rt0")
        # Ids number the kept records only, so they stay dense.
        assert tracer.spans == [shown]
        assert (hidden.span_id, shown.span_id) == (None, 0)

    def test_untraced_recorder_keeps_nothing(self):
        recorder = Recorder(trace=False)
        record = recorder.record("work", 0.0, 1.0, DES_S, track="t/a", path=("work",))
        assert recorder.spans == [] and record.span_id is None
        # The fold still counts it.
        assert recorder.root.children["work"].calls == 1

    def test_merge_replays_records_with_links_and_worker(self, tracer):
        worker = Tracer()
        parent = worker.record("build", 0.0, 4.0, CAD_MIN, track="flow/build")
        worker.record("stage", 0.0, 1.0, CAD_MIN, track="flow/build", parent=parent)
        tracer.record("earlier", 0.0, 1.0, DES_S)
        tracer.merge(worker.payload(), tag="ForkWorker-1")
        build, stage = tracer.spans[1:]
        assert stage.parent_id == build.span_id == 1
        assert build.attrs == {"worker": "ForkWorker-1"}
        assert build.clock == CAD_MIN


class TestNesting:
    def test_violation_detected(self, tracer):
        parent = tracer.record("parent", 0.0, 5.0, DES_S)
        tracer.record("child", 4.0, 6.0, DES_S, parent=parent)  # escapes parent
        violations = tracer.nesting_violations()
        assert len(violations) == 1
        assert "child" in violations[0]


class TestNullTracer:
    def test_span_context_is_shared(self):
        # The disabled path allocates nothing per call: tracing off
        # hands out no spans and one shared frame context.
        assert OFF.tracer is None
        assert OFF.record("b", 0.0, 1.0, DES_S) is None
        assert OFF.frame("a") is OFF.frame("b")

