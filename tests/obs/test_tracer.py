"""Tests for the span tracer and its disabled path."""

import pytest

from repro.obs.instrumentation import OFF
from repro.obs.tracer import Tracer, TracingError


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

    def test_context_manager(self, tracer, clock):
        with tracer.span("work", category="test", track="t/a") as span:
            clock.advance(1.0)
        assert span.duration == 1.0
        assert tracer.spans == [span]

    def test_nesting_assigns_parent(self, tracer, clock):
        with tracer.span("outer") as outer:
            clock.advance(1.0)
            with tracer.span("inner") as inner:
                clock.advance(1.0)
            clock.advance(1.0)
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
        with pytest.raises(TracingError):
            tracer.end(outer)

    def test_record_explicit_interval(self, tracer):
        span = tracer.record("job", 3.0, 7.5, category="flow.job", luts=1200)
        assert span.start == 3.0
        assert span.duration == 4.5
        assert span.attrs["luts"] == 1200

    def test_record_backwards_interval_rejected(self, tracer):
        with pytest.raises(TracingError):
            tracer.record("bad", 5.0, 4.0)

    def test_attrs_merge_on_end(self, tracer):
        span = tracer.begin("work", tile="rt0")
        tracer.end(span, failed=True)
        assert span.attrs == {"tile": "rt0", "failed": True}

    def test_exception_in_context_marks_error(self, tracer, clock):
        with pytest.raises(ValueError):
            with tracer.span("work") as span:
                raise ValueError("boom")
        assert span.attrs["error"] == "ValueError"
        assert span.closed

    def test_category_helpers(self, tracer, clock):
        with tracer.span("a", category="x"):
            clock.advance(2.0)
        with tracer.span("b", category="y"):
            clock.advance(3.0)
        assert tracer.total_duration("x") == 2.0
        assert [s.name for s in tracer.spans_in("y")] == ["b"]

    def test_use_clock_rebinds(self, tracer):
        tracer.use_clock(lambda: 42.0)
        span = tracer.begin("late")
        assert span.start == 42.0

    def test_bad_time_unit_rejected(self):
        with pytest.raises(TracingError):
            Tracer(time_unit="fortnights")


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

