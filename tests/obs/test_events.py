"""EventBus: delivery, filtering, and the bounded ring buffer."""

import pytest

from repro.obs import events as ev
from repro.obs.events import Event, EventBus, EventBusError
from repro.obs.instrumentation import OFF, Instrumentation
from repro.obs.metrics import MetricsRegistry


class TestEmit:
    def test_emit_returns_the_event(self):
        bus = EventBus()
        event = bus.emit(ev.RECONFIG_STARTED, time=1.5, source="rt0", mode="fft")
        assert event.kind == ev.RECONFIG_STARTED
        assert event.time == 1.5
        assert event.source == "rt0"
        assert event.attrs == {"mode": "fft"}

    def test_seq_is_monotonic(self):
        bus = EventBus()
        seqs = [bus.emit("k", time=0.0).seq for _ in range(5)]
        assert seqs == [0, 1, 2, 3, 4]

    def test_time_falls_back_to_injected_clock(self):
        ticks = iter([3.0, 7.0])
        bus = EventBus(clock=lambda: next(ticks))
        assert bus.emit("k").time == 3.0
        assert bus.emit("k").time == 7.0

    def test_explicit_time_wins_over_clock(self):
        bus = EventBus(clock=lambda: 99.0)
        assert bus.emit("k", time=1.0).time == 1.0

    def test_use_clock_rebinds(self):
        bus = EventBus()
        bus.use_clock(lambda: 42.0)
        assert bus.emit("k").time == 42.0

    def test_str_rendering(self):
        event = Event(seq=0, kind="reconfig.started", time=0.25, source="rt1",
                      attrs={"mode": "fft", "b": 1})
        assert str(event) == "[0.250000] reconfig.started rt1 b=1 mode=fft"


class TestSubscribers:
    def test_subscriber_sees_all_events(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        bus.emit("a", time=0.0)
        bus.emit("b", time=1.0)
        assert [e.kind for e in seen] == ["a", "b"]

    def test_kind_filter(self):
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append, kinds=[ev.RECONFIG_FAILED])
        bus.emit(ev.RECONFIG_STARTED, time=0.0)
        bus.emit(ev.RECONFIG_FAILED, time=1.0)
        assert [e.kind for e in seen] == [ev.RECONFIG_FAILED]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        seen = []
        subscriber = bus.subscribe(seen.append)
        bus.unsubscribe(subscriber)
        bus.emit("a", time=0.0)
        assert seen == []

    def test_unsubscribe_unknown_raises(self):
        bus = EventBus()
        with pytest.raises(EventBusError):
            bus.unsubscribe(lambda e: None)

    def test_delivery_survives_ring_overflow(self):
        """The ring bounds storage, not delivery: subscribers see every
        event even after the buffer wraps."""
        bus = EventBus(capacity=2)
        seen = []
        bus.subscribe(seen.append)
        for i in range(10):
            bus.emit("k", time=float(i))
        assert len(seen) == 10
        assert len(bus) == 2


class TestRingBuffer:
    def test_capacity_must_be_positive(self):
        with pytest.raises(EventBusError):
            EventBus(capacity=0)

    def test_drop_oldest_keeps_newest(self):
        bus = EventBus(capacity=3)
        for i in range(7):
            bus.emit("k", time=float(i))
        assert [e.time for e in bus.events()] == [4.0, 5.0, 6.0]

    def test_dropped_counter(self):
        bus = EventBus(capacity=3)
        for i in range(7):
            bus.emit("k", time=float(i))
        assert bus.dropped == 4
        assert bus.emitted == 7

    def test_seq_gaps_survive_drops(self):
        """Sequence numbers are bus-global, so the oldest retained
        event reveals how much history was lost."""
        bus = EventBus(capacity=2)
        for i in range(5):
            bus.emit("k", time=float(i))
        assert [e.seq for e in bus.events()] == [3, 4]

    def test_events_filters_by_kind(self):
        bus = EventBus()
        bus.emit("a", time=0.0)
        bus.emit("b", time=1.0)
        bus.emit("a", time=2.0)
        assert [e.time for e in bus.events("a")] == [0.0, 2.0]

    def test_last(self):
        bus = EventBus()
        for i in range(5):
            bus.emit("k", time=float(i))
        assert [e.time for e in bus.last(2)] == [3.0, 4.0]
        assert bus.last(0) == []
        assert len(bus.last(100)) == 5

    def test_clear_keeps_counters_and_subscribers(self):
        bus = EventBus(capacity=2)
        seen = []
        bus.subscribe(seen.append)
        for i in range(3):
            bus.emit("k", time=float(i))
        bus.clear()
        assert len(bus) == 0
        assert bus.dropped == 1
        bus.emit("k", time=9.0)
        assert len(seen) == 4


class TestNullBus:
    """Events off is the probe's ``events=None``: emitting does nothing."""

    def test_null_bus_is_inert(self):
        OFF.use_clock(lambda: 1.0)
        assert OFF.emit("k", time=0.0, source="x", a=1) is None
        assert OFF.emit("k") is None
        assert OFF.events is None
        assert not OFF.enabled
        assert Instrumentation(events=EventBus()).enabled

    def test_null_bus_subscribe_noop(self):
        # A subscriber hears nothing from a probe whose bus is off, even
        # while the probe's other sinks are live.
        bus = EventBus()
        seen = []
        bus.subscribe(seen.append)
        probe = Instrumentation(metrics=MetricsRegistry())
        assert probe.emit("k", source="x") is None
        assert seen == []
        assert len(bus) == 0

