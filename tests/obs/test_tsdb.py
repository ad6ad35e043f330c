"""Tests for the bounded telemetry time-series store."""

import pytest

from repro.obs.events import EventBus
from repro.obs.metrics import MetricsRegistry
from repro.obs.tsdb import Sample, TelemetryStore, TelemetryStoreError


@pytest.fixture
def store():
    return TelemetryStore()


class TestRecording:
    def test_record_dict_and_registry(self, store):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        store.record(registry)
        store.record({"c": 4.0})
        assert len(store) == 2
        assert store.latest().get("c") == 4.0

    def test_fallback_clock_counts_samples(self, store):
        first = store.record({})
        second = store.record({})
        assert (first.time, second.time) == (0.0, 1.0)

    def test_explicit_time_wins(self, store):
        assert store.record({}, time=7.25).time == 7.25

    def test_time_regression_rejected(self, store):
        store.record({}, time=5.0)
        with pytest.raises(TelemetryStoreError):
            store.record({}, time=4.0)

    def test_equal_time_allowed(self, store):
        store.record({}, time=5.0)
        assert store.record({}, time=5.0).time == 5.0

    def test_unsnapshotable_source_rejected(self, store):
        with pytest.raises(TelemetryStoreError):
            store.record(object())

    def test_ring_capacity_drop_oldest(self):
        store = TelemetryStore(capacity=3)
        for i in range(5):
            store.record({"v": float(i)})
        samples = store.samples()
        assert [s.get("v") for s in samples] == [2.0, 3.0, 4.0]
        assert store.dropped == 2
        assert store.recorded == 5

    def test_series_capacity_is_independent(self):
        store = TelemetryStore(capacity=2, series_capacity=4)
        for i in range(6):
            store.record({"v": float(i)})
        # Ring holds 2, the per-series history holds 4.
        assert len(store) == 2
        assert [v for _, v in store._series["v"]] == [2.0, 3.0, 4.0, 5.0]

    def test_bad_capacities_rejected(self):
        with pytest.raises(TelemetryStoreError):
            TelemetryStore(capacity=0)
        with pytest.raises(TelemetryStoreError):
            TelemetryStore(series_capacity=0)


class TestQueries:
    def fill(self, store):
        for t, v in [(0.0, 1.0), (1.0, 3.0), (2.0, 6.0), (3.0, 10.0)]:
            store.record({"flow.jobs": v, "runtime.gauge": v / 2}, time=t)

    def test_latest_none_when_empty(self, store):
        assert store.latest() is None
        assert store.samples() == []

    def test_to_dict(self, store):
        self.fill(store)
        doc = store.to_dict()
        assert doc["recorded"] == 4
        assert doc["buffered"] == 4
        assert doc["series"] == 2
        assert doc["span"] == [0.0, 3.0]


class TestAttach:
    def test_samples_ride_event_times(self):
        bus = EventBus()
        registry = MetricsRegistry()
        counter = registry.counter("ticks")
        store = TelemetryStore()
        store.attach(bus, registry)
        for t in (0.5, 1.5, 2.5):
            counter.inc()
            bus.emit("tick", time=t)
        assert [s.time for s in store.samples()] == [0.5, 1.5, 2.5]
        assert store.latest().get("ticks") == 3.0

    def test_interval_throttles(self):
        bus = EventBus()
        store = TelemetryStore()
        store.attach(bus, MetricsRegistry(), interval=1.0)
        for t in (0.0, 0.5, 1.0, 1.2, 2.0):
            bus.emit("tick", time=t)
        assert [s.time for s in store.samples()] == [0.0, 1.0, 2.0]

    def test_backwards_event_times_skipped(self):
        # Flow events (CAD minutes) may precede runtime events (DES
        # seconds) on a shared bus; the sampler never steps backwards.
        bus = EventBus()
        store = TelemetryStore()
        store.attach(bus, MetricsRegistry())
        bus.emit("flow", time=100.0)
        bus.emit("runtime", time=0.5)
        bus.emit("runtime", time=200.0)
        assert [s.time for s in store.samples()] == [100.0, 200.0]

    def test_unsubscribe_stops_sampling(self):
        bus = EventBus()
        store = TelemetryStore()
        sampler = store.attach(bus, MetricsRegistry())
        bus.emit("tick", time=1.0)
        bus.unsubscribe(sampler)
        bus.emit("tick", time=2.0)
        assert len(store) == 1

    def test_negative_interval_rejected(self):
        with pytest.raises(TelemetryStoreError):
            TelemetryStore().attach(EventBus(), MetricsRegistry(), interval=-1.0)


class TestSample:
    def test_get_with_default(self):
        sample = Sample(time=1.0, values={"a": 2.0})
        assert sample.get("a") == 2.0
        assert sample.get("b") == 0.0
        assert sample.get("b", default=-1.0) == -1.0
