"""Tests for the metrics registry."""

import sys
import threading

import pytest

from repro.obs.instrumentation import OFF
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    MetricsError,
    MetricsRegistry,
    bucket_quantile,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_inc_and_value(self, registry):
        counter = registry.counter("requests")
        counter.inc()
        counter.inc(2.0)
        assert counter.value() == 3.0

    def test_labels_are_separate_series(self, registry):
        counter = registry.counter("invocations")
        counter.inc(tile="rt0")
        counter.inc(tile="rt0")
        counter.inc(tile="rt1")
        assert counter.value(tile="rt0") == 2.0
        assert counter.value(tile="rt1") == 1.0
        assert counter.total() == 3.0

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(MetricsError):
            registry.counter("bad").inc(-1.0)

    def test_label_order_does_not_matter(self, registry):
        counter = registry.counter("c")
        counter.inc(a="1", b="2")
        counter.inc(b="2", a="1")
        assert counter.value(a="1", b="2") == 2.0


class TestGauge:
    def test_set_overwrites(self, registry):
        gauge = registry.gauge("utilization")
        gauge.set(0.5)
        gauge.set(0.7)
        assert gauge.value() == 0.7

    def test_unset_series_reads_zero(self, registry):
        assert registry.gauge("g").value(tile="ghost") == 0.0


class TestHistogram:
    def test_count_sum_mean(self, registry):
        hist = registry.histogram("latency")
        for v in (0.1, 0.2, 0.3):
            hist.observe(v)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(0.6)
        assert hist.mean() == pytest.approx(0.2)

    def test_labeled_distributions(self, registry):
        hist = registry.histogram("wait")
        hist.observe(1.0, tile="rt0")
        hist.observe(3.0, tile="rt1")
        assert hist.count(tile="rt0") == 1
        assert hist.mean(tile="rt1") == 3.0

    def test_series_exports_min_max(self, registry):
        hist = registry.histogram("h")
        hist.observe(2.0)
        hist.observe(8.0)
        series = hist.series()
        assert series["h.min"] == 2.0
        assert series["h.max"] == 8.0
        assert series["h.count"] == 2.0

    def test_series_exports_quantiles(self, registry):
        hist = registry.histogram("h")
        for v in (0.002, 0.003, 0.004, 0.2):
            hist.observe(v)
        series = hist.series()
        assert series["h.min"] <= series["h.p50"] <= series["h.p95"]
        assert series["h.p95"] <= series["h.p99"] <= series["h.max"]

    def test_series_exports_cumulative_buckets(self, registry):
        hist = registry.histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 0.6, 5.0, 50.0):
            hist.observe(v)
        series = hist.series()
        assert series["h.bucket.le=1"] == 2.0
        assert series["h.bucket.le=10"] == 3.0
        assert series["h.bucket.le=inf"] == 4.0

    def test_quantile_method(self, registry):
        hist = registry.histogram("h")
        assert hist.quantile(0.5) is None  # no samples yet
        hist.observe(0.25)
        assert hist.quantile(0.0) == pytest.approx(0.25)
        assert hist.quantile(1.0) == pytest.approx(0.25)
        with pytest.raises(MetricsError):
            hist.quantile(1.5)

    def test_quantile_respects_labels(self, registry):
        hist = registry.histogram("h")
        hist.observe(0.1, tile="rt0")
        hist.observe(100.0, tile="rt1")
        assert hist.quantile(0.5, tile="rt0") == pytest.approx(0.1)
        assert hist.quantile(0.5, tile="rt1") == pytest.approx(100.0)


class TestBucketQuantile:
    def test_empty_distribution_is_none(self):
        assert bucket_quantile(DEFAULT_BUCKETS, [0] * 13, 0.5) is None

    def test_interpolates_within_bucket(self):
        # 10 samples in (1.0, 10.0]: the median interpolates inside it.
        counts = [0, 10, 0]
        value = bucket_quantile((1.0, 10.0), counts, 0.5)
        assert 1.0 < value < 10.0

    def test_min_max_tighten_the_estimate(self):
        counts = [0, 10, 0]
        value = bucket_quantile((1.0, 10.0), counts, 0.99, minimum=2.0, maximum=3.0)
        assert 2.0 <= value <= 3.0

    def test_overflow_bucket_uses_observed_max(self):
        counts = [0, 0, 4]  # all samples above the last bound
        value = bucket_quantile((1.0, 10.0), counts, 0.99, maximum=42.0)
        assert 10.0 <= value <= 42.0

    def test_bad_q_rejected(self):
        with pytest.raises(MetricsError):
            bucket_quantile((1.0,), [1, 0], -0.1)


class TestRegistry:
    def test_idempotent_registration(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_rejected(self, registry):
        registry.counter("x")
        with pytest.raises(MetricsError):
            registry.gauge("x")

    def test_snapshot_is_flat_and_sorted(self, registry):
        registry.counter("b").inc(tile="rt1")
        registry.counter("a").inc()
        registry.gauge("c").set(1.5, stat="s")
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["a"] == 1.0
        assert snapshot["b{tile=rt1}"] == 1.0
        assert snapshot["c{stat=s}"] == 1.5

    def test_snapshot_deterministic(self, registry):
        registry.counter("z").inc(b="2", a="1")
        registry.counter("z").inc(a="1", b="2")
        first = registry.snapshot()
        second = registry.snapshot()
        assert first == second
        assert list(first) == list(second)

    def test_merge_folds_every_kind(self, registry):
        def record(target, samples):
            target.counter("c").inc(len(samples), tile="rt1")
            target.gauge("g").set(samples[-1])
            for sample in samples:
                target.histogram("h").observe(sample, tile="rt1")

        record(registry, [0.5, 2.0])
        other = MetricsRegistry()
        record(other, [0.02, 7.0, 3.0])
        for instrument in other.instruments():
            registry.merge(instrument)
        together = MetricsRegistry()
        record(together, [0.5, 2.0, 0.02, 7.0, 3.0])
        assert registry.snapshot() == together.snapshot()

    def test_merge_into_an_empty_registry_copies(self, registry):
        other = MetricsRegistry()
        other.histogram("h", "desc", buckets=(1.0, 2.0)).observe(1.5)
        registry.merge(other.histogram("h"))
        assert registry.snapshot() == other.snapshot()
        assert registry.histogram("h").buckets == (1.0, 2.0)

    def test_merge_rejects_another_bucket_layout(self, registry):
        registry.histogram("h", buckets=(1.0,))
        other = MetricsRegistry()
        other.histogram("h", buckets=(2.0,)).observe(1.0)
        with pytest.raises(MetricsError):
            registry.merge(other.histogram("h"))


class TestNullRegistry:
    """Metrics off is the probe's ``metrics=None``: one inert instrument."""

    def test_all_operations_are_noops(self):
        counter = OFF.counter("x")
        assert counter.inc(5.0, tile="rt0") is None
        gauge = OFF.gauge("g")
        assert gauge.set(1.0) is None
        hist = OFF.histogram("h")
        assert hist.observe(1.0) is None
        assert OFF.metrics is None

    def test_shared_instrument(self):
        # One object serves every name: nothing accumulates per call.
        assert OFF.counter("a") is OFF.gauge("b")
        assert OFF.gauge("b") is OFF.histogram("c")


class TestConcurrentSnapshots:
    """Readers must survive writers adding labelled series concurrently.

    The service's workers register new ``{request=...}`` series while
    the snapshotting thread walks the registry; iterating a live dict
    there used to raise ``dictionary changed size during iteration``.
    """

    def test_reads_survive_concurrent_inserts(self, registry):
        counter = registry.counter("jobs")
        gauge = registry.gauge("depth")
        hist = registry.histogram("latency")

        def writer(tag):
            for n in range(400):
                counter.inc(job=f"{tag}{n}")
                gauge.set(n, job=f"{tag}{n}")
                hist.observe(0.01 * (n % 50), job=f"{tag}{n}")
                registry.counter(f"{tag}_{n}").inc()

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        writers = [threading.Thread(target=writer, args=(t,)) for t in "ab"]
        errors = []
        try:
            for thread in writers:
                thread.start()
            while any(thread.is_alive() for thread in writers):
                try:
                    registry.snapshot()
                    for instrument in registry.instruments():
                        instrument.items()
                except RuntimeError as error:  # pragma: no cover - the bug
                    errors.append(error)
                    break
        finally:
            for thread in writers:
                thread.join(timeout=30)
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in writers)
        assert errors == []
        snapshot = registry.snapshot()
        assert snapshot["jobs{job=a0}"] == 1.0
        assert snapshot["latency{job=b399}.count"] == 1.0
        assert list(snapshot) == sorted(snapshot)


def test_registry_collectors_run_before_every_read():
    # A source folding into the registry lazily brings it up to date
    # before any read.
    registry = MetricsRegistry()
    registry.collectors.append(lambda: registry.counter("c").inc())
    assert registry.snapshot() == {"c": 1.0}
    assert [i.name for i in registry.instruments()] == ["c"]
    assert registry.counter("c").total() == 2.0
