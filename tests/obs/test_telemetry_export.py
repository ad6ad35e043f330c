"""Round-trip tests for the Prometheus metric exporter.

The Prometheus page is re-parsed with the repo's own text-format
parser and compared against the registry snapshot.
"""

import pytest

from repro import api
from repro.obs.context import TelemetryContext, activate
from repro.obs.export import (
    prometheus_name,
    prometheus_text,
    write_prometheus_text,
)
from repro.obs.instrumentation import Instrumentation
from repro.obs.metrics import MetricsRegistry

from tests.obs.prometheus import parse_prometheus_text, prometheus_samples


@pytest.fixture
def registry():
    reg = MetricsRegistry()
    counter = reg.counter("flow.jobs", "CAD jobs scheduled")
    counter.inc(3, stage="synth")
    counter.inc(2, stage="impl")
    reg.gauge("runtime.queue_depth", "per-tile queue depth").set(4, tile="rt0")
    hist = reg.histogram("runtime.reconfig_seconds", "reconfiguration latency")
    for value in (0.001, 0.004, 0.25, 3.0):
        hist.observe(value, tile="rt0")
    return reg


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
class TestPrometheusRoundTrip:
    def test_counter_values_round_trip(self, registry):
        flat = prometheus_samples(prometheus_text(registry))
        assert flat["flow_jobs_total{stage=synth}"] == 3.0
        assert flat["flow_jobs_total{stage=impl}"] == 2.0

    def test_gauge_round_trips(self, registry):
        flat = prometheus_samples(prometheus_text(registry))
        assert flat["runtime_queue_depth{tile=rt0}"] == 4.0

    def test_histogram_round_trips_against_snapshot(self, registry):
        snapshot = registry.snapshot()
        flat = prometheus_samples(prometheus_text(registry))
        base = "runtime.reconfig_seconds{tile=rt0}"
        assert flat["runtime_reconfig_seconds_count{tile=rt0}"] == snapshot[
            f"{base}.count"
        ]
        assert flat["runtime_reconfig_seconds_sum{tile=rt0}"] == pytest.approx(
            snapshot[f"{base}.sum"]
        )
        # The +Inf bucket equals the total count.
        assert flat["runtime_reconfig_seconds_bucket{le=+Inf,tile=rt0}"] == 4.0

    def test_histogram_buckets_are_cumulative(self, registry):
        flat = prometheus_samples(prometheus_text(registry))
        buckets = [
            (key, value)
            for key, value in flat.items()
            if key.startswith("runtime_reconfig_seconds_bucket")
        ]
        values = [value for _, value in buckets]
        assert values == sorted(values)
        assert values[-1] == 4.0

    def test_every_family_has_help_and_type(self, registry):
        families = parse_prometheus_text(prometheus_text(registry))
        assert families["flow_jobs"]["type"] == "counter"
        assert families["flow_jobs"]["help"] == "CAD jobs scheduled"
        assert families["runtime_queue_depth"]["type"] == "gauge"
        assert families["runtime_reconfig_seconds"]["type"] == "histogram"

    def test_total_suffix_is_idempotent(self):
        reg = MetricsRegistry()
        reg.counter("requests_total").inc(5)
        flat = prometheus_samples(prometheus_text(reg))
        assert flat == {"requests_total": 5.0}

    def test_name_sanitization(self):
        assert prometheus_name("flow.jobs-per.stage") == "flow_jobs_per_stage"
        assert prometheus_name("0weird") == "_0weird"

    def test_label_value_escaping_round_trips(self):
        reg = MetricsRegistry()
        tricky = 'a"b\\c\nd'
        reg.counter("c").inc(1, label=tricky)
        families = parse_prometheus_text(prometheus_text(reg))
        sample = families["c"]["samples"][0]
        assert sample["labels"]["label"] == tricky

    def test_context_labels_surface_in_exposition(self):
        reg = MetricsRegistry()
        with activate(TelemetryContext(request_id="r-1", tenant="acme")):
            reg.counter("c").inc()
        flat = prometheus_samples(prometheus_text(reg))
        assert flat == {"c_total{request=r-1,tenant=acme}": 1.0}

    def test_empty_registry_renders_empty_page(self):
        assert prometheus_text(MetricsRegistry()) == ""

    def test_malformed_page_rejected(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not { prometheus\n")

    def test_write_prometheus_text(self, registry, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus_text(str(path), registry)
        reparsed = prometheus_samples(path.read_text())
        assert reparsed == prometheus_samples(prometheus_text(registry))


# ----------------------------------------------------------------------
# determinism across seeded runs
# ----------------------------------------------------------------------
class TestSeededDeterminism:
    def run_once(self, small_soc):
        registry = MetricsRegistry()
        api.deploy(
            small_soc,
            frames=2,
            instrumentation=Instrumentation(metrics=registry),
        )
        return registry

    def test_two_seeded_runs_export_identically(self, small_soc):
        first = self.run_once(small_soc)
        second = self.run_once(small_soc)
        assert prometheus_text(first) == prometheus_text(second)
