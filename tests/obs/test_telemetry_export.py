"""Round-trip tests for the Prometheus / OTLP metric exporters.

The Prometheus page is re-parsed with the repo's own text-format
parser and compared against the registry snapshot; the OTLP JSONL
envelopes are validated against the checked-in shape contract in
``tests/obs/data/otlp_schema.json`` with a hand-rolled subset-of-JSON-
Schema validator (no third-party validator in the container).
"""

import json
import re
from pathlib import Path

import pytest

from repro import api
from repro.obs.context import TelemetryContext, activate
from repro.obs.export import (
    otlp_metrics_dict,
    otlp_metrics_lines,
    parse_prometheus_text,
    prometheus_name,
    prometheus_samples,
    prometheus_text,
    write_otlp_jsonl,
    write_prometheus_text,
)
from repro.obs.instrumentation import Instrumentation
from repro.obs.metrics import MetricsRegistry

SCHEMA_PATH = Path(__file__).parent / "data" / "otlp_schema.json"


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
        assert otlp_metrics_lines(MetricsRegistry()) == []

    def test_malformed_page_rejected(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not { prometheus\n")

    def test_write_prometheus_text(self, registry, tmp_path):
        path = tmp_path / "metrics.prom"
        write_prometheus_text(str(path), registry)
        reparsed = prometheus_samples(path.read_text())
        assert reparsed == prometheus_samples(prometheus_text(registry))


# ----------------------------------------------------------------------
# OTLP JSONL against the checked-in schema
# ----------------------------------------------------------------------
def _resolve(schema, root):
    ref = schema.get("$ref")
    if ref is None:
        return schema
    assert ref.startswith("#/"), f"only local refs supported: {ref}"
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def _validate(instance, schema, root, path="$"):
    """Subset JSON-Schema validator: type/required/properties/items/enum/pattern/oneOf/$ref."""
    errors = []
    schema = _resolve(schema, root)
    if "enum" in schema and instance not in schema["enum"]:
        errors.append(f"{path}: {instance!r} not in {schema['enum']}")
    expected = schema.get("type")
    checks = {
        "object": lambda v: isinstance(v, dict),
        "array": lambda v: isinstance(v, list),
        "string": lambda v: isinstance(v, str),
        "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "boolean": lambda v: isinstance(v, bool),
    }
    if expected is not None and not checks[expected](instance):
        return errors + [f"{path}: expected {expected}, got {type(instance).__name__}"]
    if "pattern" in schema and isinstance(instance, str):
        if not re.search(schema["pattern"], instance):
            errors.append(f"{path}: {instance!r} !~ {schema['pattern']}")
    if isinstance(instance, dict):
        for name in schema.get("required", ()):
            if name not in instance:
                errors.append(f"{path}: missing required key {name!r}")
        for name, subschema in schema.get("properties", {}).items():
            if name in instance:
                errors.extend(
                    _validate(instance[name], subschema, root, f"{path}.{name}")
                )
    if isinstance(instance, list) and "items" in schema:
        for index, item in enumerate(instance):
            errors.extend(
                _validate(item, schema["items"], root, f"{path}[{index}]")
            )
    if "oneOf" in schema:
        matches = sum(
            1
            for option in schema["oneOf"]
            if not _validate(instance, option, root, path)
        )
        if matches != 1:
            errors.append(f"{path}: matched {matches} of oneOf, expected exactly 1")
    return errors


def assert_valid(instance, schema):
    errors = _validate(instance, schema, schema)
    assert not errors, "\n".join(errors)


@pytest.fixture(scope="module")
def schema():
    return json.loads(SCHEMA_PATH.read_text())


class TestOtlpExport:
    def test_single_document_validates(self, registry, schema):
        assert_valid(otlp_metrics_dict(registry, time_s=1.25), schema)

    def test_every_jsonl_line_validates(self, registry, schema):
        lines = otlp_metrics_lines(registry, time_s=1.25)
        assert len(lines) == 3  # one envelope per instrument
        for line in lines:
            assert_valid(json.loads(line), schema)

    def test_time_is_simulated_not_wall(self, registry):
        doc = otlp_metrics_dict(registry, time_s=2.5)
        metric = doc["resourceMetrics"][0]["scopeMetrics"][0]["metrics"][0]
        point = metric["sum"]["dataPoints"][0]
        assert point["timeUnixNano"] == str(int(2.5e9))

    def test_counter_is_monotonic_cumulative_sum(self, registry):
        doc = otlp_metrics_dict(registry)
        metric = doc["resourceMetrics"][0]["scopeMetrics"][0]["metrics"][0]
        assert metric["name"] == "flow.jobs"
        assert metric["sum"]["isMonotonic"] is True
        assert metric["sum"]["aggregationTemporality"] == 2

    def test_histogram_counts_are_uint64_strings(self, registry):
        doc = otlp_metrics_dict(registry)
        metrics = doc["resourceMetrics"][0]["scopeMetrics"][0]["metrics"]
        histogram = next(m for m in metrics if "histogram" in m)
        point = histogram["histogram"]["dataPoints"][0]
        assert point["count"] == "4"
        assert all(isinstance(c, str) for c in point["bucketCounts"])
        assert sum(int(c) for c in point["bucketCounts"]) == 4
        assert len(point["bucketCounts"]) == len(point["explicitBounds"]) + 1

    def test_custom_resource(self, registry):
        doc = otlp_metrics_dict(registry, resource={"service.name": "x", "env": "ci"})
        attrs = doc["resourceMetrics"][0]["resource"]["attributes"]
        assert [a["key"] for a in attrs] == ["env", "service.name"]

    def test_write_otlp_jsonl(self, registry, tmp_path, schema):
        path = tmp_path / "metrics.otlp.jsonl"
        write_otlp_jsonl(str(path), registry, time_s=1.0)
        lines = path.read_text().splitlines()
        assert lines == otlp_metrics_lines(registry, time_s=1.0)

    def test_schema_validator_catches_violations(self, schema):
        # The validator itself must not be a rubber stamp.
        assert _validate({}, schema, schema)  # missing resourceMetrics
        bad = otlp_metrics_dict(MetricsRegistry())
        bad["resourceMetrics"][0]["scopeMetrics"][0]["metrics"] = [
            {"name": "x", "description": "", "unit": ""}  # no data oneOf
        ]
        assert _validate(bad, schema, schema)


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
        assert otlp_metrics_lines(first, time_s=1.0) == otlp_metrics_lines(
            second, time_s=1.0
        )
