"""Tests for the Chrome-trace / JSONL / metrics exporters."""

import json

import pytest

from repro.obs.export import (
    chrome_trace_dict,
    chrome_trace_json,
    format_metric_value,
    metrics_dict,
    metrics_lines,
    spans_jsonl,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


@pytest.fixture
def tracer():
    t = Tracer(time_unit="s")
    t.record("exec", 0.5, 1.5, category="kernel.exec", track="kernel/rt0", mode="fft")
    t.record("job", 0.0, 2.0, category="flow.job", track="flow/vivado00")
    return t


class TestChromeTrace:
    def test_document_shape(self, tracer):
        doc = chrome_trace_dict(tracer)
        assert isinstance(doc["traceEvents"], list)
        assert doc["metadata"]["time_unit"] == "s"
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X"}

    def test_complete_events_scaled_to_microseconds(self, tracer):
        events = [e for e in chrome_trace_dict(tracer)["traceEvents"] if e["ph"] == "X"]
        exec_event = next(e for e in events if e["name"] == "exec")
        assert exec_event["ts"] == pytest.approx(0.5e6)
        assert exec_event["dur"] == pytest.approx(1.0e6)
        assert exec_event["args"]["mode"] == "fft"

    def test_minute_unit_scaling(self):
        t = Tracer(time_unit="min")
        t.record("stage", 1.0, 2.0, track="flow/build")
        event = [e for e in chrome_trace_dict(t)["traceEvents"] if e["ph"] == "X"][0]
        assert event["ts"] == pytest.approx(60e6)

    def test_tracks_map_to_pid_tid(self, tracer):
        doc = chrome_trace_dict(tracer)
        names = {
            (e["args"]["name"])
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"kernel", "flow"}
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len({(e["pid"], e["tid"]) for e in xs}) == 2

    def test_json_is_loadable(self, tracer):
        doc = json.loads(chrome_trace_json(tracer))
        assert len(doc["traceEvents"]) == 6  # 2 spans + 2 proc + 2 thread meta

    def test_write_trace_file(self, tracer, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), tracer)
        doc = json.loads(path.read_text())
        assert any(e["ph"] == "X" for e in doc["traceEvents"])

    def test_open_spans_excluded(self):
        t = Tracer()
        t.begin("open", track="a/b")
        assert chrome_trace_dict(t)["traceEvents"] == []

    def test_non_json_attrs_coerced(self):
        class Odd:
            def __str__(self):
                return "odd!"

        t = Tracer()
        t.record("s", 0.0, 1.0, thing=Odd(), seq=(1, 2))
        event = [e for e in chrome_trace_dict(t)["traceEvents"] if e["ph"] == "X"][0]
        assert event["args"]["thing"] == "odd!"
        assert event["args"]["seq"] == [1, 2]
        json.dumps(event)  # round-trips


class TestJsonl:
    def test_one_line_per_span(self, tracer):
        lines = spans_jsonl(tracer).splitlines()
        assert len(lines) == 2
        rows = [json.loads(line) for line in lines]
        assert rows[0]["name"] == "exec"
        assert rows[0]["duration"] == pytest.approx(1.0)

    def test_records_carry_attrs(self, tracer):
        rows = [json.loads(line) for line in spans_jsonl(tracer).splitlines()]
        assert rows[0]["attrs"] == {"mode": "fft"}


class TestMetricsExport:
    def test_dict_and_lines_agree(self):
        registry = MetricsRegistry()
        registry.counter("noc.flits").inc(12, plane=0)
        flat = metrics_dict(registry)
        assert flat == {"noc.flits{plane=0}": 12.0}
        assert metrics_lines(registry) == ["noc.flits{plane=0} 12"]

    def test_lines_are_repr_faithful(self):
        """The old %g formatting rounded to 6 significant digits, so
        distinct values could print identically; every line must now
        round-trip to the exact float."""
        registry = MetricsRegistry()
        value = 0.0022823076923076946
        registry.gauge("reconfig.duration_s").set(value)
        (line,) = metrics_lines(registry)
        name, rendered = line.rsplit(" ", 1)
        assert name == "reconfig.duration_s"
        assert float(rendered) == value

    def test_lines_are_name_ordered_and_deterministic(self):
        registry = MetricsRegistry()
        registry.counter("b").inc(2)
        registry.counter("a").inc(1)
        registry.gauge("c").set(3.5, tile="rt0")
        lines = metrics_lines(registry)
        assert lines == sorted(lines)
        assert lines == metrics_lines(registry)


class TestFormatMetricValue:
    def test_integral_floats_stay_short(self):
        assert format_metric_value(12.0) == "12"
        assert format_metric_value(-3.0) == "-3"
        assert format_metric_value(0.0) == "0"

    def test_non_integral_floats_are_repr(self):
        assert format_metric_value(0.1) == "0.1"
        value = 0.0022823076923076946
        assert format_metric_value(value) == repr(value)
        assert float(format_metric_value(value)) == value

    def test_huge_integral_floats_keep_repr(self):
        # Past 2**53 an int rendering would suggest false precision.
        assert format_metric_value(2.0**60) == repr(2.0**60)

    def test_non_finite(self):
        assert format_metric_value(float("inf")) == "inf"
        assert format_metric_value(float("nan")) == "nan"
