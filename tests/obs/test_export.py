"""Tests for the Chrome-trace / metrics exporters."""

import json

import pytest

import repro.api as api
from repro.core.designs import wami_deployment_socs
from repro.obs.export import (
    chrome_trace_dict,
    chrome_trace_json,
    format_metric_value,
    metrics_dict,
    metrics_lines,
    write_chrome_trace,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import CAD_MIN, DES_S, RecordingError
from repro.obs.tracer import Tracer


@pytest.fixture
def tracer():
    t = Tracer()
    t.record("exec", 0.5, 1.5, DES_S, category="kernel.exec", track="kernel/rt0", mode="fft")
    t.record("job", 0.0, 2.0, DES_S, category="flow.job", track="flow/vivado00")
    return t


class TestChromeTrace:
    def test_document_shape(self, tracer):
        doc = chrome_trace_dict(tracer)
        assert isinstance(doc["traceEvents"], list)
        assert doc["metadata"]["clocks"] == {"flow": DES_S, "kernel": DES_S}
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert phases == {"M", "X"}

    def test_complete_events_scaled_to_microseconds(self, tracer):
        events = [e for e in chrome_trace_dict(tracer)["traceEvents"] if e["ph"] == "X"]
        exec_event = next(e for e in events if e["name"] == "exec")
        assert exec_event["ts"] == pytest.approx(0.5e6)
        assert exec_event["dur"] == pytest.approx(1.0e6)
        assert exec_event["args"]["mode"] == "fft"

    def test_minute_clock_scaling(self):
        t = Tracer()
        t.record("stage", 1.0, 2.0, CAD_MIN, track="flow/build")
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

    def test_non_json_attrs_coerced(self):
        class Odd:
            def __str__(self):
                return "odd!"

        t = Tracer()
        t.record("s", 0.0, 1.0, DES_S, thing=Odd(), seq=(1, 2))
        event = [e for e in chrome_trace_dict(t)["traceEvents"] if e["ph"] == "X"][0]
        assert event["args"]["thing"] == "odd!"
        assert event["args"]["seq"] == [1, 2]
        json.dumps(event)  # round-trips


class TestClocks:
    """Each record is scaled by its own clock; a process row has one."""

    @pytest.fixture(scope="class")
    def soc(self):
        return wami_deployment_socs()["soc_x"]

    def test_build_under_a_plain_tracer_exports_cad_minutes(self, soc):
        tracer = Tracer()
        result = api.build(soc, instrumentation=api.Instrumentation(tracer=tracer))
        doc = chrome_trace_dict(tracer)
        (build,) = [e for e in doc["traceEvents"] if e.get("cat") == "flow.build"]
        assert build["dur"] == result.flow.total_minutes * 60e6
        assert doc["metadata"]["clocks"] == {"flow": CAD_MIN}

    def test_deploy_traces_its_build_in_minutes_and_its_run_in_seconds(self, soc):
        tracer = Tracer()
        report = api.deploy(
            soc, frames=2, instrumentation=api.Instrumentation(tracer=tracer)
        )
        doc = chrome_trace_dict(tracer)
        clocks = doc["metadata"]["clocks"]
        assert clocks.pop("flow") == CAD_MIN
        assert clocks and set(clocks.values()) == {DES_S}
        (flow_pid,) = [
            e["pid"]
            for e in doc["traceEvents"]
            if e["name"] == "process_name" and e["args"]["name"] == "flow"
        ]
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        (build,) = [e for e in spans if e["cat"] == "flow.build"]
        assert build["dur"] == api.build(soc).flow.total_minutes * 60e6
        end_us = max(e["ts"] + e["dur"] for e in spans if e["pid"] != flow_pid)
        assert end_us == pytest.approx(report.timeline.makespan_s * 1e6)

    def test_each_row_is_scaled_by_its_own_clock(self):
        tracer = Tracer()
        tracer.record("stage", 1.0, 2.0, CAD_MIN, track="flow/build")
        tracer.record("exec", 1.0, 2.0, DES_S, track="kernel/rt0")
        tracer.record("cancelled:Timeout", 1.5, 1.5, DES_S, track="kernel/rt0", instant=True)
        doc = chrome_trace_dict(tracer)
        assert doc["metadata"]["clocks"] == {"flow": CAD_MIN, "kernel": DES_S}
        timed = [(e["ph"], e["ts"], e.get("dur")) for e in doc["traceEvents"] if e["ph"] != "M"]
        assert timed == [("X", 60e6, 60e6), ("X", 1e6, 1e6), ("I", 1.5e6, None)]

    def test_a_second_clock_on_a_row_is_refused(self):
        tracer = Tracer()
        tracer.record("stage", 0.0, 1.0, CAD_MIN, track="flow/build")
        tracer.record("exec", 0.0, 1.0, DES_S, track="flow/vivado00")
        with pytest.raises(RecordingError, match="two clocks"):
            chrome_trace_dict(tracer)


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
