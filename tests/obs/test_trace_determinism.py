"""End-to-end observability: determinism, nesting, reconciliation.

The acceptance bar of the observability layer: a traced deployment is
byte-reproducible, its span tree is well-formed, and the trace/metrics
agree with the human-facing reports (`RuntimeStats`, the timeline) to
float tolerance — they are read off the same records.
"""

import json

import pytest

from repro.obs.export import chrome_trace_json
from repro.obs.instrumentation import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


@pytest.fixture(scope="module")
def built_socy():
    from repro.core.designs import wami_soc_y
    from repro.core.platform import PrEspPlatform

    platform = PrEspPlatform()
    config = wami_soc_y()
    return platform, config, platform.flow.build(config)


def traced_deploy(built, frames=2):
    platform, config, flow_result = built
    tracer = Tracer()
    registry = MetricsRegistry()
    report = platform.deploy_wami(
        config,
        flow_result=flow_result,
        frames=frames,
        instrumentation=Instrumentation(tracer=tracer, metrics=registry),
    )
    return report, tracer, registry


class TestDeterminism:
    def test_two_deploys_export_identical_traces(self, built_socy):
        _, tracer_a, registry_a = traced_deploy(built_socy)
        _, tracer_b, registry_b = traced_deploy(built_socy)
        assert chrome_trace_json(tracer_a) == chrome_trace_json(tracer_b)
        assert registry_a.snapshot() == registry_b.snapshot()

    def test_two_builds_export_identical_traces(self, built_socy):
        platform, config, _ = built_socy
        texts = []
        for _ in range(2):
            tracer = Tracer()
            platform.flow.build(
                config, instrumentation=Instrumentation(tracer=tracer)
            )
            texts.append(chrome_trace_json(tracer))
        assert texts[0] == texts[1]


class TestWellFormedness:
    def test_deploy_spans_nest(self, built_socy):
        _, tracer, _ = traced_deploy(built_socy)
        assert tracer.nesting_violations() == []

    def test_flow_spans_nest(self, built_socy):
        platform, config, _ = built_socy
        tracer = Tracer()
        result = platform.flow.build(
            config, instrumentation=Instrumentation(tracer=tracer)
        )
        assert tracer.nesting_violations() == []
        root = next(s for s in tracer.spans if s.category == "flow.build")
        for span in tracer.spans:
            assert span.start >= root.start - 1e-9
            assert span.end <= root.end + 1e-9

    def test_flow_stage_spans_match_report(self, built_socy):
        platform, config, _ = built_socy
        tracer = Tracer()
        result = platform.flow.build(
            config, instrumentation=Instrumentation(tracer=tracer)
        )
        stages = {s.name: s for s in tracer.spans_in("flow.stage")}
        assert stages["synthesis"].duration == pytest.approx(
            result.synth_makespan_minutes
        )
        assert stages["implementation"].duration == pytest.approx(
            result.par_makespan_minutes
        )
        root = next(s for s in tracer.spans if s.category == "flow.build")
        assert root.duration == pytest.approx(result.total_minutes)
        # One job span per scheduled tool run, inside its stage window.
        jobs = tracer.spans_in("flow.job")
        expected = len(result.schedule.jobs) + len(result.synth_schedule.jobs)
        assert len(jobs) == expected


class TestReconciliation:
    def test_icap_span_total_equals_stats(self, built_socy):
        report, tracer, _ = traced_deploy(built_socy)
        stats = report.runtime_stats
        assert stats.icap_busy_s > 0
        assert tracer.total_duration("kernel.icap") == pytest.approx(
            stats.icap_busy_s
        )

    def test_exec_spans_reconcile_with_timeline(self, built_socy):
        report, tracer, _ = traced_deploy(built_socy)
        timeline = report.timeline
        timeline_exec = sum(e.duration_s for e in timeline.spans("exec"))
        timeline_reconf = sum(e.duration_s for e in timeline.spans("reconfig"))
        # The app-layer bridge is lossless...
        assert tracer.total_duration("app.exec") == pytest.approx(timeline_exec)
        assert tracer.total_duration("app.reconfig") == pytest.approx(
            timeline_reconf
        )
        assert len(tracer.spans_in("app.exec")) == len(timeline.spans("exec"))
        # ...and the kernel's own exec spans tell the same story.
        assert tracer.total_duration("kernel.exec") == pytest.approx(timeline_exec)

    def test_metrics_agree_with_stats(self, built_socy):
        report, _, registry = traced_deploy(built_socy)
        stats = report.runtime_stats
        totals = registry.gauge("runtime.totals")
        assert totals.value(stat="invocations") == stats.total_invocations
        assert totals.value(stat="icap_busy_s") == pytest.approx(stats.icap_busy_s)
        # Live counters and post-hoc gauges read the same records.
        live = registry.counter("runtime.invocations")
        assert live.total() == stats.total_invocations
        live_reconf = registry.counter("runtime.reconfigurations")
        assert live_reconf.total() == stats.total_reconfigurations
        assert registry.counter("prc.icap_busy_s").total() == pytest.approx(
            stats.icap_busy_s
        )

    def test_noc_counters_populated(self, built_socy):
        _, _, registry = traced_deploy(built_socy)
        snapshot = registry.snapshot()
        assert snapshot["noc.bytes{source=prc}"] > 0
        assert snapshot["noc.flits{source=prc}"] > 0

    def test_trace_is_valid_chrome_json(self, built_socy):
        _, tracer, _ = traced_deploy(built_socy)
        doc = json.loads(chrome_trace_json(tracer))
        events = doc["traceEvents"]
        assert all(e["ph"] in ("M", "X", "I") for e in events)
        complete = [e for e in events if e["ph"] == "X"]
        assert complete
        assert all(e["dur"] >= 0 and "pid" in e and "tid" in e for e in complete)


class TestZeroOverhead:
    def test_untraced_deploy_allocates_no_spans(self, built_socy):
        platform, config, flow_result = built_socy
        report = platform.deploy_wami(config, flow_result=flow_result, frames=1)
        # Default NULL paths: nothing recorded anywhere, run still works.
        assert report.runtime_stats.total_invocations > 0
