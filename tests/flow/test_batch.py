"""Tests for the batch build service."""

import pytest

from repro.core.designs import wami_parallelism_socs
from repro.core.platform import PrEspPlatform
from repro.core.strategy import ImplementationStrategy
from repro.errors import FlowError
from repro.flow.batch import BatchBuilder, BuildRequest, cached_build
from repro.flow.cache import FlowCache
from repro.flow.dpr_flow import DprFlow
from repro.flow.options import BuildOptions
from repro.obs.events import EventBus
from repro.obs.export import chrome_trace_json
from repro.obs.instrumentation import OFF, Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import Profiler, canonical_tree, profile_document
from repro.obs.tracer import Tracer
from repro.vivado.characterization import characterization_design
from repro.vivado.faults import CadFaultModel
from repro.vivado.runtime_model import JobKind


@pytest.fixture(scope="module")
def socs():
    return wami_parallelism_socs()


@pytest.fixture(scope="module")
def flow():
    return DprFlow()


def oversized_config():
    """A config whose only accelerator cannot fit any floorplan."""
    return characterization_design("chz_oversized", [5_000_000])


class TestOrderingAndEquivalence:
    def test_outcomes_keep_request_order(self, flow, socs):
        requests = [
            BuildRequest(config=socs[name], strategy_override=strategy)
            for name in ("soc_b", "soc_a")
            for strategy in (ImplementationStrategy.SERIAL, None)
        ]
        outcomes = BatchBuilder(flow=flow).build_many(requests)
        assert [o.request for o in outcomes] == requests

    def test_batch_matches_serial_builds(self, flow, socs):
        requests = [BuildRequest(config=socs[name]) for name in ("soc_a", "soc_c")]
        outcomes = BatchBuilder(flow=flow).build_many(requests)
        for request, outcome in zip(requests, outcomes):
            direct = flow.build(request.config)
            assert outcome.ok
            assert outcome.result.to_summary_dict() == direct.to_summary_dict()

    def test_pool_path_matches_inline(self, flow, socs):
        """jobs=2 exercises the process pool even on a 1-core box."""
        requests = [
            BuildRequest(config=socs[name]) for name in ("soc_a", "soc_b", "soc_c")
        ]
        inline = BatchBuilder(flow=flow, jobs=1).build_many(requests)
        pooled = BatchBuilder(flow=flow, jobs=2).build_many(requests)
        for a, b in zip(inline, pooled):
            assert a.result.to_summary_dict() == b.result.to_summary_dict()

    def test_empty_batch(self, flow):
        assert BatchBuilder(flow=flow).build_many([]) == []


class TestErrorCapture:
    def test_one_bad_request_does_not_sink_the_batch(self, flow, socs):
        requests = [
            BuildRequest(config=socs["soc_a"]),
            BuildRequest(config=oversized_config()),
            BuildRequest(config=socs["soc_b"]),
        ]
        outcomes = BatchBuilder(flow=flow).build_many(requests)
        assert [o.ok for o in outcomes] == [True, False, True]
        failed = outcomes[1]
        assert failed.error is not None
        assert failed.error.kind == "FloorplanError"
        assert "rt0" in failed.error.message
        with pytest.raises(FlowError, match="chz_oversized"):
            failed.unwrap()

    def test_error_capture_through_the_pool(self, flow, socs):
        requests = [
            BuildRequest(config=oversized_config()),
            BuildRequest(config=socs["soc_a"]),
        ]
        outcomes = BatchBuilder(flow=flow, jobs=2).build_many(requests)
        assert [o.ok for o in outcomes] == [False, True]
        assert outcomes[0].error.kind == "FloorplanError"

    def test_failed_build_never_cached(self, flow, socs):
        cache = FlowCache()
        builder = BatchBuilder(flow=flow, cache=cache)
        builder.build_many([BuildRequest(config=oversized_config())])
        assert len(cache) == 0

    def test_bad_jobs_rejected(self, flow):
        with pytest.raises(FlowError):
            BatchBuilder(flow=flow, jobs=0)


class TestCacheShortCircuit:
    def test_warm_requests_skip_the_build(self, flow, socs):
        cache = FlowCache()
        builder = BatchBuilder(flow=flow, cache=cache)
        requests = [BuildRequest(config=socs[name]) for name in ("soc_a", "soc_b")]
        cold = builder.build_many(requests)
        warm = builder.build_many(requests)
        assert [o.cached for o in cold] == [False, False]
        assert [o.cached for o in warm] == [True, True]
        for a, b in zip(cold, warm):
            assert a.result.to_summary_dict() == b.result.to_summary_dict()

    def test_partial_warmth(self, flow, socs):
        cache = FlowCache()
        builder = BatchBuilder(flow=flow, cache=cache)
        builder.build_many([BuildRequest(config=socs["soc_a"])])
        outcomes = builder.build_many(
            [
                BuildRequest(config=socs["soc_a"]),
                BuildRequest(config=socs["soc_b"]),
            ]
        )
        assert [o.cached for o in outcomes] == [True, False]

    def test_metrics_report_hit_and_error_statuses(self, flow, socs):
        registry = MetricsRegistry()
        cache = FlowCache()
        builder = BatchBuilder(
            flow=flow, cache=cache, instrumentation=Instrumentation(metrics=registry)
        )
        requests = [
            BuildRequest(config=socs["soc_a"]),
            BuildRequest(config=oversized_config()),
        ]
        builder.build_many(requests)
        builder.build_many(requests)
        snapshot = registry.snapshot()
        assert snapshot["flow_batch_requests_total{status=built}"] == 1
        assert snapshot["flow_batch_requests_total{status=cache_hit}"] == 1
        assert snapshot["flow_batch_requests_total{status=error}"] == 2


class TestRequestLabels:
    def test_auto_label(self, socs):
        assert BuildRequest(config=socs["soc_a"]).label == "soc_a/auto"

    def test_override_label(self, socs):
        request = BuildRequest(
            config=socs["soc_a"],
            strategy_override=ImplementationStrategy.SEMI_PARALLEL,
        )
        assert request.label == "soc_a/semi-parallel"


class TestCachedBuildHelper:
    def test_without_cache(self, flow, socs):
        result, cached = cached_build(flow, None, socs["soc_a"])
        assert not cached
        assert result.to_summary_dict() == flow.build(socs["soc_a"]).to_summary_dict()

    def test_hit_then_miss_flags(self, flow, socs):
        cache = FlowCache()
        _, first = cached_build(flow, cache, socs["soc_a"])
        _, second = cached_build(flow, cache, socs["soc_a"])
        assert (first, second) == (False, True)


class GaugedFlow(DprFlow):
    """A flow that also records a gauge and a histogram per build."""

    def build(self, config, *args, instrumentation=OFF, **kwargs):
        instrumentation.gauge("flow.test_tiles").set(len(config.tiles), soc=config.name)
        instrumentation.histogram("flow.test_sizes").observe(
            len(config.name), soc=config.name
        )
        return super().build(config, *args, instrumentation=instrumentation, **kwargs)


class TestObservationParity:
    """Every build entry point hands the flow's observations to its probe."""

    NAMES = ("soc_a", "soc_b")

    def observe(self, socs, run):
        """Build NAMES with seeded CAD faults; (flow metrics, events).

        The metrics are the whole registry snapshot except the batch's
        own wall-clock instruments.
        """
        flow = GaugedFlow(
            faults=CadFaultModel(seed=1, rates={JobKind.OOC_SYNTH: 0.3})
        )
        registry, bus = MetricsRegistry(), EventBus()
        run(flow, Instrumentation(metrics=registry, events=bus))
        metrics = {
            name: value
            for name, value in registry.snapshot().items()
            if not name.startswith("flow_batch_")
        }
        events = [(e.kind, e.time, e.source, e.attrs) for e in bus.events()]
        return metrics, events

    def test_every_entry_point_observes_the_same_flow(self, socs):
        requests = [BuildRequest(config=socs[name]) for name in self.NAMES]

        def direct(flow, probe):
            for request in requests:
                cached_build(flow, None, request.config, instrumentation=probe)

        def one_by_one(jobs):
            def run(flow, probe):
                with BatchBuilder(flow=flow, jobs=jobs, instrumentation=probe) as batch:
                    assert all(batch.build_one(r).ok for r in requests)
            return run

        def batched(jobs):
            def run(flow, probe):
                with BatchBuilder(flow=flow, jobs=jobs, instrumentation=probe) as batch:
                    assert all(o.ok for o in batch.build_many(requests))
            return run

        reference = self.observe(socs, direct)
        metrics, events = reference
        assert metrics["flow.job_retries_total{stage=synthesis}"] > 0
        assert metrics["flow.job_failures_total{stage=synthesis}"] > 0
        assert metrics["flow.test_tiles{soc=soc_b}"] > 0
        assert metrics["flow.test_sizes{soc=soc_a}.count"] == 1
        assert [kind for kind, *_ in events].count("flow.stage_finished") == 14
        for run in (one_by_one(1), batched(1), one_by_one(2), batched(2)):
            assert self.observe(socs, run) == reference

    def test_build_one_hit_observes_like_a_cached_build_hit(self, flow, socs):
        cache = FlowCache()
        cached_build(flow, cache, socs["soc_a"])

        def live():
            return Instrumentation(tracer=Tracer(time_unit="min"), profiler=Profiler())

        direct = live()
        _, hit = cached_build(flow, cache, socs["soc_a"], instrumentation=direct)
        batched = live()
        outcome = BatchBuilder(flow=flow, cache=cache, instrumentation=batched).build_one(
            BuildRequest(config=socs["soc_a"])
        )
        assert hit and outcome.cached
        assert chrome_trace_json(batched.tracer) == chrome_trace_json(direct.tracer)
        # The batch files each request under its label, so the hit's
        # leaves sit one level down: root -> soc_a/auto -> build.soc_a.
        (label,) = canonical_tree(profile_document(batched.profiler))["children"]
        assert label["name"] == "soc_a/auto"
        assert label["children"] == canonical_tree(
            profile_document(direct.profiler)
        )["children"]


class TestPlatformIntegration:
    def test_platform_build_many(self, socs):
        platform = PrEspPlatform(options=BuildOptions(cache=FlowCache()))
        requests = [BuildRequest(config=socs[name]) for name in ("soc_a", "soc_b")]
        first = platform.build_many(requests)
        second = platform.build_many(requests)
        assert all(o.ok for o in first)
        assert [o.cached for o in second] == [True, True]

    def test_platform_build_reports_cache_state(self, socs):
        platform = PrEspPlatform(options=BuildOptions(cache=FlowCache()))
        cold = platform.build(socs["soc_a"])
        warm = platform.build(socs["soc_a"])
        assert (cold.cached, warm.cached) == (False, True)
        assert cold.flow.to_summary_dict() == warm.flow.to_summary_dict()

    def test_platform_without_cache_never_reports_cached(self, socs):
        platform = PrEspPlatform()
        assert not platform.build(socs["soc_a"]).cached
        assert not platform.build(socs["soc_a"]).cached
