"""Tests for the ``repro.api`` facade and the deprecated-kwarg shims."""

import pytest

import repro.api as presp
from repro.core.platform import BuildResult, PrEspPlatform, WamiRunReport
from repro.core.strategy import ImplementationStrategy
from repro.errors import ConfigurationError
from repro.flow.batch import BuildRequest
from repro.flow.cache import FlowCache
from repro.flow.options import BuildOptions
from repro.obs.events import EventBus
from repro.obs.instrumentation import Instrumentation
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer


class TestFacade:
    def test_build_returns_build_result(self, small_soc):
        result = presp.build(small_soc)
        assert isinstance(result, BuildResult)
        assert result.flow.config.name == "small"
        assert result.flow.degraded is False

    def test_build_honors_strategy_and_baseline(self, small_soc):
        result = presp.build(
            small_soc,
            strategy=ImplementationStrategy.SERIAL,
            with_baseline=True,
        )
        assert result.flow.strategy is ImplementationStrategy.SERIAL
        assert result.baseline is not None

    def test_shared_platform_reuses_the_cache(self, small_soc):
        platform = presp.platform(options=BuildOptions(cache=FlowCache()))
        first = presp.build(small_soc, platform=platform)
        second = presp.build(small_soc, platform=platform)
        assert first.cached is False
        assert second.cached is True

    def test_platform_excludes_options_and_instrumentation(self, small_soc):
        platform = presp.platform()
        with pytest.raises(ConfigurationError, match="not both"):
            presp.build(small_soc, platform=platform, options=BuildOptions())
        with pytest.raises(ConfigurationError, match="not both"):
            presp.build(
                small_soc, platform=platform, instrumentation=Instrumentation()
            )

    def test_build_many(self, small_soc, soc2):
        outcomes = presp.build_many(
            [BuildRequest(config=small_soc), BuildRequest(config=soc2)]
        )
        assert [o.ok for o in outcomes] == [True, True]

    def test_compare(self, small_soc):
        flow, mono = presp.compare(small_soc)
        assert flow.config.name == mono.config.name == "small"
        assert mono.total_minutes > 0

    def test_deploy(self, socy):
        report = presp.deploy(socy, frames=1)
        assert isinstance(report, WamiRunReport)
        assert report.frames == 1
        assert report.reconfigurations > 0

    def test_deploy_threads_instrumentation(self, socy):
        tracer = Tracer()
        metrics = MetricsRegistry()
        presp.deploy(
            socy,
            frames=1,
            instrumentation=Instrumentation(tracer=tracer, metrics=metrics),
        )
        assert len(tracer.spans) > 0
        assert metrics.snapshot()

    def test_monitor(self, socy):
        report, health, bus = presp.monitor(socy, frames=1)
        assert report.frames == 1
        assert health.verdict.exit_code == 0
        assert len(bus) > 0

    def test_resume_needs_checkpoint_dir(self, small_soc):
        with pytest.raises(ConfigurationError, match="checkpoint"):
            presp.build(small_soc, options=BuildOptions(resume=True))

    def test_build_resume_round_trip(self, small_soc, tmp_path):
        options = BuildOptions(checkpoint_dir=tmp_path / "ckpt")
        first = presp.build(small_soc, options=options)
        resumed = presp.build(small_soc, options=options, resume=True)
        assert resumed.flow.resumed_stages != ()
        assert (
            resumed.flow.to_summary_dict() == first.flow.to_summary_dict()
        )


class TestRetiredKwargs:
    """The deprecation-era kwarg shims are gone: clear TypeErrors now.

    BuildOptions / Instrumentation are the only style; these tests pin
    that the old spellings fail loudly instead of silently doing
    something else.
    """

    def test_platform_cache_jobs_kwargs_are_rejected(self):
        with pytest.raises(TypeError, match="cache"):
            PrEspPlatform(cache=FlowCache(), jobs=2)

    def test_platform_new_style_still_works(self, small_soc):
        cache = FlowCache()
        platform = PrEspPlatform(options=BuildOptions(cache=cache, jobs=2))
        assert platform.cache is cache
        assert platform.options.jobs == 2
        assert platform.build(small_soc).flow.config.name == "small"

    def test_build_tracer_kwarg_is_rejected(self, small_soc):
        platform = PrEspPlatform()
        with pytest.raises(TypeError, match="tracer"):
            platform.build(small_soc, tracer=Tracer())

    def test_build_instrumentation_tracer_still_works(self, small_soc):
        tracer = Tracer()
        platform = PrEspPlatform(
            instrumentation=Instrumentation(tracer=tracer)
        )
        platform.build(small_soc)
        assert len(tracer.spans) > 0

    def test_deploy_trio_kwargs_are_rejected(self, socy):
        platform = PrEspPlatform()
        with pytest.raises(TypeError, match="events"):
            platform.deploy_wami(socy, frames=1, events=EventBus())

    def test_deploy_instrumentation_bus_still_works(self, socy):
        platform = PrEspPlatform()
        bus = EventBus()
        report = platform.deploy_wami(
            socy, frames=1, instrumentation=Instrumentation(events=bus)
        )
        assert report.frames == 1
        assert len(bus) > 0


class TestBuildOptionsValidation:
    def test_jobs_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            BuildOptions(jobs=0)

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ConfigurationError):
            BuildOptions(resume=True)
