"""Tests for the SLO specs and the health judge's error-budget rules."""

import pytest

from repro.obs.events import EventBus
from repro.obs.health import HealthError, HealthMonitor, Verdict
from repro.obs.slo import (
    DEFAULT_SLOS,
    SloError,
    SloSpec,
)
from repro.obs.tsdb import Sample, TelemetryStore


def judge(store, specs, **kwargs):
    """The SLO section of one health report over ``store``."""
    return HealthMonitor(EventBus(), store=store, slos=specs, **kwargs).report().slo


def value_spec(**overrides):
    base = dict(
        name="latency-p95",
        objective=1.0,
        series="latency*.p95",
        budget=0.10,
    )
    base.update(overrides)
    return SloSpec(**base)


def ratio_spec(**overrides):
    base = dict(
        name="failure-rate",
        objective=0.05,
        series="failed*",
        denominator=("attempts*",),
        budget=0.20,
    )
    base.update(overrides)
    return SloSpec(**base)


class TestSpecValidation:
    def test_needs_a_name(self):
        with pytest.raises(SloError):
            value_spec(name="")

    def test_objective_non_negative(self):
        with pytest.raises(SloError):
            value_spec(objective=-1.0)

    def test_budget_bounds(self):
        with pytest.raises(SloError):
            value_spec(budget=0.0)
        with pytest.raises(SloError):
            value_spec(budget=1.5)
        value_spec(budget=1.0)  # inclusive upper bound

    def test_agg_whitelist(self):
        with pytest.raises(SloError):
            value_spec(agg="median")

    def test_denominator_normalized_to_tuple(self):
        assert ratio_spec(denominator="attempts*").denominator == ("attempts*",)
        assert ratio_spec(denominator=["a*", "b*"]).denominator == ("a*", "b*")


class TestSli:
    def test_value_sli_folds_max_by_default(self):
        spec = value_spec()
        sample = Sample(0.0, {"latency{t=a}.p95": 0.4, "latency{t=b}.p95": 0.9})
        assert spec.sli(sample) == 0.9

    def test_value_sli_min_and_sum(self):
        sample = Sample(0.0, {"latency{t=a}.p95": 0.4, "latency{t=b}.p95": 0.9})
        assert value_spec(agg="min").sli(sample) == 0.4
        assert value_spec(agg="sum").sli(sample) == pytest.approx(1.3)

    def test_value_sli_none_without_match(self):
        assert value_spec().sli(Sample(0.0, {"other": 1.0})) is None

    def test_ratio_sli(self):
        sample = Sample(0.0, {"failed{t=a}": 1.0, "attempts{t=a}": 10.0})
        assert ratio_spec().sli(sample) == pytest.approx(0.1)

    def test_ratio_missing_numerator_is_zero(self):
        # A counter that was never incremented is a true zero, not
        # missing data — zero failures over live traffic is SLI 0.
        sample = Sample(0.0, {"attempts{t=a}": 10.0})
        assert ratio_spec().sli(sample) == 0.0

    def test_ratio_no_denominator_is_no_observation(self):
        assert ratio_spec().sli(Sample(0.0, {"failed": 1.0})) is None
        assert ratio_spec().sli(Sample(0.0, {"attempts": 0.0})) is None

    def test_ratio_sums_all_matching_series(self):
        spec = ratio_spec(denominator=("attempts*", "failed*"))
        sample = Sample(
            0.0, {"failed{t=a}": 1.0, "attempts{t=a}": 4.0, "attempts{t=b}": 5.0}
        )
        assert spec.sli(sample) == pytest.approx(0.1)


class TestEvaluation:
    def track(self, specs, samples):
        store = TelemetryStore()
        for time, values in samples:
            store.record(values, time=time)
        return judge(store, specs)

    def test_empty_store_is_ok_no_data(self):
        report = self.track((value_spec(),), [])
        assert report.verdict is Verdict.OK
        status = report.statuses[0]
        assert status.observations == 0
        assert status.sli is None
        assert "no data" in status.summary()

    def test_within_budget_is_ok(self):
        samples = [(float(i), {"latency.p95": 0.5}) for i in range(9)]
        samples.append((9.0, {"latency.p95": 2.0}))  # 1 of 10 over
        report = self.track((value_spec(budget=0.2),), samples)
        status = report.statuses[0]
        assert report.verdict is Verdict.OK
        assert status.burn == pytest.approx(0.1)
        assert status.budget_remaining == pytest.approx(0.5)

    def test_budget_exhausted_is_degraded(self):
        samples = [(float(i), {"latency.p95": 2.0}) for i in range(3)]
        samples += [(float(i), {"latency.p95": 0.5}) for i in range(3, 10)]
        report = self.track((value_spec(budget=0.2),), samples)
        status = report.statuses[0]
        assert status.burn == pytest.approx(0.3)
        assert status.verdict is Verdict.DEGRADED
        assert status.budget_remaining < 0
        assert report.verdict is Verdict.DEGRADED

    def test_every_observation_violating_is_critical(self):
        samples = [(float(i), {"latency.p95": 5.0}) for i in range(4)]
        report = self.track((value_spec(),), samples)
        assert report.statuses[0].verdict is Verdict.CRITICAL
        assert report.verdict is Verdict.CRITICAL

    def test_unobserved_samples_do_not_count(self):
        samples = [
            (0.0, {}),  # no traffic: neither violation nor success
            (1.0, {"latency.p95": 0.5}),
        ]
        status = self.track((value_spec(),), samples).statuses[0]
        assert status.observations == 1
        assert status.violations == 0

    def test_report_folds_worst_status(self):
        specs = (value_spec(name="ok-one", objective=10.0), value_spec(name="bad-one"))
        samples = [(float(i), {"latency.p95": 5.0}) for i in range(4)]
        report = self.track(specs, samples)
        assert report.statuses[0].verdict is Verdict.OK
        assert report.statuses[1].verdict is Verdict.CRITICAL
        assert report.verdict is Verdict.CRITICAL

    def test_window_limits_samples(self):
        store = TelemetryStore()
        store.record({"latency.p95": 5.0}, time=0.0)  # old violation
        for t in (100.0, 101.0, 102.0):
            store.record({"latency.p95": 0.5}, time=t)
        assert judge(store, (value_spec(),)).verdict is Verdict.DEGRADED
        windowed = judge(store, (value_spec(),), slo_window_s=5.0)
        assert windowed.verdict is Verdict.OK
        assert windowed.window_s == 5.0

    def test_negative_window_rejected(self):
        with pytest.raises(HealthError):
            HealthMonitor(EventBus(), slo_window_s=-1.0)

    def test_duplicate_spec_names_rejected(self):
        with pytest.raises(SloError):
            HealthMonitor(EventBus(), slos=(value_spec(), value_spec()))

    def test_to_dict_shape(self):
        report = self.track((value_spec(),), [(0.0, {"latency.p95": 0.5})])
        doc = report.to_dict()
        assert doc["verdict"] == "ok"
        assert doc["window_s"] is None
        objective = doc["objectives"][0]
        assert objective["name"] == "latency-p95"
        assert objective["sli"] == 0.5
        assert objective["burn"] == 0.0

    def test_summary_lines(self):
        report = self.track((value_spec(),), [(0.0, {"latency.p95": 0.5})])
        lines = report.summary_lines()
        assert lines[0].startswith("slo verdict")
        assert "latency-p95" in lines[1]


class TestDefaultSlos:
    def test_names_are_unique(self):
        names = [spec.name for spec in DEFAULT_SLOS]
        assert len(names) == len(set(names))

    def test_cover_the_three_serving_objectives(self):
        names = {spec.name for spec in DEFAULT_SLOS}
        assert names == {
            "reconfig-latency-p95",
            "deploy-failure-rate",
            "cad-retry-rate",
        }

    def test_match_real_registry_keys(self):
        # The patterns must match labeled and unlabeled snapshot keys.
        sample = Sample(
            0.0,
            {
                "runtime.reconfig_seconds{tile=rt0}.p95": 0.004,
                "runtime.reconfigurations{tile=rt0}": 10.0,
                "runtime.failed_attempts{tile=rt0}": 1.0,
                "flow.jobs_total{stage=synth}": 8.0,
                "flow.job_retries_total{stage=synth}": 1.0,
            },
        )
        by_name = {spec.name: spec for spec in DEFAULT_SLOS}
        assert by_name["reconfig-latency-p95"].sli(sample) == 0.004
        assert by_name["deploy-failure-rate"].sli(sample) == pytest.approx(1 / 11)
        assert by_name["cad-retry-rate"].sli(sample) == pytest.approx(1 / 8)


class TestRunningFold:
    """The judge folds each sample once and keeps running counts."""

    def test_live_counts_match_a_fresh_judge(self):
        # Samples arrive between reports; capacity and window both evict.
        for window in (None, 2.5):
            store = TelemetryStore(capacity=4)
            specs = (value_spec(), ratio_spec())
            live = HealthMonitor(EventBus(), store=store, slos=specs, slo_window_s=window)
            for index in range(12):
                store.record(
                    {
                        "latency.p95": 2.0 if index % 3 == 0 else 0.5,
                        "failed": float(index % 2),
                        "attempts": 10.0,
                    },
                    time=float(index),
                )
                if index % 2:
                    continue  # two samples fold in one report
                fresh = judge(store, specs, slo_window_s=window)
                assert live.report().slo.to_dict() == fresh.to_dict()

    def test_each_sample_sli_is_computed_once(self, monkeypatch):
        calls = []
        sli = SloSpec.sli
        monkeypatch.setattr(SloSpec, "sli", lambda spec, sample: calls.append(1) or sli(spec, sample))
        store = TelemetryStore()
        monitor = HealthMonitor(EventBus(), store=store, slos=(value_spec(), ratio_spec()))
        for index in range(5):
            store.record({"latency.p95": 0.5}, time=float(index))
            monitor.report()
            monitor.report()
        assert len(calls) == 5 * 2

    def test_replay_starts_at_the_first_buffered_sample(self):
        store = TelemetryStore(capacity=3)
        for index, value in enumerate([5.0, 5.0, 0.5, 5.0, 0.5]):
            store.record({"latency.p95": value}, time=float(index))
        slo = judge(store, (value_spec(),))
        frames = slo.replay()
        assert [frame["time"] for frame in frames] == [2.0, 3.0, 4.0]
        assert [frame["burn"]["latency-p95"] for frame in frames] == pytest.approx(
            [0.0, 0.5, 1 / 3]
        )
        assert frames[-1]["verdict"] == slo.verdict.value

    def test_one_snapshot_judge_counts_slo_critical_as_degraded(self):
        # Without a store the judge judges one end-of-run snapshot:
        # burn over a single sample is all-or-nothing.
        own = HealthMonitor(EventBus(), slos=(value_spec(),))
        own.store.record({"latency.p95": 5.0}, time=0.0)
        report = own.report()
        assert report.slo.verdict is Verdict.CRITICAL
        assert report.overall is Verdict.DEGRADED

        store = TelemetryStore()
        store.record({"latency.p95": 5.0}, time=0.0)
        report = HealthMonitor(EventBus(), store=store, slos=(value_spec(),)).report()
        assert report.overall is Verdict.CRITICAL
