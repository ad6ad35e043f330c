"""The baseline gate: summaries, profiles, baseline files and the judge."""

import json
import math

import pytest

from repro.obs.baseline import (
    BENCH,
    BENCH_PREFIX,
    PROFILE,
    Baseline,
    BaselineError,
    Entry,
    Rules,
    compare,
    compare_directories,
    find_files,
    load_baseline,
    load_summary,
    write_baseline,
    write_summary,
)
from repro.obs.profiler import (
    Profiler,
    ProfilerError,
    profile_document,
    profile_path,
    self_time_shares,
    write_profile,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def make_profile(experiment="exp", weights=None):
    """A document whose self-time shares are exactly ``weights``."""
    weights = weights if weights is not None else {"a": 0.6, "a;b": 0.3, "c": 0.1}
    clock = FakeClock()
    profiler = Profiler(host_clock=clock)
    for path, weight in weights.items():
        names = path.split(";")
        for name in names:
            profiler.enter(name)
        clock.advance(weight)
        for _ in names:
            profiler.exit()
    return profile_document(profiler, experiment)


def judge_profile(document, baseline):
    return compare(document["experiment"], self_time_shares(document), baseline)


def bench_baseline(experiment="demo", tolerance=0.05, **values):
    return Baseline(
        experiment, {name: Entry(value, tolerance) for name, value in values.items()}
    )


# ----------------------------------------------------------------------
# every rule of the gate, one row each
# ----------------------------------------------------------------------
#: (case, gate, pinned values, current) -> expected verdict. ``current``
#: is the produced map, ``None`` when no result file was produced, or
#: an ``(experiment, map)`` pair from another experiment. The bench
#: gate pins every value exactly: only a drift within a few ulps (one
#: ulp off, ``0.1 + 0.2`` against ``0.3``) is in band. The profile rows
#: match what the separate profile gate returned on the same inputs,
#: except ``profile-boundary-rounding``: that gate compared raw float
#: drifts, so a drift of exactly the tolerance in decimal could read a
#: rounding error past it and fail.
VERDICTS = [
    ("bench-in-band", BENCH, {"m": 100.0}, {"m": 100.0}, {"m": "ok"}),
    (
        "bench-exact-boundary",
        BENCH,
        {"m": 100.0},
        {"m": math.nextafter(100.0, math.inf)},
        {"m": "ok"},
    ),
    ("bench-beyond-band", BENCH, {"m": 100.0}, {"m": 100.1}, {"m": "regression"}),
    ("bench-boundary-rounding", BENCH, {"m": 0.3}, {"m": 0.1 + 0.2}, {"m": "ok"}),
    (
        "bench-just-beyond-boundary",
        BENCH,
        {"m": 0.7},
        {"m": 0.7 * (1 + 1e-9)},
        {"m": "regression"},
    ),
    ("bench-zero-baseline-in-band", BENCH, {"m": 0.0}, {"m": 0.0}, {"m": "ok"}),
    ("bench-zero-baseline-beyond", BENCH, {"m": 0.0}, {"m": 1.0}, {"m": "regression"}),
    ("bench-missing-metric", BENCH, {"m": 100.0}, {}, {"m": "missing"}),
    (
        "bench-unlisted-metric-ignored",
        BENCH,
        {"m": 100.0},
        {"m": 100.0, "extra": 0.5},
        {"m": "ok"},
    ),
    ("bench-missing-summary", BENCH, {"m": 1.0}, None, "missing file"),
    ("bench-experiment-mismatch", BENCH, {"m": 1.0}, ("other", {"m": 1.0}), "error"),
    (
        "profile-in-band",
        PROFILE,
        {"a": 0.5, "b": 0.25},
        {"a": 0.625, "b": 0.375},
        {"a": "ok", "b": "ok"},
    ),
    ("profile-exact-boundary", PROFILE, {"a": 0.15}, {"a": 0.3}, {"a": "ok"}),
    ("profile-beyond-band", PROFILE, {"a": 0.5}, {"a": 0.25}, {"a": "regression"}),
    ("profile-boundary-rounding", PROFILE, {"a": 0.25}, {"a": 0.4}, {"a": "ok"}),
    (
        "profile-just-beyond-boundary",
        PROFILE,
        {"a": 0.25},
        {"a": 0.4 + 1e-9},
        {"a": "regression"},
    ),
    (
        "profile-vanished-in-band",
        PROFILE,
        {"a": 0.5, "b": 0.125},
        {"a": 0.5},
        {"a": "ok", "b": "ok"},
    ),
    (
        "profile-vanished-at-boundary",
        PROFILE,
        {"a": 0.5, "b": 0.15},
        {"a": 0.5},
        {"a": "ok", "b": "ok"},
    ),
    (
        "profile-vanished-beyond",
        PROFILE,
        {"a": 0.5, "b": 0.25},
        {"a": 0.5},
        {"a": "ok", "b": "regression"},
    ),
    (
        "profile-hotspot-at-threshold",
        PROFILE,
        {"a": 0.5},
        {"a": 0.5, "hot": 0.10},
        {"a": "ok", "hot": "new-hotspot"},
    ),
    (
        "profile-hotspot-just-under",
        PROFILE,
        {"a": 0.5},
        {"a": 0.5, "hot": 0.0999},
        {"a": "ok"},
    ),
    (
        "profile-unlisted-metric-ignored",
        PROFILE,
        {"a": 0.5},
        {"a": 0.5, "tail": 0.05},
        {"a": "ok"},
    ),
    ("profile-missing-profile", PROFILE, {"a": 0.5}, None, "missing file"),
    ("profile-experiment-mismatch", PROFILE, {"a": 0.5}, ("other", {}), "error"),
]


@pytest.mark.parametrize(
    "gate, pinned, current, expected",
    [case[1:] for case in VERDICTS],
    ids=[case[0] for case in VERDICTS],
)
def test_verdict(gate, pinned, current, expected, tmp_path):
    baseline = gate.seed("demo", pinned)
    assert {name: entry.value for name, entry in baseline.entries.items()} == pinned
    if current is None:
        write_baseline(tmp_path / "baselines", baseline)
        (result,) = compare_directories(
            gate, tmp_path / "results", tmp_path / "baselines"
        )
        verdict = "missing file" if result.missing else result.deltas
    else:
        experiment, values = current if isinstance(current, tuple) else ("demo", current)
        try:
            result = compare(experiment, values, baseline)
        except BaselineError:
            verdict = "error"
        else:
            verdict = {delta.name: delta.status for delta in result.deltas}
    assert verdict == expected
    if isinstance(expected, dict):
        assert result.ok == all(status == "ok" for status in expected.values())
    else:
        assert expected == "error" or not result.ok


# ----------------------------------------------------------------------
# bench summaries
# ----------------------------------------------------------------------
class TestSummaryIO:
    def test_round_trip(self, tmp_path):
        path = write_summary(
            tmp_path, "demo", {"total_min": 120.5, "frames": 4},
            meta={"wall_s": 1.5},
        )
        assert path.name == "BENCH_demo.json"
        loaded = load_summary(path)
        assert loaded.experiment == "demo"
        assert loaded.metrics == {"total_min": 120.5, "frames": 4.0}
        assert loaded.meta == {"wall_s": 1.5}

    def test_write_is_deterministic(self, tmp_path):
        a = write_summary(tmp_path / "a", "demo", {"b": 2.0, "a": 1.0})
        b = write_summary(tmp_path / "b", "demo", {"a": 1.0, "b": 2.0})
        assert a.read_text() == b.read_text()

    def test_find_summaries(self, tmp_path):
        write_summary(tmp_path, "one", {"m": 1.0})
        write_summary(tmp_path, "two", {"m": 2.0})
        (tmp_path / "notes.txt").write_text("ignored")
        assert sorted(find_files(tmp_path, BENCH_PREFIX)) == ["one", "two"]
        assert find_files(tmp_path / "missing", BENCH_PREFIX) == {}

    def test_unreadable_summary_raises(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text("{not json")
        with pytest.raises(BaselineError):
            load_summary(bad)


# ----------------------------------------------------------------------
# profile shares
# ----------------------------------------------------------------------
class TestShares:
    def test_shares_match_constructed_weights(self):
        shares = self_time_shares(make_profile())
        assert shares["a"] == pytest.approx(0.6)
        assert shares["a;b"] == pytest.approx(0.3)
        assert shares["c"] == pytest.approx(0.1)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_empty_profile_has_no_shares(self):
        assert self_time_shares(profile_document(Profiler(), "e")) == {}

    def test_treeless_document_raises(self):
        with pytest.raises(ProfilerError):
            self_time_shares({"experiment": "e"})


# ----------------------------------------------------------------------
# baseline files
# ----------------------------------------------------------------------
class TestBaselineIO:
    def test_round_trip(self, tmp_path):
        baseline = bench_baseline(tolerance=0.1, total_min=100.0)
        path = write_baseline(tmp_path, baseline)
        assert load_baseline(path) == baseline

    def test_bench_file_carries_no_rules(self, tmp_path):
        path = write_baseline(tmp_path, bench_baseline(m=1.0))
        assert json.loads(path.read_text()) == {
            "experiment": "demo",
            "metrics": {"m": {"tolerance": 0.05, "value": 1.0}},
        }

    def test_profile_round_trip(self, tmp_path):
        baseline = PROFILE.seed("exp", self_time_shares(make_profile()))
        path = write_baseline(tmp_path, baseline)
        assert path.name == "exp.json"
        loaded = load_baseline(path)
        assert loaded == baseline
        assert loaded.rules == Rules(
            absolute_band=True, absent_as_zero=True, hotspot_threshold=0.10
        )
        assert find_files(tmp_path) == {"exp": path}

    def test_validation(self, tmp_path):
        with pytest.raises(BaselineError):
            Entry(1.0, tolerance=-0.1)
        with pytest.raises(BaselineError):
            Rules(hotspot_threshold=0.0)
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(BaselineError):
            load_baseline(bad)

    @pytest.mark.parametrize("key", ["value", "tolerance"])
    def test_value_and_tolerance_are_required(self, tmp_path, key):
        spec = {"value": 1.0, "tolerance": 0.05}
        del spec[key]
        path = tmp_path / "demo.json"
        path.write_text(json.dumps({"experiment": "demo", "metrics": {"m": spec}}))
        with pytest.raises(BaselineError, match=f"{path}.*{key}"):
            load_baseline(path)

    def test_bench_seed_pins_every_metric(self):
        baseline = BENCH.seed("demo", {"a": 1.0, "b": 2.0})
        assert baseline.experiment == "demo"
        assert baseline.entries == {"a": Entry(1.0, 0.0), "b": Entry(2.0, 0.0)}
        assert baseline.rules == Rules()

    def test_profile_seed_filters_below_min_share(self):
        document = make_profile(
            weights={"a": 0.6, "a;b": 0.3, "c": 0.09, "tail": 0.01}
        )
        baseline = PROFILE.seed("exp", self_time_shares(document))
        assert set(baseline.entries) == {"a", "a;b", "c"}
        assert {entry.tolerance for entry in baseline.entries.values()} == {0.15}

    def test_find_baselines(self, tmp_path):
        write_baseline(tmp_path, bench_baseline("x", m=1.0))
        assert list(find_files(tmp_path)) == ["x"]


# ----------------------------------------------------------------------
# the judge: bench metrics
# ----------------------------------------------------------------------
class TestCompareBench:
    def test_in_band_is_ok(self):
        result = compare("demo", {"m": 103.0}, bench_baseline(m=100.0))
        assert result.ok
        assert result.deltas[0].status == "ok"
        assert result.deltas[0].drift == pytest.approx(0.03)

    def test_twenty_percent_slowdown_is_detected(self):
        """An injected >=20% slowdown on a time-like metric must fail
        against a 5% baseline."""
        result = compare("demo", {"total_min": 120.0}, bench_baseline(total_min=100.0))
        assert not result.ok
        (delta,) = result.failures
        assert delta.status == "regression"
        assert delta.drift == pytest.approx(0.20)

    def test_drift_either_way_is_a_regression(self):
        base = bench_baseline(m=100.0)
        assert not compare("demo", {"m": 50.0}, base).ok
        assert not compare("demo", {"m": 150.0}, base).ok

    def test_exact_tolerance_boundary_passes(self):
        assert compare("demo", {"m": 105.0}, bench_baseline(m=100.0)).ok

    def test_zero_baseline(self):
        base = bench_baseline(m=0.0)
        assert compare("demo", {"m": 0.0}, base).ok
        bad = compare("demo", {"m": 1.0}, base)
        assert not bad.ok
        assert bad.deltas[0].absolute
        assert bad.deltas[0].drift == 1.0

    def test_zero_baseline_prints_its_absolute_drift(self):
        result = compare("demo", {"m": 0.04}, bench_baseline(m=0.0))
        assert result.ok
        (_, line) = result.summary_lines(BENCH)
        assert "inf" not in line
        assert "(+0.04, tolerance ±0.05)" in line

    def test_missing_metric_fails(self):
        result = compare("demo", {}, bench_baseline(m=100.0))
        assert not result.ok
        assert result.deltas[0].status == "missing"
        assert "MISSING" in result.summary_lines(BENCH)[1]

    def test_extra_summary_metrics_ignored(self):
        result = compare(
            "demo", {"m": 100.0, "new_metric": 7.0}, bench_baseline(m=100.0)
        )
        assert result.ok
        assert len(result.deltas) == 1

    def test_experiment_mismatch_raises(self):
        with pytest.raises(BaselineError):
            compare("a", {}, Baseline("b", {}))

    def test_summary_lines_mark_regressions(self):
        result = compare("demo", {"m": 130.0}, bench_baseline(m=100.0))
        text = "\n".join(result.summary_lines(BENCH))
        assert "1 regression(s)" in text
        assert "REGRESSION" in text
        assert "+30.0%" in text


# ----------------------------------------------------------------------
# the judge: profile shares
# ----------------------------------------------------------------------
class TestCompareProfile:
    def baseline(self):
        return PROFILE.seed("exp", self_time_shares(make_profile()))

    def test_identical_profile_is_in_band(self):
        result = judge_profile(make_profile(), self.baseline())
        assert result.ok
        assert result.failures == []
        assert "ok" in result.summary_lines(PROFILE)[0]

    def test_drift_beyond_band_is_a_regression(self):
        shifted = make_profile(weights={"a": 0.3, "a;b": 0.6, "c": 0.1})
        result = judge_profile(shifted, self.baseline())
        statuses = {d.name: d.status for d in result.deltas}
        assert statuses["a"] == "regression"
        assert statuses["a;b"] == "regression"
        assert statuses["c"] == "ok"
        assert not result.ok
        assert result.deltas[0].drift == pytest.approx(-0.3)
        assert "2 hot-path failure(s)" in result.summary_lines(PROFILE)[0]

    def test_vanished_path_is_a_regression(self):
        shrunk = make_profile(weights={"a": 0.9, "c": 0.1})
        result = judge_profile(shrunk, self.baseline())
        vanished = next(d for d in result.deltas if d.name == "a;b")
        assert vanished.status == "regression"
        assert vanished.current == 0.0

    def test_new_hotspot_fails(self):
        grown = make_profile(
            weights={"a": 0.5, "a;b": 0.25, "c": 0.05, "noc.transfer": 0.2}
        )
        result = judge_profile(grown, self.baseline())
        (hotspot,) = result.failures
        assert hotspot.name == "noc.transfer"
        assert hotspot.status == "new-hotspot"
        assert hotspot.baseline is None and hotspot.drift is None
        assert "NEW-HOTSPOT" in "\n".join(result.summary_lines(PROFILE))

    def test_small_unbaselined_paths_are_ignored(self):
        grown = make_profile(
            weights={"a": 0.58, "a;b": 0.3, "c": 0.07, "tail": 0.05}
        )
        assert judge_profile(grown, self.baseline()).ok

    def test_experiment_mismatch_raises(self):
        with pytest.raises(BaselineError):
            judge_profile(make_profile(experiment="other"), self.baseline())


# ----------------------------------------------------------------------
# directories
# ----------------------------------------------------------------------
class TestCompareDirectories:
    def test_full_flow(self, tmp_path):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        write_summary(results, "good", {"m": 100.0})
        write_summary(results, "slow", {"m": 130.0})
        for experiment in ("good", "slow"):
            write_baseline(baselines, bench_baseline(experiment, m=100.0))
        outcomes = {
            r.experiment: r for r in compare_directories(BENCH, results, baselines)
        }
        assert outcomes["good"].ok
        assert not outcomes["slow"].ok

    def test_baseline_without_summary_fails(self, tmp_path):
        baselines = tmp_path / "baselines"
        write_baseline(baselines, bench_baseline("gone", m=1.0))
        (result,) = compare_directories(BENCH, tmp_path / "results", baselines)
        assert result.missing
        assert not result.ok
        assert "MISSING" in result.summary_lines(BENCH)[0]
        assert "BENCH_gone.json" in result.summary_lines(BENCH)[0]

    def test_summary_without_baseline_not_judged(self, tmp_path):
        results = tmp_path / "results"
        write_summary(results, "new", {"m": 1.0})
        assert compare_directories(BENCH, results, tmp_path / "baselines") == []

    def test_missing_profile_fails(self, tmp_path):
        baselines = tmp_path / "baselines"
        write_baseline(baselines, PROFILE.seed("exp", {"a": 0.5}))
        (result,) = compare_directories(PROFILE, tmp_path / "results", baselines)
        assert result.missing and not result.ok
        assert "MISSING" in result.summary_lines(PROFILE)[0]
        assert "PROFILE_exp.json" in result.summary_lines(PROFILE)[0]

    def test_produced_profiles_are_judged(self, tmp_path):
        results = tmp_path / "results"
        baselines = tmp_path / "baselines"
        write_baseline(baselines, PROFILE.seed("exp", self_time_shares(make_profile())))
        write_profile(profile_path(results, "exp"), make_profile())
        outcomes = compare_directories(PROFILE, results, baselines)
        assert [o.ok for o in outcomes] == [True]

    def test_unbaselined_profiles_are_not_judged(self, tmp_path):
        results = tmp_path / "results"
        write_profile(profile_path(results, "exp"), make_profile())
        assert compare_directories(PROFILE, results, tmp_path / "none") == []

    def test_bench_summaries_and_profiles_do_not_mix(self, tmp_path):
        results = tmp_path / "results"
        write_summary(results, "exp", {"m": 1.0})
        write_profile(profile_path(results, "exp"), make_profile())
        assert find_files(results, BENCH_PREFIX) == {
            "exp": results / "BENCH_exp.json"
        }
        assert find_files(results, PROFILE.prefix) == {
            "exp": results / "PROFILE_exp.json"
        }
