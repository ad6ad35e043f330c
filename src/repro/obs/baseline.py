"""One regression gate: result files judged against committed baselines.

Two kinds of result file are gated, and both read as one
``{name: float}`` map:

* a bench's ``BENCH_<experiment>.json`` summary — the key *modelled*
  table values (minutes, reconfiguration counts, latencies), with
  wall-clock kept in ``meta`` and never judged;
* a profiled workload's ``PROFILE_<experiment>.json`` — the host
  self-time *share* of each call path (:func:`self_time_shares`), a
  machine-speed invariant shape of where the time goes.

A committed baseline file pins the expected ``value`` of each name
with a ``tolerance``; ``repro bench-diff`` and ``repro profile-diff``
run :func:`compare_directories` and fail on any out-of-band name, on
a pinned name the result lost, or on a result file that was never
produced. Three fields of a baseline file cover how share maps are
judged differently from bench metrics:

* ``absolute_band`` — the tolerance is an absolute band, not relative
  to the baseline value (a zero baseline is judged absolutely either
  way, since nothing is relative to 0);
* ``absent_as_zero`` — a pinned name the result lacks reads 0 (a call
  path that vanished) instead of failing as missing;
* ``hotspot_threshold`` — a name the baseline does not pin fails as a
  new hotspot once its value reaches the threshold; without it,
  unpinned names are not judged.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.errors import PrEspError
from repro.obs.profiler import PROFILE_PREFIX, load_profile, self_time_shares


class BaselineError(PrEspError):
    """Malformed summary/baseline files or bad comparison input."""


#: Filename prefix of the machine-readable bench summaries.
BENCH_PREFIX = "BENCH_"


# ----------------------------------------------------------------------
# bench summaries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BenchSummary:
    """One bench run's machine-readable output."""

    experiment: str
    metrics: Dict[str, float]
    meta: Dict[str, object] = field(default_factory=dict)


def write_summary(
    directory: Union[str, Path],
    experiment: str,
    metrics: Mapping[str, float],
    meta: Optional[Mapping[str, object]] = None,
) -> Path:
    """Write one deterministic ``BENCH_<experiment>.json``; returns it."""
    payload = {
        "experiment": experiment,
        "metrics": {str(k): float(v) for k, v in metrics.items()},
        "meta": dict(meta or {}),
    }
    path = Path(directory) / f"{BENCH_PREFIX}{experiment}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_summary(path: Union[str, Path]) -> BenchSummary:
    """Parse one summary file."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
        return BenchSummary(
            experiment=str(payload["experiment"]),
            metrics={str(k): float(v) for k, v in payload["metrics"].items()},
            meta=dict(payload.get("meta", {})),
        )
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise BaselineError(f"unreadable bench summary {path}: {error}") from None


def find_files(directory: Union[str, Path], prefix: str = "") -> Dict[str, Path]:
    """experiment -> path for every ``<prefix><experiment>.json`` present."""
    directory = Path(directory)
    if not directory.is_dir():
        return {}
    return {
        path.stem[len(prefix):]: path
        for path in sorted(directory.glob(f"{prefix}*.json"))
    }


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Entry:
    """Expected value of one name plus its acceptance band."""

    value: float
    tolerance: float

    def __post_init__(self) -> None:
        if self.tolerance < 0:
            raise BaselineError(f"tolerance must be non-negative: {self.tolerance}")


@dataclass(frozen=True)
class Rules:
    """How a baseline judges its map; the defaults are the bench rules."""

    absolute_band: bool = False
    absent_as_zero: bool = False
    hotspot_threshold: Optional[float] = None

    def __post_init__(self) -> None:
        if self.hotspot_threshold is not None and self.hotspot_threshold <= 0:
            raise BaselineError(
                f"hotspot threshold must be positive: {self.hotspot_threshold}"
            )


@dataclass(frozen=True)
class Baseline:
    """The committed expectation for one experiment."""

    experiment: str
    entries: Dict[str, Entry]
    rules: Rules = Rules()


def write_baseline(directory: Union[str, Path], baseline: Baseline) -> Path:
    """Persist ``<directory>/<experiment>.json``; returns its path.

    Rules at their default are left out, so a bench baseline carries
    only ``experiment`` and ``metrics``.
    """
    path = Path(directory) / f"{baseline.experiment}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "experiment": baseline.experiment,
        "metrics": {
            name: {"tolerance": entry.tolerance, "value": entry.value}
            for name, entry in baseline.entries.items()
        },
    }
    defaults = asdict(Rules())
    payload.update(
        (key, value)
        for key, value in asdict(baseline.rules).items()
        if value != defaults[key]
    )
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_baseline(path: Union[str, Path]) -> Baseline:
    """Parse one baseline file; every entry must set value and tolerance."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
        threshold = payload.get("hotspot_threshold")
        return Baseline(
            experiment=str(payload["experiment"]),
            entries={
                str(name): Entry(float(spec["value"]), float(spec["tolerance"]))
                for name, spec in payload["metrics"].items()
            },
            rules=Rules(
                absolute_band=bool(payload.get("absolute_band", False)),
                absent_as_zero=bool(payload.get("absent_as_zero", False)),
                hotspot_threshold=None if threshold is None else float(threshold),
            ),
        )
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as error:
        raise BaselineError(f"unreadable baseline {path}: {error!r}") from None


# ----------------------------------------------------------------------
# the two gated result kinds
# ----------------------------------------------------------------------
def _read_summary(path: Path) -> Tuple[str, Dict[str, float]]:
    summary = load_summary(path)
    return summary.experiment, summary.metrics


def _read_profile(path: Path) -> Tuple[str, Dict[str, float]]:
    document = load_profile(path)
    return str(document.get("experiment", "")), self_time_shares(document)


@dataclass(frozen=True)
class Gate:
    """One kind of gated result file and how a baseline is seeded from it."""

    prefix: str  # result files are <prefix><experiment>.json
    files: str  # what the in-band tally counts
    failures: str  # what a failed experiment's header counts
    read: Callable[[Path], Tuple[str, Dict[str, float]]]
    tolerance: float  # written into every seeded entry
    rules: Rules = Rules()
    min_value: float = float("-inf")  # smaller values are not pinned

    def seed(self, experiment: str, values: Mapping[str, float]) -> Baseline:
        """A baseline pinning the current values of one result."""
        return Baseline(
            experiment=experiment,
            entries={
                name: Entry(value, self.tolerance)
                for name, value in values.items()
                if value >= self.min_value
            },
            rules=self.rules,
        )


#: Bench summaries: every metric pinned within 5% of its value. The
#: models are deterministic, so the tight band does not flake.
BENCH = Gate(
    prefix=BENCH_PREFIX,
    files="experiments",
    failures="regression(s)",
    read=_read_summary,
    tolerance=0.05,
)

#: Profiles: paths with at least a 2% share pinned within ±0.15 of it;
#: any unpinned path reaching a 10% share fails as a new hotspot, so
#: the sub-2% tail needs no entry.
PROFILE = Gate(
    prefix=PROFILE_PREFIX,
    files="profiles",
    failures="hot-path failure(s)",
    read=_read_profile,
    tolerance=0.15,
    rules=Rules(absolute_band=True, absent_as_zero=True, hotspot_threshold=0.10),
    min_value=0.02,
)


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Delta:
    """One name's baseline-vs-current judgement."""

    name: str
    baseline: Optional[float]  # None for a new hotspot
    current: Optional[float]  # None for a missing name
    tolerance: float
    absolute: bool  # the tolerance is an absolute band

    @property
    def drift(self) -> Optional[float]:
        """Signed change on the band's scale (None when a side is absent)."""
        if self.baseline is None or self.current is None:
            return None
        change = self.current - self.baseline
        return change if self.absolute else change / abs(self.baseline)

    @property
    def status(self) -> str:
        """``ok``, ``regression``, ``missing`` or ``new-hotspot``."""
        if self.baseline is None:
            return "new-hotspot"
        if self.current is None:
            return "missing"
        return "ok" if abs(self.drift) <= self.tolerance else "regression"


@dataclass
class Result:
    """Outcome of diffing one experiment against its baseline."""

    experiment: str
    deltas: List[Delta]
    missing: bool = False  # the result file was never produced

    @property
    def failures(self) -> List[Delta]:
        return [d for d in self.deltas if d.status != "ok"]

    @property
    def ok(self) -> bool:
        """True when the result exists and every name is in band."""
        return not self.missing and not self.failures

    def summary_lines(self, gate: Gate) -> List[str]:
        """Per-name judgement lines (the text report of either verb)."""
        if self.missing:
            return [
                f"{self.experiment}: MISSING — baseline committed but no "
                f"{gate.prefix}{self.experiment}.json was produced"
            ]
        lines = [
            f"{self.experiment}: "
            + ("ok" if self.ok else f"{len(self.failures)} {gate.failures}")
        ]
        width = max((len(d.name) for d in self.deltas), default=0)
        for delta in self.deltas:
            if delta.current is None:
                detail = f"(baseline {delta.baseline:g})"
            elif delta.baseline is None:
                detail = f"current {delta.current:g} (not in the baseline)"
            elif delta.absolute:
                detail = (
                    f"baseline {delta.baseline:g} current {delta.current:g} "
                    f"({delta.drift:+g}, tolerance ±{delta.tolerance:g})"
                )
            else:
                detail = (
                    f"baseline {delta.baseline:g} current {delta.current:g} "
                    f"({delta.drift:+.1%}, tolerance ±{delta.tolerance:.0%})"
                )
            lines.append(
                f"  {delta.name:{width}s} {delta.status.upper():11s} {detail}"
            )
        return lines


def compare(
    experiment: str, values: Mapping[str, float], baseline: Baseline
) -> Result:
    """Judge one experiment's ``{name: value}`` map against its baseline.

    Every pinned name yields a delta; a name the map lacks is missing
    (or reads 0 under ``absent_as_zero``). Unpinned names are ignored
    unless the baseline sets a hotspot threshold and they reach it.
    """
    if experiment != baseline.experiment:
        raise BaselineError(
            f"result {experiment!r} does not match baseline "
            f"{baseline.experiment!r}"
        )
    rules = baseline.rules
    absent = 0.0 if rules.absent_as_zero else None
    deltas = [
        Delta(
            name=name,
            baseline=entry.value,
            current=values.get(name, absent),
            tolerance=entry.tolerance,
            absolute=rules.absolute_band or entry.value == 0.0,
        )
        for name, entry in sorted(baseline.entries.items())
    ]
    if rules.hotspot_threshold is not None:
        deltas.extend(
            Delta(name, None, value, rules.hotspot_threshold, absolute=True)
            for name, value in sorted(values.items())
            if name not in baseline.entries and value >= rules.hotspot_threshold
        )
    return Result(experiment=experiment, deltas=deltas)


def compare_directories(
    gate: Gate, results_dir: Union[str, Path], baselines_dir: Union[str, Path]
) -> List[Result]:
    """Diff every committed baseline against the produced result files.

    A baseline without a matching result file yields a ``missing``
    result (a deleted bench or workload must not silently drop its
    guarantee); result files without a baseline are not judged.
    """
    produced = find_files(results_dir, gate.prefix)
    results: List[Result] = []
    for experiment, path in find_files(baselines_dir).items():
        baseline = load_baseline(path)
        result_file = produced.get(experiment)
        if result_file is None:
            results.append(Result(experiment=experiment, deltas=[], missing=True))
        else:
            results.append(compare(*gate.read(result_file), baseline))
    return results
