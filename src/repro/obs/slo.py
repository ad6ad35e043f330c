"""Declarative SLO specs: the indicators the health judge folds.

An :class:`SloSpec` names a service-level indicator — one metric
series (p95 reconfiguration latency) or a ratio of two counter sets
(failed deploy attempts over all attempts) — an objective the SLI must
stay within, and an error budget: the fraction of observations allowed
to violate the objective before the SLO is breached.

The specs are rules of the one health judge,
:class:`~repro.obs.health.HealthMonitor`: it computes each
:class:`~repro.obs.tsdb.TelemetryStore` sample's SLI once per spec,
keeps running observation/violation counts, and judges burn (the
fraction of observations in violation) and the remaining budget
``1 - burn/budget`` with the same ``ok``/``degraded``/``critical``
verdicts as its bus rules.

Series are selected by ``fnmatch`` pattern, not exact key: request
telemetry injects ``request``/``tenant`` labels into series names, so
a spec written against ``runtime.reconfig_seconds*.p95`` matches both
the unattributed series and every per-request one. Ratio SLIs sum all
matching numerator keys over all matching denominator keys per sample;
value SLIs fold matching keys with the spec's aggregation (``max`` by
default — the worst labeled series is the one the SLO answers for).
Samples where the selector matches nothing (or a ratio's denominator
is zero) contribute no observation: "no traffic yet" is not a
violation and not a success.
"""

from __future__ import annotations

import fnmatch
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import PrEspError
from repro.obs.tsdb import Sample


class SloError(PrEspError):
    """Misuse of the SLO API (bad objective, budget, or selector)."""


def _matching(sample: Sample, patterns: Sequence[str]) -> List[float]:
    """Sample values whose key matches any of ``patterns``, in key order."""
    return [
        value
        for key, value in sample.values.items()
        if any(fnmatch.fnmatchcase(key, pattern) for pattern in patterns)
    ]


_FOLDS = {"max": max, "min": min, "sum": sum}


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over stored metric samples.

    ``series`` is an fnmatch pattern over snapshot keys. With a
    ``denominator`` the SLI is a ratio (``sum(series)/sum(denominator)``
    per sample — counter semantics); without one it is a value SLI
    folded with ``agg``. ``objective`` is the maximum healthy SLI;
    ``budget`` is the fraction of observations allowed above it.
    """

    name: str
    objective: float
    series: str
    denominator: Optional[Tuple[str, ...]] = None
    budget: float = 0.10
    agg: str = "max"
    description: str = ""
    unit: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise SloError("SLO spec needs a name")
        if self.objective < 0:
            raise SloError(f"SLO {self.name}: objective must be >= 0")
        if not 0.0 < self.budget <= 1.0:
            raise SloError(
                f"SLO {self.name}: budget must be in (0, 1], got {self.budget}"
            )
        if self.agg not in _FOLDS:
            raise SloError(f"SLO {self.name}: unknown aggregation {self.agg!r}")
        if self.denominator is not None and not isinstance(self.denominator, tuple):
            # Normalize a single pattern or a list into a tuple so the
            # spec stays hashable/frozen.
            patterns = (
                (self.denominator,)
                if isinstance(self.denominator, str)
                else tuple(self.denominator)
            )
            object.__setattr__(self, "denominator", patterns)

    def sli(self, sample: Sample) -> Optional[float]:
        """This spec's indicator for one sample (None = no observation).

        A ratio whose numerator series does not exist yet counts as
        zero — a counter that was never incremented is a true zero, not
        missing data — while an absent or zero denominator yields no
        observation (there was no traffic to judge).
        """
        if self.denominator is not None:
            denominator = sum(_matching(sample, self.denominator))
            if denominator <= 0:
                return None
            return sum(_matching(sample, (self.series,))) / denominator
        values = _matching(sample, (self.series,))
        return _FOLDS[self.agg](values) if values else None


#: The platform's serving SLOs: reconfiguration tail latency, deploy
#: failure rate, CAD retry rate. Objectives sit at the health monitor's
#: degraded thresholds where one exists.
DEFAULT_SLOS: Tuple[SloSpec, ...] = (
    SloSpec(
        name="reconfig-latency-p95",
        description="p95 partial-reconfiguration latency stays under 1s",
        series="runtime.reconfig_seconds*.p95",
        objective=1.0,
        budget=0.10,
        agg="max",
        unit="s",
    ),
    SloSpec(
        name="deploy-failure-rate",
        description="failed reconfiguration attempts stay under 5%",
        series="runtime.failed_attempts*",
        denominator=("runtime.reconfigurations*", "runtime.failed_attempts*"),
        objective=0.05,
        budget=0.20,
    ),
    SloSpec(
        name="cad-retry-rate",
        description="retried CAD jobs stay under 10% of scheduled jobs",
        series="flow.job_retries_total*",
        denominator=("flow.jobs_total*",),
        objective=0.10,
        budget=0.20,
    ),
)

