"""A small labeled-metrics registry (counters, gauges, histograms).

The registry is the machine-readable counterpart of the human reports:
`collect_stats` and `flow_report` read the same underlying records the
instruments are fed from, so the two views cannot drift apart. The
snapshot format is a flat, deterministically ordered dict — trivially
JSON-serializable for ``repro deploy --json`` and CI dashboards.

Labels follow the Prometheus convention: an instrument is registered
once by name, and each distinct label combination is a separate
series. Snapshot keys render as ``name{k=v,...}``.

When a :class:`~repro.obs.context.TelemetryContext` is active, every
recording implicitly carries its ``request``/``tenant`` labels
(explicit labels of the same name win), so per-request series appear
without threading the context through call sites. With metrics off
(no registry on the probe) the context variable is never consulted —
disabled instrumentation stays free.
"""

from __future__ import annotations

import bisect
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import PrEspError
from repro.obs.context import current_context


class MetricsError(PrEspError):
    """Misuse of the metrics API (type conflict, bad value)."""


LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _contextual(labels: Dict[str, str]) -> Dict[str, str]:
    """Merge the active telemetry context's labels under explicit ones."""
    context = current_context()
    if context is None:
        return labels
    merged = context.labels()
    merged.update(labels)
    return merged


def _series_name(name: str, key: LabelKey) -> str:
    if not key:
        return name
    rendered = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{rendered}}}"


class Counter:
    """A monotonically increasing value per label combination."""

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._values: Dict[LabelKey, float] = {}

    def inc(self, value: float = 1.0, **labels) -> None:
        """Add ``value`` (must be non-negative) to the labeled series."""
        if value < 0:
            raise MetricsError(f"counter {self.name}: negative increment {value}")
        key = _label_key(_contextual(labels))
        self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels) -> float:
        """Current value of one labeled series (0 if never incremented)."""
        return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label combination."""
        return sum(self._values.values())

    def series(self) -> Dict[str, float]:
        return {
            _series_name(self.name, key): value
            for key, value in self._values.copy().items()
        }

    def items(self) -> List[Tuple[LabelKey, float]]:
        """``(label_key, value)`` pairs, label-ordered (exporter view)."""
        return sorted(self._values.copy().items())

    def merge(self, other: "Counter") -> None:
        """Add ``other``'s series into this counter's."""
        for key, value in other.items():
            self._values[key] = self._values.get(key, 0.0) + value


class Gauge:
    """A point-in-time value per label combination."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._values: Dict[LabelKey, float] = {}

    def set(self, value: float, **labels) -> None:
        """Overwrite the labeled series with ``value``."""
        self._values[_label_key(_contextual(labels))] = float(value)

    def value(self, **labels) -> float:
        """Current value of one labeled series (0 if never set)."""
        return self._values.get(_label_key(labels), 0.0)

    def series(self) -> Dict[str, float]:
        return {
            _series_name(self.name, key): value
            for key, value in self._values.copy().items()
        }

    def items(self) -> List[Tuple[LabelKey, float]]:
        """``(label_key, value)`` pairs, label-ordered (exporter view)."""
        return sorted(self._values.copy().items())

    def merge(self, other: "Gauge") -> None:
        """Overwrite this gauge's series with ``other``'s."""
        self._values.update(other.items())


#: Default histogram buckets: wide enough for both milliseconds of
#: reconfiguration time and tens of CAD minutes.
DEFAULT_BUCKETS = (
    0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0
)


def bucket_quantile(
    bounds: Tuple[float, ...],
    bucket_counts: List[int],
    q: float,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
) -> Optional[float]:
    """Estimate the ``q``-quantile from histogram bucket counts.

    Linear interpolation inside the bucket holding the target rank
    (the Prometheus ``histogram_quantile`` estimator), tightened by the
    exact observed ``minimum``/``maximum`` when available: the first
    bucket interpolates from ``minimum`` instead of 0, the overflow
    bucket from the last bound to ``maximum``. Returns None for an
    empty distribution.
    """
    if not 0.0 <= q <= 1.0:
        raise MetricsError(f"quantile must be in [0, 1], got {q}")
    total = sum(bucket_counts)
    if total == 0:
        return None
    rank = q * total
    cumulative = 0
    last = len(bucket_counts) - 1
    for index, count in enumerate(bucket_counts):
        cumulative += count
        if count == 0 or (cumulative < rank and index != last):
            continue
        if index == 0:
            lower = minimum if minimum is not None else 0.0
            upper = bounds[0]
        elif index > len(bounds) - 1:  # overflow bucket
            lower = bounds[-1]
            upper = maximum if maximum is not None else bounds[-1]
        else:
            lower = bounds[index - 1]
            upper = bounds[index]
        fraction = (rank - (cumulative - count)) / count
        fraction = min(1.0, max(0.0, fraction))
        value = lower + (upper - lower) * fraction
        if minimum is not None:
            value = max(value, minimum)
        if maximum is not None:
            value = min(value, maximum)
        return value
    return None  # pragma: no cover - total > 0 guarantees a bucket hit


class _HistogramSeries:
    __slots__ = ("count", "total", "minimum", "maximum", "bucket_counts")

    def __init__(self, num_buckets: int) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.bucket_counts = [0] * (num_buckets + 1)  # +1 overflow


class Histogram:
    """A distribution per label combination (count/sum/min/max/buckets)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        self.name = name
        self.description = description
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise MetricsError(f"histogram {name}: needs at least one bucket")
        self._series: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels) -> None:
        """Record one sample into the labeled distribution."""
        key = _label_key(_contextual(labels))
        series = self._series.get(key)
        if series is None:
            series = self._series.setdefault(key, _HistogramSeries(len(self.buckets)))
        series.count += 1
        series.total += value
        series.minimum = value if series.minimum is None else min(series.minimum, value)
        series.maximum = value if series.maximum is None else max(series.maximum, value)
        series.bucket_counts[bisect.bisect_left(self.buckets, value)] += 1

    def count(self, **labels) -> int:
        """Number of samples in one labeled series."""
        series = self._series.get(_label_key(labels))
        return series.count if series else 0

    def sum(self, **labels) -> float:
        """Sum of samples in one labeled series."""
        series = self._series.get(_label_key(labels))
        return series.total if series else 0.0

    def mean(self, **labels) -> float:
        """Mean sample of one labeled series (0 when empty)."""
        series = self._series.get(_label_key(labels))
        if not series or series.count == 0:
            return 0.0
        return series.total / series.count

    def quantile(self, q: float, **labels) -> Optional[float]:
        """Estimated ``q``-quantile of one labeled series (None if empty).

        Interpolated from the bucket counts (see :func:`bucket_quantile`),
        so the estimate's resolution is the bucket layout — exact at the
        observed min/max, within one bucket everywhere else.
        """
        series = self._series.get(_label_key(labels))
        if not series or series.count == 0:
            return None
        return bucket_quantile(
            self.buckets,
            series.bucket_counts,
            q,
            minimum=series.minimum,
            maximum=series.maximum,
        )

    #: The tail-latency quantiles ``series()`` exports.
    EXPORTED_QUANTILES = ((0.50, "p50"), (0.95, "p95"), (0.99, "p99"))

    def series(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for key, series in self._series.copy().items():
            base = _series_name(self.name, key)
            out[f"{base}.count"] = float(series.count)
            out[f"{base}.sum"] = series.total
            # min/max (and quantiles) are omitted for an empty series:
            # a 0.0 placeholder is indistinguishable from a real sample.
            if series.count:
                out[f"{base}.min"] = series.minimum
                out[f"{base}.max"] = series.maximum
                for q, label in self.EXPORTED_QUANTILES:
                    out[f"{base}.{label}"] = bucket_quantile(
                        self.buckets,
                        series.bucket_counts,
                        q,
                        minimum=series.minimum,
                        maximum=series.maximum,
                    )
            cumulative = 0
            for bound, count in zip(self.buckets, series.bucket_counts):
                cumulative += count
                out[f"{base}.bucket.le={bound:g}"] = float(cumulative)
            out[f"{base}.bucket.le=inf"] = float(series.count)
        return out

    def items(self) -> List[Tuple[LabelKey, "_HistogramSeries"]]:
        """``(label_key, series)`` pairs, label-ordered (exporter view)."""
        return sorted(self._series.copy().items(), key=lambda item: item[0])

    def merge(self, other: "Histogram") -> None:
        """Add ``other``'s samples into this histogram's series."""
        if other.buckets != self.buckets:
            raise MetricsError(f"histogram {self.name}: merge across bucket layouts")
        for key, theirs in other.items():
            series = self._series.setdefault(key, _HistogramSeries(len(self.buckets)))
            if theirs.count and series.count:
                series.minimum = min(series.minimum, theirs.minimum)
                series.maximum = max(series.maximum, theirs.maximum)
            elif theirs.count:
                series.minimum, series.maximum = theirs.minimum, theirs.maximum
            series.count += theirs.count
            series.total += theirs.total
            series.bucket_counts = [
                mine + count
                for mine, count in zip(series.bucket_counts, theirs.bucket_counts)
            ]


class MetricsRegistry:
    """Registers and snapshots instruments.

    Instrument registration is idempotent by (name, kind): asking for
    an existing counter returns it; asking for the same name as a
    different kind is an error.

    Readers may run while other threads record: every read walks a
    copy of a series table (``dict.copy`` is atomic under the GIL), so
    a snapshot never sees a table change size mid-iteration, and
    concurrent first registrations of one name or label set settle on
    a single object via ``dict.setdefault``. Writes take no lock.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, object] = {}
        #: Run before every read, to bring lazily folded sources (a
        #: running deployment's step log) up to date.
        self.collectors: List[Callable[[], None]] = []

    def _get(self, name: str, kind, *args, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = self._instruments.setdefault(name, kind(name, *args, **kwargs))
        if not isinstance(instrument, kind):
            raise MetricsError(
                f"metric {name!r} already registered as "
                f"{instrument.kind}, not {kind.kind}"
            )
        return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        """Get-or-create a counter."""
        return self._get(name, Counter, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get-or-create a gauge."""
        return self._get(name, Gauge, description)

    def histogram(
        self, name: str, description: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        """Get-or-create a histogram."""
        return self._get(name, Histogram, description, buckets)

    def merge(self, instrument) -> None:
        """Fold another registry's ``instrument`` in, series by series.

        Counters and histograms add up, gauges take the incoming value
        — how a batch replays the metrics of a build run elsewhere.
        """
        extra = (instrument.buckets,) if instrument.kind == "histogram" else ()
        self._get(
            instrument.name, type(instrument), instrument.description, *extra
        ).merge(instrument)

    def instruments(self) -> List[object]:
        """All registered instruments, name-ordered (collected first)."""
        for collect in self.collectors:
            collect()
        instruments = self._instruments.copy()
        return [instruments[name] for name in sorted(instruments)]

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{series_name: value}`` dict, deterministically ordered."""
        flat: Dict[str, float] = {}
        for instrument in self.instruments():
            flat.update(instrument.series())
        return dict(sorted(flat.items()))
