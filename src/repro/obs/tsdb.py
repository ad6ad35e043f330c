"""A bounded time-series store over metrics snapshots.

The :class:`~repro.obs.metrics.MetricsRegistry` answers "what are the
counters *now*"; the :class:`TelemetryStore` keeps a fixed-capacity
ring of registry snapshots: how they got there. The health judge
(:class:`~repro.obs.health.HealthMonitor`) folds each sample into its
SLO rules once.

Like every obs layer the store never reads a wall clock. A sample is
stamped with the time its caller passes (the dashboard attaches the
store to an :class:`~repro.obs.events.EventBus` and stamps samples
from the events' own simulated-seconds timestamps); without one the
sample index is the time, so two identical seeded runs produce
byte-identical stores.

Retention is two-level, both bounded:

* the **snapshot ring** keeps the last ``capacity`` full snapshots
  (drop-oldest, drops counted) — what the health judge reads;
* the **per-series history** keeps the last ``series_capacity`` points
  of every label-set series independently, so a chatty series (one
  request's counter) cannot evict a quiet one's history.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import PrEspError


class TelemetryStoreError(PrEspError):
    """Misuse of the telemetry store API (bad capacity or sample time)."""


@dataclass(frozen=True)
class Sample:
    """One recorded registry snapshot at one instant."""

    time: float
    values: Dict[str, float] = field(default_factory=dict)

    def get(self, key: str, default: float = 0.0) -> float:
        return self.values.get(key, default)


def _snapshot_of(source) -> Dict[str, float]:
    """A plain snapshot dict from a registry or a ready-made dict."""
    if isinstance(source, dict):
        return dict(source)
    snapshot = getattr(source, "snapshot", None)
    if callable(snapshot):
        return snapshot()
    raise TelemetryStoreError(
        f"cannot snapshot {type(source).__name__}: pass a registry or a dict"
    )


class TelemetryStore:
    """Bounded ring of metrics snapshots."""

    def __init__(self, capacity: int = 256, series_capacity: int = 1024) -> None:
        if capacity <= 0:
            raise TelemetryStoreError(f"snapshot capacity must be positive: {capacity}")
        if series_capacity <= 0:
            raise TelemetryStoreError(
                f"series capacity must be positive: {series_capacity}"
            )
        self.capacity = capacity
        self.series_capacity = series_capacity
        self._ring: Deque[Sample] = deque(maxlen=capacity)
        self._series: Dict[str, Deque[Tuple[float, float]]] = {}
        #: Snapshots evicted from the ring (per-series history may
        #: still hold their points — the two tiers age independently).
        self.dropped = 0
        #: Total snapshots ever recorded.
        self.recorded = 0

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def record(self, source, time: Optional[float] = None) -> Sample:
        """Snapshot ``source`` (registry or dict) at ``time``.

        Without a time the sample index is the timestamp.
        """
        when = float(self.recorded if time is None else time)
        last = self._ring[-1].time if self._ring else None
        if last is not None and when < last:
            raise TelemetryStoreError(
                f"sample time {when} precedes the latest sample {last}"
            )
        sample = Sample(time=when, values=_snapshot_of(source))
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(sample)
        self.recorded += 1
        for key, value in sample.values.items():
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = deque(maxlen=self.series_capacity)
            series.append((when, float(value)))
        return sample

    def attach(self, bus, registry, interval: float = 0.0) -> Callable:
        """Record periodic snapshots driven by a bus's event stream.

        Subscribes a catch-all listener: whenever an event's timestamp
        has advanced at least ``interval`` past the last recorded
        sample (or on the first event), the registry is snapshotted at
        the *event's* time — the store rides the emitters' own clock,
        so a seeded run records an identical sample sequence every
        time. Returns the subscriber (pass to ``bus.unsubscribe``).
        """
        if interval < 0:
            raise TelemetryStoreError(f"interval must be >= 0: {interval}")
        state = {"last": None}

        def sampler(event) -> None:
            last = state["last"]
            if last is not None and event.time < last + interval:
                return
            # Never step backwards: flow events ride a different clock
            # (modelled CAD minutes) than runtime events (DES seconds).
            if self._ring and event.time < self._ring[-1].time:
                return
            state["last"] = event.time
            self.record(registry, time=event.time)

        bus.subscribe(sampler)
        return sampler

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    def latest(self) -> Optional[Sample]:
        """The most recent sample (None when empty)."""
        return self._ring[-1] if self._ring else None

    def samples(self) -> List[Sample]:
        """Buffered samples, oldest first (one atomic copy of the ring)."""
        return list(self._ring)

    def to_dict(self) -> Dict:
        """JSON-serializable view (dashboard ``--json``)."""
        return {
            "capacity": self.capacity,
            "series_capacity": self.series_capacity,
            "recorded": self.recorded,
            "buffered": len(self._ring),
            "dropped": self.dropped,
            "series": len(self._series),
            "span": (
                [self._ring[0].time, self._ring[-1].time] if self._ring else None
            ),
        }
