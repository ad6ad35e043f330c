"""A typed in-process event bus with a bounded ring buffer.

Spans and metrics answer "how long" and "how many"; the event bus
answers "what happened, in order". Instrumented layers emit small
typed :class:`Event` records — reconfiguration lifecycle steps from
the runtime manager, stage and cache transitions from the flow, and
congestion watermarks from the NoC — and any number of subscribers
(the :class:`~repro.obs.health.HealthMonitor`, tests, ad-hoc
listeners) observe them live.

The bus itself stays bounded: the last ``capacity`` events are kept in
a ring buffer (drop-oldest), and every drop is counted, so a
long-running deployment can always answer "what were the last N things
the kernel did" without the telemetry growing with the run. Like the
tracer, the bus never reads a wall clock — emitters stamp events from
their own clock (DES seconds, modelled CAD minutes), or the bus falls
back to an injected clock callable.

Events are off when a layer's probe carries no bus; emitting then
costs one ``None`` test.

When a :class:`~repro.obs.context.TelemetryContext` is active, every
emitted event carries its ``request_id`` in ``attrs`` (an explicit
``request_id`` attr wins), so event streams from concurrent requests
stay separable. With the bus off the context variable is never
consulted.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Iterable, List, Optional, Tuple

from repro.errors import PrEspError
from repro.obs.context import current_request_id


class EventBusError(PrEspError):
    """Misuse of the event bus API (bad capacity, unknown subscriber)."""


# ----------------------------------------------------------------------
# well-known event kinds
# ----------------------------------------------------------------------
#: Runtime manager: a thread asked for a tile's lock.
LOCK_REQUESTED = "tile.lock_requested"
#: Runtime manager: the lock was granted (attrs carry ``wait_s``).
LOCK_ACQUIRED = "tile.lock_acquired"
#: Runtime manager: a reconfiguration was requested for a tile.
RECONFIG_REQUESTED = "reconfig.requested"
#: Runtime manager: the PRC started streaming the bitstream.
RECONFIG_STARTED = "reconfig.started"
#: Runtime manager: the region holds the new mode (attrs: ``duration_s``).
RECONFIG_COMPLETED = "reconfig.completed"
#: Runtime manager: a transfer attempt failed (attrs: ``abandoned``).
RECONFIG_FAILED = "reconfig.failed"
#: Runtime manager: a tile's driver was swapped (attrs: ``driver``).
DRIVER_SWAPPED = "driver.swapped"
#: Runtime manager: an abandoned mode was replaced by the tile's
#: last-known-good bitstream (attrs: ``mode``, ``failed_mode``).
RECONFIG_FALLBACK = "reconfig.fallback"
#: Runtime manager: a kernel invocation hung and the watchdog fired
#: (attrs: ``mode``, ``attempts``).
KERNEL_HUNG = "kernel.hung"
#: Runtime manager: a persistently failing tile was quarantined
#: (attrs: ``reason``, ``blanked``, ``abandoned_ops``).
TILE_QUARANTINED = "tile.quarantined"
#: Executor: an instance was re-planned off a quarantined tile
#: (attrs: ``task``, ``from_tile``, ``to``).
SCHED_FAILOVER = "sched.failover"
#: Flow: a Fig. 1 stage started (time in modelled CAD minutes).
FLOW_STAGE_STARTED = "flow.stage_started"
#: Flow: a Fig. 1 stage finished (attrs: ``wall_minutes``, ``detail``).
FLOW_STAGE_FINISHED = "flow.stage_finished"
#: Flow: a stage was restored from a checkpoint instead of re-running
#: (attrs: ``wall_minutes``, ``detail``).
FLOW_STAGE_RESUMED = "flow.stage_resumed"
#: Flow: a stage's outputs were persisted to the checkpoint manifest.
FLOW_CHECKPOINT_SAVED = "flow.checkpoint_saved"
#: Flow: a CAD job attempt failed and will be retried
#: (attrs: ``job``, ``attempt``, ``backoff_minutes``).
CAD_JOB_RETRIED = "flow.job_retried"
#: Flow: a CAD job exhausted its retry budget
#: (attrs: ``job``, ``attempts``, ``minutes_burned``).
CAD_JOB_FAILED = "flow.job_failed"
#: Flow: the build completed without one or more RPs (attrs: ``rps``).
FLOW_DEGRADED = "flow.degraded"
#: Build service: a request was served from the flow cache.
CACHE_HIT = "flow.cache_hit"
#: Build service: a request missed the flow cache and was built.
CACHE_MISS = "flow.cache_miss"
#: NoC: a packet stalled on busy links beyond the watermark
#: (attrs: ``stall_cycles``, ``watermark_cycles``).
NOC_CONGESTION = "noc.congestion"
#: Service: a job exhausted its attempt budget and was dead-lettered
#: (attrs: ``tenant``, ``attempts``, ``reason``).
SERVICE_JOB_DEAD = "service.job_dead"
#: Service: a job was requeued — crash recovery, watchdog timeout, or
#: a manual dead-letter revive (attrs: ``tenant``, ``manual``).
SERVICE_JOB_REQUEUED = "service.job_requeued"
#: Service: the watchdog abandoned an attempt past its deadline
#: (attrs: ``tenant``, ``attempt``, ``deadline_s``).
SERVICE_JOB_TIMED_OUT = "service.job_timed_out"
#: Service: the admission breaker opened (attrs: ``reason``).
SERVICE_BREAKER_OPENED = "service.breaker_opened"
#: Service: the admission breaker re-closed after successful probes.
SERVICE_BREAKER_CLOSED = "service.breaker_closed"


@dataclass(frozen=True)
class Event:
    """One emitted occurrence.

    ``time`` is in the emitter's own unit (DES simulated seconds for
    the runtime kinds, modelled CAD minutes for the flow kinds);
    ``seq`` is a bus-global monotonically increasing sequence number
    that survives ring-buffer drops, so gaps are detectable.
    """

    seq: int
    kind: str
    time: float
    source: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)

    def __str__(self) -> str:
        rendered = " ".join(f"{k}={v}" for k, v in sorted(self.attrs.items()))
        body = f"[{self.time:.6f}] {self.kind} {self.source}"
        return f"{body} {rendered}".rstrip()


Subscriber = Callable[[Event], None]


class EventBus:
    """Registers subscribers and keeps the last ``capacity`` events.

    Subscribers see every emitted event (synchronously, in emission
    order) regardless of ring-buffer drops — the ring bounds *storage*,
    not *delivery*. A subscriber registered for specific ``kinds`` only
    receives those.
    """

    def __init__(
        self,
        capacity: int = 1024,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity <= 0:
            raise EventBusError(f"ring buffer capacity must be positive: {capacity}")
        self.capacity = capacity
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._ring: Deque[Event] = deque(maxlen=capacity)
        self._subscribers: List[Tuple[Subscriber, Optional[frozenset]]] = []
        self._seq = 0
        #: Events evicted from the ring buffer (never delivered late —
        #: subscribers saw them live; only the stored history is lossy).
        self.dropped = 0
        #: Total events ever emitted on this bus.
        self.emitted = 0

    # ------------------------------------------------------------------
    def use_clock(self, clock: Callable[[], float]) -> None:
        """Rebind the fallback time source (e.g. to a fresh simulator)."""
        self._clock = clock

    def subscribe(
        self, subscriber: Subscriber, kinds: Optional[Iterable[str]] = None
    ) -> Subscriber:
        """Register ``subscriber`` for all events (or just ``kinds``)."""
        key = frozenset(kinds) if kinds is not None else None
        self._subscribers.append((subscriber, key))
        return subscriber

    def unsubscribe(self, subscriber: Subscriber) -> None:
        """Remove every registration of ``subscriber``."""
        remaining = [(s, k) for s, k in self._subscribers if s is not subscriber]
        if len(remaining) == len(self._subscribers):
            raise EventBusError("subscriber was never registered")
        self._subscribers = remaining

    # ------------------------------------------------------------------
    def emit(
        self,
        kind: str,
        time: Optional[float] = None,
        source: str = "",
        **attrs,
    ) -> Event:
        """Emit one event; returns it after delivering to subscribers."""
        request_id = current_request_id()
        if request_id is not None and "request_id" not in attrs:
            attrs["request_id"] = request_id
        event = Event(
            seq=self._seq,
            kind=kind,
            time=self._clock() if time is None else time,
            source=source,
            attrs=attrs,
        )
        self._seq += 1
        self.emitted += 1
        if len(self._ring) == self.capacity:
            self.dropped += 1
        self._ring.append(event)
        for subscriber, kinds in self._subscribers:
            if kinds is None or kind in kinds:
                subscriber(event)
        return event

    # ------------------------------------------------------------------
    def events(self, kind: Optional[str] = None) -> List[Event]:
        """Buffered events, oldest first (optionally one kind)."""
        if kind is None:
            return list(self._ring)
        return [e for e in self._ring if e.kind == kind]

    def last(self, count: int = 10) -> List[Event]:
        """The most recent ``count`` buffered events, oldest first."""
        if count <= 0:
            return []
        return list(self._ring)[-count:]

    def clear(self) -> None:
        """Empty the ring buffer (counters and subscribers survive)."""
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)
