"""The one instrumentation value every layer takes.

The reproduction observes itself through four sinks: a span tracer, a
metrics registry, an event bus and a call-path profiler. Instrumented
code never holds them separately: it takes one
:class:`Instrumentation` (the probe) and calls the probe's operations
— span ``begin``/``end``/``record``, profiler ``frame``/``leaf``/
``add_sim``, ``emit``, and ``counter``/``gauge``/``histogram``.

A sink that is off is ``None``, and each operation on an off sink does
nothing, so ``OFF = Instrumentation()`` is the single null probe and
call sites need no conditionals. Hot paths (the DES dispatch loop, the
PRC transfer model) read the sink they need once and test it against
``None``, which keeps the uninstrumented fast paths selected when the
probe is off.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.obs.events import Event, EventBus
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.profiler import Profiler
from repro.obs.tracer import DEFAULT_TRACK, Span, Tracer


class _Inert:
    """The one instrument the metric operations hand out while off."""

    __slots__ = ()

    def inc(self, value: float = 1.0, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass


_INERT = _Inert()

#: Reusable do-nothing context for ``frame`` while the profiler is off.
_NO_FRAME = contextlib.nullcontext()


@dataclass(frozen=True)
class Instrumentation:
    """The tracer/metrics/events/profiler probe instrumented code takes.

    Each sink defaults to ``None`` (off), so partially enabled probes
    (say, events only) are built by naming just that sink.
    """

    tracer: Optional[Tracer] = None
    metrics: Optional[MetricsRegistry] = None
    events: Optional[EventBus] = None
    profiler: Optional[Profiler] = None

    @property
    def enabled(self) -> bool:
        """True when any sink is live."""
        return any(
            sink is not None
            for sink in (self.tracer, self.metrics, self.events, self.profiler)
        )

    def use_clock(self, clock: Callable[[], float]) -> None:
        """Rebind the tracer's and the bus's time source (e.g. to a DES)."""
        if self.tracer is not None:
            self.tracer.use_clock(clock)
        if self.events is not None:
            self.events.use_clock(clock)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def begin(
        self, name: str, category: str = "", track: str = DEFAULT_TRACK, **attrs
    ) -> Optional[Span]:
        """Open a span now (None while tracing is off)."""
        if self.tracer is None:
            return None
        return self.tracer.begin(name, category, track, **attrs)

    def end(self, span: Optional[Span], **attrs) -> None:
        """Close a span :meth:`begin` returned."""
        if span is not None:
            self.tracer.end(span, **attrs)

    def record(
        self,
        name: str,
        start: float,
        end: float,
        category: str = "",
        track: str = DEFAULT_TRACK,
        parent: Optional[Span] = None,
        **attrs,
    ) -> Optional[Span]:
        """Record a closed span with explicit bounds."""
        if self.tracer is None:
            return None
        return self.tracer.record(name, start, end, category, track, parent, **attrs)

    # ------------------------------------------------------------------
    # call-path profile
    # ------------------------------------------------------------------
    def frame(self, name: str):
        """Context manager timing one profiler frame."""
        if self.profiler is None:
            return _NO_FRAME
        return self.profiler.frame(name)

    def leaf(
        self,
        path: Union[str, Sequence[str]],
        sim_s: float = 0.0,
        anchor: str = "current",
    ) -> None:
        """Attribute a call and simulated seconds to a path, untimed."""
        if self.profiler is not None:
            self.profiler.record_leaf(path, sim_s=sim_s, anchor=anchor)

    def add_sim(self, seconds: float) -> None:
        """Attribute simulated seconds to the open frame."""
        if self.profiler is not None:
            self.profiler.add_sim(seconds)

    # ------------------------------------------------------------------
    # events and metrics
    # ------------------------------------------------------------------
    def emit(
        self, kind: str, time: Optional[float] = None, source: str = "", **attrs
    ) -> Optional[Event]:
        """Emit one event on the bus."""
        if self.events is None:
            return None
        return self.events.emit(kind, time, source, **attrs)

    def counter(self, name: str, description: str = ""):
        """Get-or-create a counter (the shared inert one while off)."""
        if self.metrics is None:
            return _INERT
        return self.metrics.counter(name, description)

    def gauge(self, name: str, description: str = ""):
        """Get-or-create a gauge (the shared inert one while off)."""
        if self.metrics is None:
            return _INERT
        return self.metrics.gauge(name, description)

    def histogram(self, name: str, description: str = "", buckets=DEFAULT_BUCKETS):
        """Get-or-create a histogram (the shared inert one while off)."""
        if self.metrics is None:
            return _INERT
        return self.metrics.histogram(name, description, buckets)


#: The shared fully disabled probe (every sink off).
OFF = Instrumentation()
