"""The one instrumentation value every layer takes.

The reproduction observes itself through three sinks: the recorder
(one record stream feeding the Chrome trace and the call-path profile,
see :mod:`repro.obs.recorder`), a metrics registry and an event bus.
Instrumented code never holds them separately: it takes one
:class:`Instrumentation` (the probe) and calls the probe's operations
— ``record``, host ``frame``, ``emit``, and
``counter``/``gauge``/``histogram``.

A sink that is off is ``None``, and each operation on an off sink does
nothing, so ``OFF = Instrumentation()`` is the single null probe and
call sites need no conditionals. Hot paths (the DES dispatch loop, the
PRC transfer model) read the sink they need once (``probe.tracer``,
``probe.profiler``: the recorder when that export is on) and test it
against ``None``, which keeps the uninstrumented fast paths selected
when the probe is off.

A pool worker records into fresh sinks of the kinds live in the parent
(:attr:`Instrumentation.sinks`) and ships them back as one
:meth:`Instrumentation.payload`, which the parent replays with one
:meth:`Instrumentation.merge`.
"""

from __future__ import annotations

import contextlib
import multiprocessing
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.obs.events import Event, EventBus
from repro.obs.metrics import DEFAULT_BUCKETS, MetricsRegistry
from repro.obs.recorder import DEFAULT_TRACK, Record, Recorder, RecordingError


class _Inert:
    """The one inert instrument (and frame) the probe hands out while off."""

    __slots__ = ()

    def inc(self, value: float = 1.0, **labels) -> None:
        pass

    def set(self, value: float, **labels) -> None:
        pass

    def observe(self, value: float, **labels) -> None:
        pass

    def charge(self, seconds: float) -> None:
        pass


_INERT = _Inert()

#: The shared frame of a probe whose profile is off: nothing is
#: allocated per call.
NO_FRAME = contextlib.nullcontext(_INERT)


@dataclass(frozen=True, init=False)
class Instrumentation:
    """The recorder/metrics/events probe instrumented code takes.

    Each sink defaults to ``None`` (off), so partially enabled probes
    (say, events only) are built by naming just that sink. ``tracer=``
    and ``profiler=`` name the recorder by what it is for (a
    :class:`~repro.obs.tracer.Tracer`, a
    :class:`~repro.obs.profiler.Profiler`); a probe holds one recorder.
    """

    recorder: Optional[Recorder] = None
    metrics: Optional[MetricsRegistry] = None
    events: Optional[EventBus] = None

    def __init__(
        self,
        recorder: Optional[Recorder] = None,
        metrics: Optional[MetricsRegistry] = None,
        events: Optional[EventBus] = None,
        tracer: Optional[Recorder] = None,
        profiler: Optional[Recorder] = None,
    ) -> None:
        given = {r for r in (recorder, tracer, profiler) if r is not None}
        if len(given) > 1:
            raise RecordingError(
                "a probe holds one recorder: use Recorder(trace=True, profile=True)"
            )
        object.__setattr__(self, "recorder", given.pop() if given else None)
        object.__setattr__(self, "metrics", metrics)
        object.__setattr__(self, "events", events)

    @property
    def tracer(self) -> Optional[Recorder]:
        """The recorder when its trace is on, else None."""
        recorder = self.recorder
        return recorder if recorder is not None and recorder.trace else None

    @property
    def profiler(self) -> Optional[Recorder]:
        """The recorder when its profile is on, else None."""
        recorder = self.recorder
        return recorder if recorder is not None and recorder.profile else None

    @property
    def enabled(self) -> bool:
        """True when any sink is live."""
        return not (
            self.recorder is None and self.metrics is None and self.events is None
        )

    @property
    def sinks(self) -> Tuple[str, ...]:
        """Names of the live sinks (what a pool worker activates)."""
        live = (
            ("trace", self.tracer),
            ("profile", self.profiler),
            ("metrics", self.metrics),
            ("events", self.events),
        )
        return tuple(name for name, sink in live if sink is not None)

    def use_clock(self, clock: Callable[[], float]) -> None:
        """Rebind the bus's time source (e.g. to a DES)."""
        if self.events is not None:
            self.events.use_clock(clock)

    # ------------------------------------------------------------------
    # records and frames
    # ------------------------------------------------------------------
    def record(
        self,
        name: str,
        start: float,
        end: float,
        clock: str,
        category: str = "",
        track: Optional[str] = DEFAULT_TRACK,
        parent: Optional[Record] = None,
        sim_s: Optional[float] = None,
        path: Optional[Sequence[str]] = None,
        **attrs,
    ) -> Optional[Record]:
        """Record ``[start, end]`` on ``clock`` (see :meth:`Recorder.record`)."""
        if self.recorder is None:
            return None
        return self.recorder.record(
            name, start, end, clock, category, track, parent, sim_s, path, **attrs
        )

    def frame(self, name: str):
        """Context manager timing one host frame (:data:`NO_FRAME` when off)."""
        profiler = self.profiler
        return NO_FRAME if profiler is None else profiler.frame(name)

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

    # ------------------------------------------------------------------
    # the worker payload
    # ------------------------------------------------------------------
    def payload(self) -> Dict:
        """Everything the live sinks observed, picklable, for :meth:`merge`."""
        return {
            "worker": multiprocessing.current_process().name,
            "recorder": self.recorder.payload() if self.recorder is not None else None,
            "events": [
                (event.kind, event.time, event.source, event.attrs)
                for event in (self.events.events() if self.events is not None else ())
            ],
            "metrics": self.metrics.instruments() if self.metrics is not None else [],
        }

    def merge(self, payload: Dict, at: Sequence[str] = ()) -> None:
        """Replay a worker's :meth:`payload`: the fold grafted under ``at``,
        records tagged with the worker name, events and metrics re-emitted."""
        if payload["recorder"] and self.recorder is not None:
            self.recorder.merge(payload["recorder"], at=at, tag=payload["worker"])
        for kind, time_, source, attrs in payload["events"]:
            self.emit(kind, time_, source, **attrs)
        for instrument in payload["metrics"]:
            self.metrics.merge(instrument)


#: The shared fully disabled probe (every sink off).
OFF = Instrumentation()
