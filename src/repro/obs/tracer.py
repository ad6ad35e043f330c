"""Span tracing with explicit clock injection.

The reproduction's two performance stories run on two different
clocks: the flow's stages elapse in *modelled CAD minutes* (the
`RuntimeModel` curves plus the `VivadoServer` schedule) while the
runtime manager's protocol elapses in *simulated seconds* (the DES
kernel's `sim.now`). A tracer therefore never reads a wall clock — it
is constructed with a callable that returns the current time in the
layer's own unit, and every span is stamped from that clock (or from
explicitly supplied interval bounds for post-hoc recording).

Spans live on *tracks*: a ``"process/thread"`` string that becomes the
pid/tid pair of the Chrome trace-event export. Each track keeps its
own open-span stack, so concurrent DES processes (one per tile) nest
independently and the exported trace is always well-formed per track.

Tracing is off when a layer's :class:`~repro.obs.instrumentation.
Instrumentation` probe carries no tracer; no span object is ever
allocated then.

When a :class:`~repro.obs.context.TelemetryContext` is active, every
created span is stamped with its ``request_id`` (explicit attrs win) —
the single creation point :meth:`Tracer._new_span` does it, so live,
instant, post-hoc, and replayed spans all stay joinable. With tracing
off the context variable is never consulted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import PrEspError
from repro.obs.context import current_request_id


class TracingError(PrEspError):
    """Misuse of the tracing API (unbalanced begin/end, bad interval)."""


#: Default track for spans recorded without an explicit one.
DEFAULT_TRACK = "main/main"


@dataclass
class Span:
    """One traced interval on a track."""

    span_id: int
    name: str
    category: str
    track: str
    start: float
    end: Optional[float] = None
    parent_id: Optional[int] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    #: Zero-duration point-in-time marker (Chrome "instant" event) —
    #: e.g. a cancelled DES event withdrawn from the kernel heap.
    instant: bool = False

    @property
    def duration(self) -> float:
        """Span length in the tracer's time unit (0 while open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def closed(self) -> bool:
        """True once the span has an end time."""
        return self.end is not None


class Tracer:
    """Collects spans against an injected clock.

    ``clock`` returns the current time in ``time_unit`` (``"s"`` for
    DES simulated seconds, ``"min"`` for modelled CAD minutes); it can
    be (re)bound later with :meth:`use_clock` — the platform binds the
    deployment tracer to ``sim.now`` once the simulator exists.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        time_unit: str = "s",
    ) -> None:
        if time_unit not in ("s", "min"):
            raise TracingError(f"unknown time unit {time_unit!r} (use 's' or 'min')")
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.time_unit = time_unit
        self.spans: List[Span] = []
        self._stacks: Dict[str, List[Span]] = {}
        self._next_id = 0

    # ------------------------------------------------------------------
    def use_clock(self, clock: Callable[[], float]) -> None:
        """Rebind the time source (e.g. to a freshly built simulator)."""
        self._clock = clock

    def now(self) -> float:
        """Current time on the injected clock."""
        return self._clock()

    def _new_span(
        self,
        name: str,
        category: str,
        track: str,
        start: float,
        parent_id: Optional[int],
        attrs: Dict[str, Any],
    ) -> Span:
        request_id = current_request_id()
        if request_id is not None and "request_id" not in attrs:
            attrs = {**attrs, "request_id": request_id}
        span = Span(
            span_id=self._next_id,
            name=name,
            category=category,
            track=track,
            start=start,
            parent_id=parent_id,
            attrs=attrs,
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    # ------------------------------------------------------------------
    # live spans (clock-stamped)
    # ------------------------------------------------------------------
    def begin(
        self, name: str, category: str = "", track: str = DEFAULT_TRACK, **attrs
    ) -> Span:
        """Open a span now; it nests under the track's current span."""
        stack = self._stacks.setdefault(track, [])
        parent_id = stack[-1].span_id if stack else None
        span = self._new_span(name, category, track, self.now(), parent_id, attrs)
        stack.append(span)
        return span

    def end(self, span: Span, **attrs) -> Span:
        """Close ``span`` now; must be the innermost open span of its track."""
        stack = self._stacks.get(span.track, [])
        if not stack or stack[-1] is not span:
            raise TracingError(
                f"span {span.name!r} is not the innermost open span "
                f"of track {span.track!r}"
            )
        stack.pop()
        span.end = self.now()
        span.attrs.update(attrs)
        return span

    class _SpanContext:
        __slots__ = ("_tracer", "_name", "_category", "_track", "_attrs", "span")

        def __init__(self, tracer, name, category, track, attrs):
            self._tracer = tracer
            self._name = name
            self._category = category
            self._track = track
            self._attrs = attrs
            self.span: Optional[Span] = None

        def __enter__(self) -> Span:
            self.span = self._tracer.begin(
                self._name, self._category, self._track, **self._attrs
            )
            return self.span

        def __exit__(self, exc_type, exc, tb) -> bool:
            if exc_type is not None:
                self.span.attrs.setdefault("error", exc_type.__name__)
            self._tracer.end(self.span)
            return False

    def span(
        self, name: str, category: str = "", track: str = DEFAULT_TRACK, **attrs
    ) -> "_SpanContext":
        """Context manager: ``with tracer.span("exec", track="kernel/rt0"):``."""
        return self._SpanContext(self, name, category, track, attrs)

    def instant(
        self,
        name: str,
        category: str = "",
        track: str = DEFAULT_TRACK,
        time: Optional[float] = None,
        **attrs,
    ) -> Span:
        """Record a zero-duration instant marker (now, or at ``time``).

        Instants nest under the track's current open span but never
        open one themselves — they mark a point, not an interval, and
        export as Chrome ``"I"`` events instead of ``"X"`` spans.
        """
        when = self.now() if time is None else time
        stack = self._stacks.get(track)
        parent_id = stack[-1].span_id if stack else None
        span = self._new_span(name, category, track, when, parent_id, attrs)
        span.end = when
        span.instant = True
        return span

    # ------------------------------------------------------------------
    # post-hoc spans (explicit interval)
    # ------------------------------------------------------------------
    def record(
        self,
        name: str,
        start: float,
        end: float,
        category: str = "",
        track: str = DEFAULT_TRACK,
        parent: Optional[Span] = None,
        **attrs,
    ) -> Span:
        """Record a closed span with explicit bounds (modelled intervals)."""
        if end < start:
            raise TracingError(f"span {name!r}: end {end} before start {start}")
        span = self._new_span(
            name,
            category,
            track,
            start,
            parent.span_id if parent is not None else None,
            attrs,
        )
        span.end = end
        return span

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended (any track)."""
        return [s for stack in self._stacks.values() for s in stack]

    def spans_in(self, category: str) -> List[Span]:
        """Closed spans of one category."""
        return [s for s in self.spans if s.category == category and s.closed]

    def total_duration(self, category: str) -> float:
        """Summed duration of a category's closed spans."""
        return sum(s.duration for s in self.spans_in(category))

    def nesting_violations(self) -> List[str]:
        """Parent/child intervals that are not properly nested.

        A well-formed trace has every child span's interval inside its
        parent's. Open spans are skipped (they have no end yet).
        """
        by_id = {s.span_id: s for s in self.spans}
        problems: List[str] = []
        for span in self.spans:
            if span.parent_id is None or not span.closed:
                continue
            parent = by_id.get(span.parent_id)
            if parent is None or not parent.closed:
                continue
            if span.start < parent.start or span.end > parent.end:
                problems.append(
                    f"span {span.name!r} [{span.start}, {span.end}] escapes "
                    f"parent {parent.name!r} [{parent.start}, {parent.end}]"
                )
        return problems
