"""Event heap and primitive events of the simulation kernel."""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.obs.instrumentation import Instrumentation


class Event:
    """A one-shot occurrence processes can wait on.

    Lifecycle: *pending* → ``succeed()``/``fail()`` → *triggered* (queued
    on the heap) → *processed* (callbacks ran). Waiting on an already
    processed event resumes the waiter immediately at the current time.

    Events are the unit object of every simulated operation, so the
    whole hierarchy is ``__slots__``-flattened: no per-instance dict,
    fixed-offset attribute loads on the dispatch hot path.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_exception",
        "triggered",
        "processed",
        "cancelled",
    )

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self.triggered = False
        self.processed = False
        self.cancelled = False

    # ------------------------------------------------------------------
    @property
    def value(self) -> Any:
        """The success value (None until triggered)."""
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, if the event failed."""
        return self._exception

    @property
    def ok(self) -> bool:
        """True if the event succeeded."""
        return self.triggered and self._exception is None

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self.triggered:
            raise SimulationError("event already triggered")
        self._value = value
        self.triggered = True
        self.sim._queue_event(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure; waiters see the exception."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._exception = exception
        self.triggered = True
        self.sim._queue_event(self)
        return self

    def cancel(self) -> "Event":
        """Withdraw a not-yet-processed event from the kernel.

        A cancelled event's callbacks never run and — crucially for
        watchdog races — the kernel clock never advances to its fire
        time: a lost deadline timeout does not drag the simulation out
        to its original expiry. Cancelling an already processed event
        is a no-op (the loser of a race may have fired first).
        """
        if not self.processed:
            self.cancelled = True
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed."""
        if self.processed:
            # Late subscription: schedule an immediate wake-up so the
            # caller still runs at the current simulation time.
            immediate = Event(self.sim)
            immediate.callbacks.append(lambda _evt: callback(self))
            if self._exception is None:
                immediate.succeed(self._value)
            else:
                # Propagate the original failure to the late waiter too.
                immediate._value = self._value
                immediate._exception = self._exception
                immediate.triggered = True
                self.sim._queue_event(immediate)
        else:
            self.callbacks.append(callback)

    def _process(self) -> None:
        self.processed = True
        callbacks, self.callbacks = self.callbacks, []
        profiler = self.sim._profiler
        if profiler is None:
            for callback in callbacks:
                callback(self)
            return
        # Per-callback-site attribution: the frame name is the
        # callback's qualified name (``Process._resume``,
        # ``AllOf.__init__.<locals>.<lambda>``, ...), which is stable
        # run to run and names the layer the time belongs to.
        for callback in callbacks:
            profiler.begin(
                getattr(callback, "__qualname__", None) or type(callback).__name__
            )
            try:
                callback(self)
            finally:
                profiler.end()


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay}")
        super().__init__(sim)
        self.delay = delay
        self._value = value
        self.triggered = True
        sim._queue_event(self, delay=delay)


class AllOf(Event):
    """Fires when every child event has been processed successfully."""

    __slots__ = ("_pending", "_results")

    def __init__(self, sim: "Simulator", events: List[Event]) -> None:
        super().__init__(sim)
        self._pending = len(events)
        if self._pending == 0:
            self.succeed([])
            return
        self._results: List[Any] = [None] * len(events)
        for index, event in enumerate(events):
            event.add_callback(lambda evt, i=index: self._child_done(evt, i))

    def _child_done(self, event: Event, index: int) -> None:
        if self.triggered:
            return
        if event.exception is not None:
            self.fail(event.exception)
            return
        self._results[index] = event.value
        self._pending -= 1
        if self._pending == 0:
            self.succeed(list(self._results))


class AnyOf(Event):
    """Fires when the first child event is processed."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: List[Event]) -> None:
        super().__init__(sim)
        if not events:
            raise SimulationError("AnyOf needs at least one event")
        for event in events:
            event.add_callback(self._child_done)

    def _child_done(self, event: Event) -> None:
        if self.triggered:
            return
        if event.exception is not None:
            self.fail(event.exception)
        else:
            self.succeed(event.value)


class Simulator:
    """The event loop: a time-ordered heap of triggered events."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        # Optional observability hooks; None keeps the dispatch loop on
        # its uninstrumented fast path (a single attribute test).
        self._profiler = None
        self._tracer = None
        # dispatch:<Type> frame names, interned per event type so the
        # instrumented loop does not rebuild the string per event.
        self._dispatch_names: dict = {}

    def attach_observability(self, instrumentation: "Instrumentation") -> None:
        """Bind a probe's profiler and tracer to the dispatch loop.

        The loop keeps the two sinks themselves; with both off (None)
        the hot path stays a plain loop. The profiler gets a
        ``dispatch:<Type>`` frame per processed event (charged the
        clock advance as simulated time) and a frame per callback site;
        the tracer gets a zero-duration instant for every cancelled
        event withdrawn from the heap.
        """
        self._profiler = instrumentation.profiler
        self._tracer = instrumentation.tracer

    # ------------------------------------------------------------------
    # event construction helpers
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` after now."""
        return Timeout(self, delay, value)

    def all_of(self, events: List[Event]) -> AllOf:
        """Barrier over ``events``."""
        return AllOf(self, events)

    def any_of(self, events: List[Event]) -> AnyOf:
        """First-of-``events`` selector."""
        return AnyOf(self, events)

    def process(self, generator) -> "Process":
        """Spawn a process from a generator (see :class:`Process`)."""
        from repro.sim.process import Process

        return Process(self, generator)

    # ------------------------------------------------------------------
    # scheduling and execution
    # ------------------------------------------------------------------
    def _queue_event(self, event: Event, delay: float = 0.0) -> None:
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))
        self._seq += 1

    def _discard_cancelled(self, event: Event) -> None:
        """Account a withdrawn event popped off the heap.

        Cancelled events run no callbacks and never advance the clock;
        observability still sees them — as a ``cancelled:<Type>`` leaf
        in the profile and a zero-duration instant in the trace —
        instead of a dangling open span.
        """
        if self._profiler is not None:
            self._profiler.record_leaf(f"cancelled:{type(event).__name__}")
        if self._tracer is not None:
            self._tracer.instant(
                f"cancelled:{type(event).__name__}",
                category="kernel.cancelled",
                track="sim/kernel",
            )

    def step(self) -> None:
        """Process the single next event."""
        if not self._heap:
            raise SimulationError("no scheduled events")
        when, _seq, event = heapq.heappop(self._heap)
        if event.cancelled:
            # Withdrawn: no callbacks, no clock advance.
            self._discard_cancelled(event)
            return
        if when < self.now:
            raise SimulationError("time went backwards (kernel bug)")
        if self._profiler is None:
            self.now = when
            event._process()
            return
        # Dispatch frame per event type; the clock advance this event
        # causes is its simulated-time attribution, so the dispatch
        # nodes' sim_s sums to the final simulation time.
        advance = when - self.now
        self.now = when
        event_type = type(event)
        name = self._dispatch_names.get(event_type)
        if name is None:
            name = self._dispatch_names[event_type] = f"dispatch:{event_type.__name__}"
        self._profiler.begin(name)
        try:
            self._profiler.add_sim(advance)
            event._process()
        finally:
            self._profiler.end()

    def run(self, until: Optional[float] = None) -> float:
        """Run until the heap drains or simulated time reaches ``until``.

        Returns the final simulation time.
        """
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
        if self._profiler is None and self._tracer is None:
            return self._run_fast(until)
        while self._heap:
            if self._heap[0][2].cancelled:
                self._discard_cancelled(heapq.heappop(self._heap)[2])
                continue
            when = self._heap[0][0]
            if until is not None and when > until:
                self.now = until
                return self.now
            self.step()
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def _run_fast(self, until: Optional[float]) -> float:
        """The monomorphic uninstrumented dispatch loop.

        With no profiler and no tracer attached there is exactly one
        shape of work per event: peek, skip if withdrawn, advance the
        clock, run the callbacks. Hoisting the heap and heappop into
        locals and bypassing :meth:`step`'s per-call re-dispatch keeps
        this loop free of attribute lookups and branch soup — it is the
        innermost loop of every deployment.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap:
            entry = heap[0]
            if entry[2].cancelled:
                # Lazy deletion: withdrawn entries pop without running
                # callbacks or advancing the clock.
                pop(heap)
                continue
            when = entry[0]
            if until is not None and when > until:
                self.now = until
                return until
            if when < self.now:
                raise SimulationError("time went backwards (kernel bug)")
            pop(heap)
            self.now = when
            entry[2]._process()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    @property
    def pending_events(self) -> int:
        """Number of triggered-but-unprocessed events on the heap."""
        return sum(1 for _, _, event in self._heap if not event.cancelled)
