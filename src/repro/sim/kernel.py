"""Ready queue, event heap and primitive events of the simulation kernel.

Dispatch order is exact (time, seq) order: events due at different
times run in time order, and events due at the same time run in the
order they were queued. The kernel keeps that order with two queues:

* a FIFO *ready queue* (a ``deque``) holding every event due at the
  current time ``now``, in the order it was queued;
* a *future heap* of ``(time, seq, event)`` entries strictly later
  than ``now``, ``seq`` breaking ties in queue order.

An event whose computed fire time equals ``now`` — a ``succeed``, a
zero delay, or a delay too small to move a large clock — is appended
to the ready queue and never touches the heap. Only when the ready
queue drains does the clock advance: cancelled heap heads are dropped
without moving the clock, ``now`` jumps to the next head's time and
every heap entry due at exactly that time moves, in (time, seq) order,
into the ready queue. Everything a heap entry at that time could have
been queued behind was queued earlier, so the moved entries precede
anything queued later at the same time and FIFO order is preserved.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Deque, List, Optional, Tuple

from repro.errors import SimulationError
from repro.obs.recorder import DES_S

if TYPE_CHECKING:
    from repro.obs.instrumentation import Instrumentation


class Event:
    """A one-shot occurrence processes can wait on.

    Lifecycle: *pending* → ``succeed()``/``fail()`` → *triggered*
    (queued on the ready queue) → *processed* (callbacks ran). Waiting
    on an already processed event resumes the waiter immediately at the
    current time.

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
        self.sim._ready.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with a failure; waiters see the exception."""
        if self.triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._exception = exception
        self.triggered = True
        self.sim._ready.append(self)
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
                self.sim._ready.append(immediate)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            if delay != delay:
                raise SimulationError("timeout delay is NaN")
            raise SimulationError(f"negative timeout delay: {delay}")
        # The most frequently built event, and born triggered: each
        # slot is set once, here.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self.triggered = True
        self.processed = False
        self.cancelled = False
        self.delay = delay
        # Route by the computed fire time, not by ``delay == 0``: a
        # delay below the clock's resolution fires now, and must queue
        # behind everything already due now.
        now = sim.now
        when = now + delay
        if when == now:
            sim._ready.append(self)
        else:
            heapq.heappush(sim._heap, (when, sim._seq, self))
            sim._seq += 1


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
    """The event loop: a ready queue for now, a heap for later."""

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Triggered events due at ``now``, in queue order.
        self._ready: Deque[Event] = deque()
        #: ``(time, seq, event)`` entries strictly later than ``now``.
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = 0
        # Optional observability hooks; None keeps the dispatch loop on
        # its uninstrumented fast path (a single attribute test).
        self._recorder = None
        self._fold = None
        # dispatch:<Type> frame names, interned per event type so the
        # instrumented loop does not rebuild the string per event.
        self._dispatch_names: dict = {}

    def attach_observability(self, instrumentation: "Instrumentation") -> None:
        """Bind a probe's recorder to the dispatch loop.

        With the recorder off (None) the hot path stays a plain loop.
        Every cancelled event withdrawn from the queues becomes one
        zero-duration record (a trace instant, a profile count). With
        the profile on, each processed event counts one call of its
        ``dispatch:<Type>`` node (charged the clock advance as
        simulated time) and each callback runs in one frame below it.
        """
        self._recorder = instrumentation.recorder
        self._fold = instrumentation.profiler

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
        return Process(self, generator)

    # ------------------------------------------------------------------
    # scheduling and execution
    # ------------------------------------------------------------------
    def _discard_cancelled(self, event: Event) -> None:
        """Account a withdrawn event taken off a queue.

        Cancelled events run no callbacks and never advance the clock;
        observability still sees them — one ``cancelled:<Type>`` instant
        record, which the trace exports and the profile counts under the
        open frame — instead of a dangling open span.
        """
        recorder = self._recorder
        if recorder is not None:
            recorder.record(
                f"cancelled:{type(event).__name__}",
                self.now,
                self.now,
                DES_S,
                category="kernel.cancelled",
                track="sim/kernel",
                instant=True,
            )

    def step(self) -> None:
        """Process the single next queue entry.

        A cancelled entry is withdrawn (one step, no clock advance).
        """
        advance = 0.0
        if not self._ready:
            heap = self._heap
            if not heap:
                raise SimulationError("no scheduled events")
            if heap[0][2].cancelled:
                self._discard_cancelled(heapq.heappop(heap)[2])
                return
            advance = self._advance()
        event = self._ready.popleft()
        if event.cancelled:
            self._discard_cancelled(event)
            return
        self._dispatch(event, advance)

    def _advance(self) -> float:
        """Move the clock to the heap head's time; return the advance.

        Called with the ready queue drained and a live heap head: every
        heap entry due at exactly the new time moves, in (time, seq)
        order, into the ready queue.
        """
        heap = self._heap
        when = heap[0][0]
        if when < self.now:
            raise SimulationError("time went backwards (kernel bug)")
        advance = when - self.now
        self.now = when
        ready = self._ready
        while heap and heap[0][0] == when:
            ready.append(heapq.heappop(heap)[2])
        return advance

    def _dispatch(self, event: Event, advance: float) -> None:
        """Process ``event``: mark it, then run its callbacks.

        With the profile on the event counts one call of its
        ``dispatch:<Type>`` node, charged ``advance`` — the clock advance
        it is the first event to see — as simulated time, so the
        dispatch nodes' ``sim_s`` sums to the final simulation time;
        each callback runs in one frame below that node, named by its
        qualified name (``Process._resume``,
        ``AllOf.__init__.<locals>.<lambda>``, ...), which is stable run
        to run and names the layer the time belongs to. That is one
        recorder enter/exit per callback and none per event.
        """
        event.processed = True
        callbacks = event.callbacks
        event.callbacks = []
        fold = self._fold
        if fold is None:
            for callback in callbacks:
                callback(event)
            return
        event_type = type(event)
        name = self._dispatch_names.get(event_type)
        if name is None:
            name = self._dispatch_names[event_type] = f"dispatch:{event_type.__name__}"
        node = fold.count(name, advance)
        for callback in callbacks:
            fold.enter(
                getattr(callback, "__qualname__", None) or type(callback).__name__,
                node,
            )
            try:
                callback(event)
            finally:
                fold.exit()

    def run(self, until: Optional[float] = None) -> float:
        """Run until both queues drain or simulated time reaches ``until``.

        Returns the final simulation time.
        """
        if until is not None:
            if until != until:
                raise SimulationError("until is NaN")
            if until < self.now:
                raise SimulationError(f"until={until} is in the past (now={self.now})")
        if self._recorder is None:
            return self._run_fast(until)
        ready = self._ready
        heap = self._heap
        while True:
            advance = 0.0
            if not ready:
                while heap and heap[0][2].cancelled:
                    self._discard_cancelled(heapq.heappop(heap)[2])
                if not heap:
                    break
                if until is not None and heap[0][0] > until:
                    self.now = until
                    return until
                advance = self._advance()
            event = ready.popleft()
            if event.cancelled:
                self._discard_cancelled(event)
                continue
            self._dispatch(event, advance)
        if until is not None:
            self.now = max(self.now, until)
        return self.now

    def _run_fast(self, until: Optional[float]) -> float:
        """The monomorphic uninstrumented dispatch loop.

        With no recorder attached there is exactly one
        shape of work per event: pop the ready queue, skip it if
        withdrawn, run its callbacks (``_dispatch`` inlined). The heap
        is touched once per distinct fire time, not once per event: it
        is the innermost loop of every deployment.
        """
        ready = self._ready
        popleft = ready.popleft
        heap = self._heap
        pop = heapq.heappop
        while True:
            while ready:
                event = popleft()
                if event.cancelled:
                    continue
                event.processed = True
                callbacks = event.callbacks
                event.callbacks = []
                for callback in callbacks:
                    callback(event)
            # Lazy deletion: withdrawn heap heads go without running
            # callbacks or advancing the clock.
            while heap and heap[0][2].cancelled:
                pop(heap)
            if not heap:
                break
            if until is not None and heap[0][0] > until:
                self.now = until
                return until
            self._advance()
        if until is not None and until > self.now:
            self.now = until
        return self.now

    @property
    def pending_events(self) -> int:
        """Number of triggered-but-unprocessed events still queued."""
        return sum(1 for event in self._ready if not event.cancelled) + sum(
            1 for _, _, event in self._heap if not event.cancelled
        )


# Process subclasses Event, so it lives in its own module and is bound
# here once, after Event exists, instead of imported on every spawn.
from repro.sim.process import Process  # noqa: E402  (import cycle, see above)
