"""The heap-only reference kernel: the dispatch order's executable spec.

:class:`ReferenceSimulator` is the kernel as it was before the ready
queue: every triggered event — a ``succeed``, a zero delay, a late
subscription — is pushed on one ``(time, seq, event)`` heap and popped
from it, one entry per step. It is slower but trivially auditable; the
equivalence tests assert that both kernels dispatch seeded random
programs in the same (label, time) order and charge the profiler the
same simulated time per ``dispatch:<Type>`` frame. Only the queueing
differs: events, processes, resources and the per-event dispatch
(callbacks and profiler frames) are the production code.
"""

import heapq

from repro.errors import SimulationError
from repro.sim.kernel import Simulator


class _HeapRouter:
    """Stands in for the ready deque: every append goes on the heap."""

    def __init__(self, sim: "ReferenceSimulator") -> None:
        self._sim = sim

    def append(self, event) -> None:
        sim = self._sim
        heapq.heappush(sim._heap, (sim.now, sim._seq, event))
        sim._seq += 1

    def __iter__(self):  # nothing waits here (``pending_events``)
        return iter(())


class ReferenceSimulator(Simulator):
    """The original kernel: one heap, one pop per dispatched event."""

    def __init__(self) -> None:
        super().__init__()
        self._ready = _HeapRouter(self)

    def step(self) -> None:
        if not self._heap:
            raise SimulationError("no scheduled events")
        when, _seq, event = heapq.heappop(self._heap)
        if event.cancelled:
            self._discard_cancelled(event)
            return
        if when < self.now:
            raise SimulationError("time went backwards (kernel bug)")
        advance = when - self.now
        self.now = when
        self._dispatch(event, advance)

    def run(self, until=None) -> float:
        if until is not None and until < self.now:
            raise SimulationError(f"until={until} is in the past (now={self.now})")
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
