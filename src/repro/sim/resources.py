"""Synchronization resources: FIFO locks and stores.

These model the kernel-side primitives the PR-ESP runtime manager is
built on: per-device mutexes (``Lock``) and work queues (``Store``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.errors import SimulationError
from repro.sim.kernel import Event, Simulator


class Lock:
    """A FIFO mutex. ``acquire()`` returns an event to yield on."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._locked = False
        self._waiters: Deque[Event] = deque()

    @property
    def locked(self) -> bool:
        """True while some process holds the lock."""
        return self._locked

    @property
    def queue_length(self) -> int:
        """Number of processes waiting to acquire."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Request the lock; the returned event fires once it is held."""
        event = Event(self.sim)
        if not self._locked:
            self._locked = True
            event.succeed(self)
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Release the lock, handing it to the next FIFO waiter if any."""
        if not self._locked:
            raise SimulationError("release of an unheld lock")
        if self._waiters:
            self._waiters.popleft().succeed(self)
        else:
            self._locked = False


class Store:
    """An unbounded (or bounded) FIFO of items with blocking get/put."""

    def __init__(self, sim: Simulator, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity <= 0:
            raise SimulationError(f"store capacity must be positive, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        # (event, pending item) pairs; Event is __slots__-flattened, so
        # the pending item rides alongside instead of on the event.
        self._putters: Deque[tuple] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def put(self, item: Any) -> Event:
        """Enqueue ``item``; blocks (pending event) when at capacity."""
        event = self.sim.event()
        if self.capacity is not None and len(self._items) >= self.capacity:
            self._putters.append((event, item))
            return event
        self._deliver(item)
        event.succeed(item)
        return event

    def get(self) -> Event:
        """Dequeue the oldest item; blocks when empty."""
        event = self.sim.event()
        if self._items:
            item = self._items.popleft()
            self._admit_waiting_putter()
            event.succeed(item)
        else:
            self._getters.append(event)
        return event

    # ------------------------------------------------------------------
    def _deliver(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def _admit_waiting_putter(self) -> None:
        if self._putters and (
            self.capacity is None or len(self._items) < self.capacity
        ):
            putter, item = self._putters.popleft()
            self._deliver(item)
            putter.succeed(item)
