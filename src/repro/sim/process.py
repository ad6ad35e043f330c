"""Generator-based processes for the simulation kernel.

A process body is a generator that yields :class:`~repro.sim.kernel.Event`
objects; the process suspends until each yielded event is processed and
receives the event's value as the result of the ``yield`` expression.
Failures propagate into the generator as thrown exceptions, so ordinary
``try/except`` works. The process itself is an event that triggers with
the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.errors import SimulationError
from repro.sim.kernel import Event, Simulator


class Process(Event):
    """A running coroutine inside a :class:`Simulator`."""

    __slots__ = ("_generator", "_resume_cb")

    def __init__(self, sim: Simulator, generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(
                "Process needs a generator; did you call the function with ()?"
            )
        super().__init__(sim)
        self._generator = generator
        # One bound method per process, reused for every re-subscription.
        self._resume_cb = self._resume
        # Kick off the process at the current time via an immediate event.
        start = Event(sim)
        start.callbacks.append(self._resume_cb)
        start.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        if self.triggered:
            return
        try:
            exception = event._exception
            if exception is not None:
                target = self._generator.throw(exception)
            else:
                target = self._generator.send(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process bodies may raise anything
            self.fail(exc)
            return

        if not isinstance(target, Event):
            self.fail(
                SimulationError(
                    f"process yielded {type(target).__name__}, expected an Event"
                )
            )
            return
        if target.sim is not self.sim:
            self.fail(SimulationError("process yielded an event from another simulator"))
            return
        if target.processed:
            target.add_callback(self._resume_cb)
        else:
            target.callbacks.append(self._resume_cb)
