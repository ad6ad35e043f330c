"""The trace-only recorder.

A :class:`Tracer` is a :class:`~repro.obs.recorder.Recorder` with the
profile off: it keeps the records the Chrome trace-event export reads,
stamped from an injected layer clock (``"s"`` for DES simulated
seconds, ``"min"`` for modelled CAD minutes), and folds nothing.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.recorder import Recorder


class Tracer(Recorder):
    """A recorder that traces and does not profile."""

    def __init__(
        self, clock: Optional[Callable[[], float]] = None, time_unit: str = "s"
    ) -> None:
        super().__init__(trace=True, profile=False, time_unit=time_unit, clock=clock)
