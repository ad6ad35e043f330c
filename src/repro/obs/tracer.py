"""The trace-only recorder.

A :class:`Tracer` is a :class:`~repro.obs.recorder.Recorder` with the
profile off: it keeps the records the Chrome trace-event export reads,
each on the clock its producer names, and folds nothing.
"""

from __future__ import annotations

from repro.obs.recorder import Recorder


class Tracer(Recorder):
    """A recorder that traces and does not profile."""

    def __init__(self) -> None:
        super().__init__(trace=True, profile=False)
