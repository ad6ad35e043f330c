"""The 2D mesh the NoC latency model is priced on."""

from __future__ import annotations

from typing import Tuple

from repro.errors import NocError


class Mesh:
    """A rows x cols mesh of routers with one clock and pipeline depth."""

    def __init__(
        self,
        rows: int,
        cols: int,
        clock_hz: float = 78e6,
        pipeline_cycles: int = 4,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise NocError("mesh dimensions must be positive")
        self.rows = rows
        self.cols = cols
        self.clock_hz = clock_hz
        #: Router pipeline depth in cycles (route compute + VC alloc +
        #: switch + link).
        self.pipeline_cycles = pipeline_cycles

    def check_position(self, pos: Tuple[int, int]) -> None:
        """Raise unless ``pos`` is on the grid."""
        row, col = pos
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise NocError(f"position {pos} outside {self.rows}x{self.cols} mesh")
