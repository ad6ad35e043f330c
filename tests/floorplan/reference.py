"""The scalar reference placer: the floorplanner's executable spec.

:class:`ReferenceFloraFloorplanner` enumerates every candidate window
with a two-pointer sweep and an O(1) prefix-sum check per step, reading
the occupancy grid one cell at a time. It is orders of magnitude slower
than :class:`~repro.floorplan.flora.FloraFloorplanner` but trivially
auditable; the equivalence tests assert both produce identical
:class:`~repro.floorplan.flora.Floorplan`s (relaxation ladder included)
on seeded random demand sets. Only ``_place_one`` differs: plan order,
relaxation ladder and demand inflation are shared.
"""

from typing import List, Optional, Tuple

import numpy as np

from repro.errors import FloorplanError
from repro.fabric.pblock import Pblock
from repro.fabric.resources import ResourceVector
from repro.floorplan.flora import FloraFloorplanner, RegionAssignment


def _unblocked_runs(blocked: List[bool]) -> List[Tuple[int, int]]:
    """Maximal inclusive [lo, hi] runs of False in a boolean mask."""
    runs: List[Tuple[int, int]] = []
    start: Optional[int] = None
    for index, is_blocked in enumerate(blocked):
        if not is_blocked and start is None:
            start = index
        elif is_blocked and start is not None:
            runs.append((start, index - 1))
            start = None
    if start is not None:
        runs.append((start, len(blocked) - 1))
    return runs


class ReferenceFloraFloorplanner(FloraFloorplanner):
    """The original scalar per-window search."""

    def _window_satisfies(
        self, need: np.ndarray, col_lo: int, col_hi: int, height: int
    ) -> bool:
        window = (self._prefix[col_hi + 1] - self._prefix[col_lo]) * height
        return bool(np.all(window >= need))

    def _place_one(
        self,
        rp_name: str,
        demand: ResourceVector,
        occupied: np.ndarray,
        utilization: Optional[float] = None,
    ) -> RegionAssignment:
        inflated = self._inflated(demand, utilization)
        need = np.array([inflated.get(kind) for kind in self._kinds], dtype=np.int64)
        device = self.device
        forbidden = set(device.forbidden_columns())
        best: Optional[Pblock] = None
        best_key: Optional[Tuple[int, int, int]] = None

        for height in range(1, self.max_height + 1):
            for row_lo in range(0, device.region_rows - height + 1):
                row_hi = row_lo + height - 1
                blocked = [
                    (x in forbidden)
                    or any(occupied[x, row] for row in range(row_lo, row_hi + 1))
                    for x in range(device.num_columns)
                ]
                # Two-pointer sweep within each maximal unblocked run.
                for run_lo, run_hi in _unblocked_runs(blocked):
                    col_hi = run_lo
                    for col_lo in range(run_lo, run_hi + 1):
                        col_hi = max(col_hi, col_lo)
                        while col_hi <= run_hi and not self._window_satisfies(
                            need, col_lo, col_hi, height
                        ):
                            col_hi += 1
                        if col_hi > run_hi:
                            break  # even the full run cannot satisfy the need
                        area = (col_hi - col_lo + 1) * height
                        key = (area, col_lo, row_lo)
                        if best_key is None or key < best_key:
                            best = Pblock(
                                name=f"pblock_{rp_name}",
                                col_lo=col_lo,
                                col_hi=col_hi,
                                row_lo=row_lo,
                                row_hi=row_hi,
                            )
                            best_key = key

        if best is None:
            raise FloorplanError(
                f"cannot place RP {rp_name!r}: demand {demand} (inflated "
                f"{inflated}) does not fit the remaining fabric of {device.name}"
            )
        return RegionAssignment(
            rp_name=rp_name,
            pblock=best,
            demand=demand,
            provided=best.resources(self.device),
        )
