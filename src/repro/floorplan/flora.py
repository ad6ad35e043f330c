"""The FLORA-style pblock packer.

FLORA formulates DPR floorplanning as an optimization over column-
granular rectangles; this adaptation keeps its essential structure —
column-aware candidate enumeration, per-resource coverage, forbidden
column avoidance, non-overlap — with a deterministic best-fit heuristic
in place of the MILP (the flow only needs *a* legal floorplan; pblock
geometry does not feed the runtime model).

Each placement runs in two vectorized steps:

1. **Window search.** Whether a window covers the inflated demand does
   not depend on occupancy: a window of height ``h`` anchored at column
   ``a`` satisfies resource ``k`` iff its column sum reaches
   ``ceil(need_k / h)``. The fabric's per-resource column prefix sums
   are non-decreasing, so the minimal satisfying ``col_hi`` for every
   (height, anchor) pair is one ``np.searchsorted`` per resource kind
   over a ``(max_height, num_columns)`` array of targets. The feasible
   pairs are then ordered best first by (area, col_lo, height).
2. **Free-band check.** The ordered windows are tested in growing
   batches against a summed-area table of blocked cells (occupied, or
   in a forbidden column): a row band is free iff its blocked count is
   zero. The first batch with a free window stops the search; the
   winner is the lexicographic minimum of (area, col_lo, row_lo,
   height) — leftmost, bottom-most, then shortest on equal area.

The scalar two-pointer search this replaces lives on in the tests as
the executable specification the plans are pinned to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FloorplanError
from repro.fabric.device import Device
from repro.fabric.pblock import Pblock
from repro.fabric.resources import ResourceKind, ResourceVector

#: Windows tested against the occupancy in the first free-band batch;
#: each further batch doubles.
FIRST_BATCH = 64


@dataclass(frozen=True)
class RegionAssignment:
    """One RP's placement with its demand and provided resources."""

    rp_name: str
    pblock: Pblock
    demand: ResourceVector
    provided: ResourceVector

    @property
    def lut_utilization(self) -> float:
        """Demanded over provided LUTs."""
        return self.demand.lut / max(self.provided.lut, 1)


@dataclass(frozen=True)
class Floorplan:
    """A complete floorplan: one assignment per RP."""

    device_name: str
    assignments: Tuple[RegionAssignment, ...]

    def pblocks(self) -> List[Pblock]:
        """All pblocks in assignment order."""
        return [a.pblock for a in self.assignments]

    @cached_property
    def _by_name(self) -> Dict[str, RegionAssignment]:
        return {assignment.rp_name: assignment for assignment in self.assignments}

    def assignment_for(self, rp_name: str) -> RegionAssignment:
        """Assignment lookup by RP name (cached name->assignment map)."""
        assignment = self._by_name.get(rp_name)
        if assignment is None:
            raise FloorplanError(f"no assignment for RP {rp_name!r}")
        return assignment


class FloraFloorplanner:
    """Deterministic best-fit floorplanner over a device."""

    def __init__(
        self,
        device: Device,
        target_utilization: float = 0.7,
        max_height_regions: Optional[int] = None,
    ) -> None:
        if not 0.1 <= target_utilization <= 1.0:
            raise FloorplanError(
                f"target utilization must be in [0.1, 1.0], got {target_utilization}"
            )
        self.device = device
        self.target_utilization = target_utilization
        self.max_height = max_height_regions or device.region_rows
        self._forbidden_mask = np.zeros(device.num_columns, dtype=bool)
        self._forbidden_mask[device.forbidden_columns()] = True
        # Per-resource prefix sums over column segments: prefix[x][k] is
        # the sum of resource k over columns [0, x) — owned and cached
        # by the device, shared across every planner instance.
        self._kinds = list(ResourceKind)
        self._prefix = device.resource_prefix()
        # Contiguous per-kind views: searchsorted needs 1-D sorted input.
        self._prefix_by_kind = [
            np.ascontiguousarray(self._prefix[:, k]) for k in range(len(self._kinds))
        ]
        # Broadcast axes of the window search: band heights down, anchor
        # columns across.
        self._heights = np.arange(1, self.max_height + 1, dtype=np.int64)[:, None]
        self._anchors = np.arange(device.num_columns, dtype=np.int64)
        self._rows = np.arange(device.region_rows, dtype=np.int64)

    # ------------------------------------------------------------------
    def plan(self, demands: Sequence[Tuple[str, ResourceVector]]) -> Floorplan:
        """Place every RP; raises :class:`FloorplanError` if any fails.

        RPs are placed in descending LUT-demand order (hardest first),
        but the returned assignments preserve the caller's order.
        """
        if not demands:
            raise FloorplanError("nothing to floorplan")
        names = [name for name, _ in demands]
        if len(set(names)) != len(names):
            raise FloorplanError("RP names must be unique")

        device = self.device
        occupied = np.zeros((device.num_columns, device.region_rows), dtype=bool)
        placed: Dict[str, RegionAssignment] = {}
        order = sorted(demands, key=lambda item: (-item[1].lut, item[0]))
        for rp_name, demand in order:
            assignment = self._place_with_relaxation(rp_name, demand, occupied)
            placed[rp_name] = assignment
            pb = assignment.pblock
            occupied[pb.col_lo : pb.col_hi + 1, pb.row_lo : pb.row_hi + 1] = True
        return Floorplan(
            device_name=device.name,
            assignments=tuple(placed[name] for name in names),
        )

    # ------------------------------------------------------------------
    def _place_with_relaxation(
        self,
        rp_name: str,
        demand: ResourceVector,
        occupied: np.ndarray,
    ) -> RegionAssignment:
        """Place one RP, relaxing the routability headroom if needed.

        Dense designs (the paper's SOC_4 puts ~80% of the device into
        reconfigurable regions) cannot afford the full slack on every
        region; like FLORA, the planner degrades gracefully to tighter
        packing before giving up.
        """
        last_error: Optional[FloorplanError] = None
        for utilization in self._relaxation_ladder():
            try:
                return self._place_one(rp_name, demand, occupied, utilization)
            except FloorplanError as error:
                last_error = error
        assert last_error is not None
        raise last_error

    def _relaxation_ladder(self) -> List[float]:
        ladder = [self.target_utilization]
        for step in (0.8, 0.9, 0.97):
            if step > ladder[-1]:
                ladder.append(step)
        return ladder

    def _inflated(
        self, demand: ResourceVector, utilization: Optional[float] = None
    ) -> ResourceVector:
        """Demand inflated by the routability headroom (LUT/FF only;
        BRAM/DSP are column-quantized and need no slack)."""
        utilization = utilization or self.target_utilization
        return ResourceVector(
            lut=int(np.ceil(demand.lut / utilization)),
            ff=int(np.ceil(demand.ff / utilization)),
            bram=demand.bram,
            dsp=demand.dsp,
        )

    def _windows(self, need: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Every covering (height, anchor) window, best first.

        Returns ``(area, col_lo, col_end, height)`` arrays (``col_end``
        is ``col_hi + 1``) sorted by (area, col_lo, height); a pair
        whose minimal window runs off the fabric is dropped.
        """
        # A window of height h satisfies resource k iff its column sum
        # reaches ceil(need_k / h) — both sides of "sum * h >= need" are
        # integers. Sums start at the anchor, so the minimal end column
        # is the first prefix index reaching prefix[anchor] + threshold.
        thresholds = -(-need // self._heights)
        col_end = self._anchors + 1
        for k, prefix_k in enumerate(self._prefix_by_kind):
            targets = prefix_k[:-1] + thresholds[:, k : k + 1]
            col_end = np.maximum(
                col_end, np.searchsorted(prefix_k, targets, side="left")
            )
        # One integer sort key over the (height, anchor) grid — area,
        # then col_lo, then height — unique per pair, so any sort gives
        # the same order; windows that run off the fabric sort last.
        num_columns = self.device.num_columns
        area = (col_end - self._anchors) * self._heights
        key = (area * num_columns + self._anchors) * self.max_height + self._heights
        fits = col_end <= num_columns
        key[~fits] = np.iinfo(np.int64).max
        order = np.argsort(key, axis=None)[: np.count_nonzero(fits)]
        height_index, col_lo = np.divmod(order, num_columns)
        return area.ravel()[order], col_lo, col_end.ravel()[order], height_index + 1

    def _lowest_free_rows(
        self,
        blocked_sat: np.ndarray,
        col_lo: np.ndarray,
        col_end: np.ndarray,
        height: np.ndarray,
    ) -> np.ndarray:
        """Lowest free ``row_lo`` of each window, or ``region_rows`` if none.

        ``blocked_sat[c, r]`` counts the blocked cells in columns
        ``[0, c)`` x rows ``[0, r)``, so a band's blocked count is four
        lookups.
        """
        region_rows = self.device.region_rows
        rows = self._rows
        top = rows + height[:, None]
        fits = top <= region_rows
        np.minimum(top, region_rows, out=top)
        lo = col_lo[:, None]
        end = col_end[:, None]
        blocked = (
            blocked_sat[end, top]
            - blocked_sat[lo, top]
            - blocked_sat[end, rows]
            + blocked_sat[lo, rows]
        )
        free = fits & (blocked == 0)
        return np.where(free.any(axis=1), free.argmax(axis=1), region_rows)

    def _place_one(
        self,
        rp_name: str,
        demand: ResourceVector,
        occupied: np.ndarray,
        utilization: Optional[float] = None,
    ) -> RegionAssignment:
        """Smallest legal rectangle covering the inflated demand.

        Ties on area prefer the leftmost, bottom-most anchor so regions
        pack densely instead of fragmenting the fabric; area ties
        between band heights resolve to the shorter band.
        """
        inflated = self._inflated(demand, utilization)
        need = np.array([inflated.get(kind) for kind in self._kinds], dtype=np.int64)
        area, col_lo, col_end, height = self._windows(need)
        device = self.device
        blocked = occupied | self._forbidden_mask[:, None]
        blocked_sat = np.zeros(
            (device.num_columns + 1, device.region_rows + 1), dtype=np.int64
        )
        blocked_sat[1:, 1:] = blocked.cumsum(axis=0).cumsum(axis=1)

        first: Optional[int] = None
        start, size = 0, FIRST_BATCH
        while first is None and start < area.size:
            batch = slice(start, start + size)
            rows = self._lowest_free_rows(
                blocked_sat, col_lo[batch], col_end[batch], height[batch]
            )
            hits = np.flatnonzero(rows < device.region_rows)
            if hits.size:
                first = start + int(hits[0])
            start, size = start + size, size * 2
        if first is None:
            raise FloorplanError(
                f"cannot place RP {rp_name!r}: demand {demand} (inflated "
                f"{inflated}) does not fit the remaining fabric of {device.name}"
            )

        # The first free window fixes (area, col_lo). Its tie group holds
        # at most one window per height, contiguous in height order, and
        # may run past the batch; the lowest free row wins, then the
        # shorter band (argmin keeps the first minimum).
        group = first + np.flatnonzero(
            (area[first : first + self.max_height] == area[first])
            & (col_lo[first : first + self.max_height] == col_lo[first])
        )
        rows = self._lowest_free_rows(
            blocked_sat, col_lo[group], col_end[group], height[group]
        )
        pick = int(np.argmin(rows))
        winner = int(group[pick])
        row_lo = int(rows[pick])
        pblock = Pblock(
            name=f"pblock_{rp_name}",
            col_lo=int(col_lo[winner]),
            col_hi=int(col_end[winner]) - 1,
            row_lo=row_lo,
            row_hi=row_lo + int(height[winner]) - 1,
        )
        return RegionAssignment(
            rp_name=rp_name,
            pblock=pblock,
            demand=demand,
            provided=pblock.resources(self.device),
        )
