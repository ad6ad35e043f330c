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
   ``ceil(need_k / h)``. The minimal satisfying ``col_hi`` of every
   (height, anchor) pair comes from one gather per resource kind into
   the device's *level tables* (:class:`~repro.fabric.device.LevelTable`):
   every column prefix of kind ``k`` is a multiple of ``step_k``, the
   gcd of its per-column values, so the first column whose prefix
   reaches ``P_k[a] + t`` is ``first_column_k[P_k[a] / step_k +
   ceil(t / step_k)]`` — what a binary search would find, without one.
   Each pair gets one integer key, (area, col_lo, height) best first.
2. **Free-band check.** Only the ``FIRST_BATCH`` smallest keys are
   ordered (``np.argpartition``, then a sort of that *best-first head*)
   and tested against a summed-area table of blocked cells (occupied,
   or in a forbidden column): a row band is free iff its blocked count
   is zero. If no window of the head is free, the whole grid is sorted
   and tested in batches that double. The first free window fixes
   (area, col_lo); its tie group, the other heights of the same area in
   the same grid column, picks the lowest free row, then the shorter
   band — the lexicographic minimum of (area, col_lo, row_lo, height):
   leftmost, bottom-most, then shortest on equal area.

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

#: Windows ordered and tested against the occupancy first; only if none
#: of them is free is the whole grid sorted and tested in batches that
#: double from there.
FIRST_BATCH = 64

#: The sort key of a (height, anchor) pair whose minimal window runs
#: off the fabric.
KEY_OFF_FABRIC = np.iinfo(np.int64).max


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
    """Deterministic best-fit floorplanner over a device.

    ``max_height_regions`` caps the band height in clock-region rows
    (default: every row); caps above the device's row count can never
    bind and are clamped to it.
    """

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
        if max_height_regions is not None and max_height_regions < 1:
            raise FloorplanError(
                f"max height must be at least one region row, got {max_height_regions}"
            )
        self.device = device
        self.target_utilization = target_utilization
        self.max_height = min(max_height_regions or device.region_rows, device.region_rows)
        self._kinds = list(ResourceKind)
        # Per-resource prefix sums over column segments (prefix[x][k] is
        # the sum of resource k over columns [0, x)) and the level tables
        # the window search gathers from. The device builds both once,
        # with the forbidden-column mask, so a planner costs nothing to
        # construct.
        self._prefix = device.resource_prefix()
        self._level_tables = device.level_tables()
        # Broadcast axes of the window search: band heights down, anchor
        # columns across.
        self._heights = np.arange(1, self.max_height + 1, dtype=np.int64)[:, None]
        self._anchors = np.arange(device.num_columns, dtype=np.int64)
        self._rows = np.arange(device.region_rows, dtype=np.int64)
        # The sort key (area * num_columns + col_lo) * max_height +
        # height - 1, with area = (col_end - col_lo) * height, expanded
        # to col_end * scale + offset: two operations per placement.
        self._key_scale = self._heights * (device.num_columns * self.max_height)
        self._key_offset = (
            self._anchors * (self.max_height - self._key_scale) + self._heights - 1
        )

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

    def _windows(self, need: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The minimal window of every (height, anchor) pair, and its key.

        Returns two ``(max_height, num_columns)`` arrays: ``col_end``
        (``col_hi + 1``) and the best-first sort key — area, then
        col_lo, then height, as ``(area * num_columns + col_lo) *
        max_height + height - 1`` — with ``KEY_OFF_FABRIC`` where the
        minimal window runs off the fabric.
        """
        # A window of height h satisfies resource k iff its column sum
        # reaches ceil(need_k / h) — both sides of "sum * h >= need" are
        # integers. Sums start at the anchor, so the minimal end column
        # is the first prefix index reaching prefix[anchor] + threshold:
        # a gather into the kind's level table. A kind with no demand is
        # met by the anchor column alone and cannot move the end.
        thresholds = -(-need // self._heights)
        anchors = self._anchors
        col_end = np.repeat(anchors[None, :] + 1, self.max_height, axis=0)
        for k, table in enumerate(self._level_tables):
            if need[k]:
                np.maximum(
                    col_end,
                    table.first_reaching(table.level, thresholds[:, k : k + 1]),
                    out=col_end,
                )
        key = col_end * self._key_scale
        key += self._key_offset
        key[col_end > self.device.num_columns] = KEY_OFF_FABRIC
        return col_end, key

    def _lowest_free_rows(
        self,
        blocked_sat: np.ndarray,
        col_lo: np.ndarray,
        col_end: np.ndarray,
        height: np.ndarray,
    ) -> np.ndarray:
        """Lowest free ``row_lo`` of each window, or ``region_rows`` if none.

        ``blocked_sat[c, r]`` counts the blocked cells in columns
        ``[0, c)`` x rows ``[0, r)``, so two row lookups give a window's
        column strip, and a band's blocked count is one difference in it.
        """
        region_rows = self.device.region_rows
        rows = self._rows
        strip = blocked_sat[col_end] - blocked_sat[col_lo]
        top = rows + height[:, None]
        fits = top <= region_rows
        np.minimum(top, region_rows, out=top)
        # A last column of True makes argmax say region_rows when no band
        # is free.
        free = np.ones((height.size, region_rows + 1), dtype=bool)
        np.logical_and(
            fits,
            np.take_along_axis(strip, top, axis=1) == strip[:, :region_rows],
            out=free[:, :region_rows],
        )
        return free.argmax(axis=1)

    def _first_free(
        self,
        blocked_sat: np.ndarray,
        col_end: np.ndarray,
        order: np.ndarray,
    ) -> Optional[Tuple[int, int]]:
        """The first window in ``order`` (flat window indices, best
        first) with a free row band, as (flat index, lowest free row),
        or None."""
        height_index, col_lo = np.divmod(order, self.device.num_columns)
        rows = self._lowest_free_rows(
            blocked_sat, col_lo, col_end.ravel()[order], height_index + 1
        )
        hits = np.flatnonzero(rows < self.device.region_rows)
        if not hits.size:
            return None
        return int(order[hits[0]]), int(rows[hits[0]])

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
        col_end, key = self._windows(need)
        device = self.device
        blocked = occupied | device.forbidden_mask()[:, None]
        blocked_sat = np.zeros(
            (device.num_columns + 1, device.region_rows + 1), dtype=np.int64
        )
        blocked_sat[1:, 1:] = blocked.cumsum(axis=0).cumsum(axis=1)

        # Best first: only the FIRST_BATCH smallest keys are sorted; the
        # whole grid is sorted only if none of them has a free band.
        feasible = int(np.count_nonzero(key != KEY_OFF_FABRIC))
        order = _smallest(key, min(FIRST_BATCH, feasible))
        winner = self._first_free(blocked_sat, col_end, order)
        if winner is None and feasible > order.size:
            order = _smallest(key, feasible)
            start, size = FIRST_BATCH, 2 * FIRST_BATCH
            while winner is None and start < feasible:
                winner = self._first_free(
                    blocked_sat, col_end, order[start : start + size]
                )
                start, size = start + size, size * 2
        if winner is None:
            raise FloorplanError(
                f"cannot place RP {rp_name!r}: demand {demand} (inflated "
                f"{inflated}) does not fit the remaining fabric of {device.name}"
            )

        # The first free window fixes (area, col_lo). Its tie group holds
        # at most one window per height, all in the winner's grid column
        # (key // max_height is area * num_columns + col_lo). Within a
        # group the lowest free row wins, then the shorter band (argmin
        # keeps the first minimum).
        index, row_lo = winner
        height_index, col_lo = divmod(index, device.num_columns)
        column = key[:, col_lo] // self.max_height
        group = np.flatnonzero(column == column[height_index])
        if group.size > 1:
            rows = self._lowest_free_rows(
                blocked_sat,
                np.full(group.size, col_lo),
                col_end[group, col_lo],
                group + 1,
            )
            pick = int(np.argmin(rows))
            height_index, row_lo = int(group[pick]), int(rows[pick])
        pblock = Pblock(
            name=f"pblock_{rp_name}",
            col_lo=col_lo,
            col_hi=int(col_end[height_index, col_lo]) - 1,
            row_lo=row_lo,
            row_hi=row_lo + height_index,
        )
        return RegionAssignment(
            rp_name=rp_name,
            pblock=pblock,
            demand=demand,
            provided=pblock.resources(self.device),
        )


def _smallest(key: np.ndarray, count: int) -> np.ndarray:
    """Flat indices of the ``count`` smallest keys, in ascending order."""
    flat = key.ravel()
    if count >= flat.size:
        return np.argsort(flat)
    head = np.argpartition(flat, count - 1)[:count]
    return head[np.argsort(flat[head])]
