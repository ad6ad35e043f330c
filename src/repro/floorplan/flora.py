"""The FLORA-style pblock packer.

FLORA formulates DPR floorplanning as an optimization over column-
granular rectangles; this adaptation keeps its essential structure —
column-aware candidate enumeration, per-resource coverage, forbidden
column avoidance, non-overlap — with a deterministic best-fit heuristic
in place of the MILP (the flow only needs *a* legal floorplan; pblock
geometry does not feed the runtime model).

Each placement runs in two vectorized steps:

1. **Window search.** Whether a window covers the inflated demand does
   not depend on occupancy, so its result is read from the device's
   *window table* (:class:`WindowTable`), keyed by (height cap, inflated
   demand, head size), and computed only on a miss: a window of height
   ``h`` anchored at column
   ``a`` satisfies resource ``k`` iff its column sum reaches
   ``ceil(need_k / h)``. The minimal satisfying ``col_hi`` of every
   (height, anchor) pair comes from one gather per resource kind into
   the device's *level tables* (:class:`~repro.fabric.device.LevelTable`):
   every column prefix of kind ``k`` is a multiple of ``step_k``, the
   gcd of its per-column values, so the first column whose prefix
   reaches ``P_k[a] + t`` is ``first_column_k[P_k[a] / step_k +
   ceil(t / step_k)]`` — what a binary search would find, without one.
   Each pair gets one integer key, (area, col_lo, height) best first.
   Only the ``FIRST_BATCH`` smallest keys are ordered
   (``np.argpartition``, then a sort of that *best-first head*); the
   table stores the ``col_end`` grid, the feasible count and the head.
2. **Free-band check.** The head is tested against per-row column
   prefixes of blocked cells (occupied, or in a forbidden column): a
   row band is free iff its blocked count is zero. If no window of the
   head is free, the keys are rebuilt from the stored grid, sorted
   whole and tested in batches that double. The first free window fixes
   (area, col_lo); its tie group, the other heights of the same area in
   the same grid column, picks the lowest free row, then the shorter
   band — the lexicographic minimum of (area, col_lo, row_lo, height):
   leftmost, bottom-most, then shortest on equal area.

The scalar two-pointer search this replaces lives on in the tests as
the executable specification the plans are pinned to.
"""

from __future__ import annotations

import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.errors import FloorplanError
from repro.fabric.device import Device
from repro.fabric.pblock import Pblock
from repro.fabric.resources import ResourceKind, ResourceVector

#: Windows ordered and tested against the occupancy first; only if none
#: of them is free is the whole grid sorted and tested in batches that
#: double from there.
FIRST_BATCH = 64

#: Entries a device's window table keeps, least recently used evicted
#: first. An entry is dominated by its int16 ``col_end`` grid (6.9 KB on
#: the 12 x 288 VCU128), so a full table stays under 2 MB per board.
WINDOW_TABLE_SIZE = 256

#: The sort key of a (height, anchor) pair whose minimal window runs
#: off the fabric.
KEY_OFF_FABRIC = np.iinfo(np.int64).max


class Windows(NamedTuple):
    """The occupancy-independent half of one placement: a window-table
    entry. Both arrays are read-only."""

    #: ``col_hi + 1`` of the minimal window of every (height, anchor)
    #: pair, ``(max_height, num_columns)`` int16; past ``num_columns``
    #: where that window runs off the fabric.
    col_end: np.ndarray
    #: How many windows stay on the fabric.
    feasible: int
    #: Flat indices of the ``min(FIRST_BATCH, feasible)`` best windows,
    #: best first.
    head: np.ndarray


class WindowTable:
    """One device's :class:`Windows`, keyed by everything an entry
    depends on: (height cap, the four inflated-need integers, head
    size). Bounded by ``WINDOW_TABLE_SIZE`` (least recently used out);
    safe to share between threads."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Tuple[int, ...], Windows]" = OrderedDict()

    def get(self, key: Tuple[int, ...]) -> Optional[Windows]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Tuple[int, ...], entry: Windows) -> Windows:
        """Store ``entry`` unless a thread got there first; the stored
        entry either way."""
        with self._lock:
            entry = self._entries.setdefault(key, entry)
            while len(self._entries) > WINDOW_TABLE_SIZE:
                self._entries.popitem(last=False)
            return entry

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


#: Keyed on the Device object (not its name, which two different
#: fabrics may share), held weakly, and never pickled with it.
_WINDOW_TABLES: "weakref.WeakKeyDictionary[Device, WindowTable]" = (
    weakref.WeakKeyDictionary()
)
_WINDOW_TABLES_LOCK = threading.Lock()


def window_table(device: Device) -> WindowTable:
    """``device``'s window table, created empty on first use."""
    with _WINDOW_TABLES_LOCK:
        table = _WINDOW_TABLES.get(device)
        if table is None:
            table = _WINDOW_TABLES[device] = WindowTable()
        return table


def clear_window_tables() -> None:
    """Empty every device's window table."""
    with _WINDOW_TABLES_LOCK:
        tables = list(_WINDOW_TABLES.values())
    for table in tables:
        table.clear()


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

    def assignment_for(self, rp_name: str) -> RegionAssignment:
        """Assignment lookup by RP name (a scan: a floorplan holds few RPs,
        and a cached map would be pickled with every result)."""
        for assignment in self.assignments:
            if assignment.rp_name == rp_name:
                return assignment
        raise FloorplanError(f"no assignment for RP {rp_name!r}")


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
        (
            self._heights,
            self._anchors,
            self._rows,
            self._key_scale,
            self._key_offset,
        ) = _search_axes(device.num_columns, device.region_rows, self.max_height)
        self._table = window_table(device)

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
        return col_end, self._keys(col_end)

    def _keys(self, col_end: np.ndarray) -> np.ndarray:
        """The best-first sort key of every window of a ``col_end`` grid."""
        key = col_end * self._key_scale
        key += self._key_offset
        key[col_end > self.device.num_columns] = KEY_OFF_FABRIC
        return key

    def _window_entry(self, inflated: ResourceVector) -> Windows:
        """The window-table entry of an inflated demand, computed and
        stored on a miss."""
        head_size = FIRST_BATCH
        key = (
            self.max_height,
            inflated.lut,
            inflated.ff,
            inflated.bram,
            inflated.dsp,
            head_size,
        )
        entry = self._table.get(key)
        if entry is not None:
            return entry
        col_end, keys = self._windows(np.array(key[1:5], dtype=np.int64))
        feasible = int(np.count_nonzero(keys != KEY_OFF_FABRIC))
        # Grid values stay below num_columns + 2 and flat indices below
        # keys.size: int16 on every catalog part (289 and 3456 at most).
        dtype = np.int16 if keys.size < np.iinfo(np.int16).max else np.int32
        col_end = col_end.astype(dtype)
        head = _smallest(keys, min(head_size, feasible)).astype(dtype)
        for array in (col_end, head):
            array.flags.writeable = False
        return self._table.put(key, Windows(col_end, feasible, head))

    def _lowest_free_rows(
        self,
        blocked_cols: np.ndarray,
        col_lo: np.ndarray,
        col_end: np.ndarray,
        height: np.ndarray,
    ) -> np.ndarray:
        """Lowest free ``row_lo`` of each window, or ``region_rows`` if none.

        ``blocked_cols[c, r]`` counts the blocked cells of row ``r`` in
        columns ``[0, c)``, so one difference gives each row's count
        inside a window's columns; a prefix of those over the rows makes
        a band's blocked count one more difference.
        """
        region_rows = self.device.region_rows
        count = height.size
        width = region_rows + self.max_height
        # Prefix entries past region_rows are -1, which no count equals:
        # a band that would run off the top is never free.
        band = np.empty((count, width), dtype=np.int64)
        band[:, 0] = 0
        (blocked_cols[col_end] - blocked_cols[col_lo]).cumsum(
            axis=1, out=band[:, 1 : region_rows + 1]
        )
        band[:, region_rows + 1 :] = -1
        top = self._rows + height[:, None]
        top += np.arange(0, count * width, width)[:, None]
        # A last column of True makes argmax say region_rows when no band
        # is free.
        free = np.ones((count, region_rows + 1), dtype=bool)
        np.equal(band.ravel()[top], band[:, :region_rows], out=free[:, :region_rows])
        return free.argmax(axis=1)

    def _first_free(
        self,
        blocked_cols: np.ndarray,
        col_end: np.ndarray,
        order: np.ndarray,
    ) -> Optional[Tuple[int, int]]:
        """The first window in ``order`` (flat window indices, best
        first) with a free row band, as (flat index, lowest free row),
        or None."""
        height_index, col_lo = np.divmod(order, self.device.num_columns)
        rows = self._lowest_free_rows(
            blocked_cols, col_lo, col_end.ravel()[order], height_index + 1
        )
        (hits,) = (rows < self.device.region_rows).nonzero()
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
        windows = self._window_entry(inflated)
        col_end = windows.col_end
        device = self.device
        blocked_cols = np.zeros(
            (device.num_columns + 1, device.region_rows), dtype=np.int64
        )
        (occupied | device.forbidden_mask()[:, None]).cumsum(
            axis=0, out=blocked_cols[1:]
        )

        # Best first: only the head is sorted; the whole grid is sorted
        # only if none of the head has a free band.
        order = windows.head
        winner = self._first_free(blocked_cols, col_end, order)
        if winner is None and windows.feasible > order.size:
            start, size = order.size, 2 * order.size
            order = _smallest(self._keys(col_end), windows.feasible)
            while winner is None and start < windows.feasible:
                winner = self._first_free(
                    blocked_cols, col_end, order[start : start + size]
                )
                start, size = start + size, size * 2
        if winner is None:
            raise FloorplanError(
                f"cannot place RP {rp_name!r}: demand {demand} (inflated "
                f"{inflated}) does not fit the remaining fabric of {device.name}"
            )

        # The first free window fixes (area, col_lo). Its tie group holds
        # at most one window per height, all in the winner's grid column:
        # the heights whose window there has the same area and stays on
        # the fabric. Within a group the lowest free row wins, then the
        # shorter band (argmin keeps the first minimum).
        index, row_lo = winner
        height_index, col_lo = divmod(index, device.num_columns)
        ends = col_end[:, col_lo]
        area = (ends - col_lo) * self._heights[:, 0]
        (group,) = ((area == area[height_index]) & (ends <= device.num_columns)).nonzero()
        if group.size > 1:
            rows = self._lowest_free_rows(
                blocked_cols,
                np.full(group.size, col_lo),
                ends[group],
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


@lru_cache(maxsize=64)
def _search_axes(
    num_columns: int, region_rows: int, max_height: int
) -> Tuple[np.ndarray, ...]:
    """The read-only arrays a planner broadcasts over: band heights
    down, anchor columns across, the row indices, and the key's scale
    and offset."""
    heights = np.arange(1, max_height + 1, dtype=np.int64)[:, None]
    anchors = np.arange(num_columns, dtype=np.int64)
    rows = np.arange(region_rows, dtype=np.int64)
    # The sort key (area * num_columns + col_lo) * max_height +
    # height - 1, with area = (col_end - col_lo) * height, expanded to
    # col_end * scale + offset: two operations per grid.
    key_scale = heights * (num_columns * max_height)
    key_offset = anchors * (max_height - key_scale) + heights - 1
    axes = (heights, anchors, rows, key_scale, key_offset)
    for array in axes:
        array.flags.writeable = False
    return axes


def _smallest(key: np.ndarray, count: int) -> np.ndarray:
    """Flat indices of the ``count`` smallest keys, in ascending order."""
    flat = key.ravel()
    if count >= flat.size:
        return np.argsort(flat)
    head = np.argpartition(flat, count - 1)[:count]
    return head[np.argsort(flat[head])]
