"""The free-band check: placed rectangles instead of an occupancy grid.

``FloraFloorplanner._place_one`` walks the best-first windows in Python
and asks the list of placed pblocks whether each is free. A property
test pins it to the scalar reference, which still reads an occupancy
grid cell by cell, on random non-overlapping placements; two
wall-clock-free guards pin what a warm plan costs.
"""

import tracemalloc
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.core.designs import resolve_config
from repro.errors import FloorplanError
from repro.fabric.device import Device
from repro.fabric.parts import _interleave_group, _ultrascale_plus_segments
from repro.fabric.pblock import Pblock
from repro.fabric.resources import ResourceVector
from repro.floorplan import flora
from repro.floorplan.flora import FloraFloorplanner
from repro.flow.options import BuildOptions
from tests.flow.test_build_cost import count_calls
from tests.floorplan.reference import ReferenceFloraFloorplanner

#: Three clock-region columns of 14 fabric columns, a CLK column in the
#: middle of each: small enough for the scalar reference, and most
#: windows of a few columns either span a forbidden column or sit
#: beside one.
SMALL = Device(
    name="small",
    columns=_interleave_group(clb=8, bram=2, dsp=2, io=1) * 3,
    region_rows=5,
    region_cols=3,
    segment_resources=_ultrascale_plus_segments(),
)


#: Extents past the first column or row: single cells (which block one
#: band of a wide window and leave a narrow one free) as often as
#: larger blocks.
widths = st.one_of(st.just(0), st.integers(0, 9))
heights = st.one_of(st.just(0), st.integers(0, 2))


@st.composite
def placements(draw):
    """Up to 8 pblocks, none overlapping another: each drawn rectangle
    that meets an earlier one is dropped."""
    placed = []
    for index in range(draw(st.integers(0, 8))):
        col_lo = draw(st.integers(0, SMALL.num_columns - 1))
        row_lo = draw(st.integers(0, SMALL.region_rows - 1))
        pblock = Pblock(
            name=f"placed{index}",
            col_lo=col_lo,
            col_hi=min(col_lo + draw(widths), SMALL.num_columns - 1),
            row_lo=row_lo,
            row_hi=min(row_lo + draw(heights), SMALL.region_rows - 1),
        )
        if not any(pblock.overlaps(other) for other in placed):
            placed.append(pblock)
    return placed


demands = st.builds(
    ResourceVector,
    lut=st.integers(1, 40000),
    ff=st.integers(1, 40000),
    bram=st.sampled_from([0, 0, 6, 12, 30]),
    dsp=st.sampled_from([0, 0, 12, 24, 60]),
)


def free_somewhere(placed, col_lo, col_end, height):
    """Whether the window of columns ``[col_lo, col_end)`` and ``height``
    rows fits at some row: over no forbidden column, beside every
    placed pblock."""
    if any(col_lo <= x < col_end for x in SMALL.forbidden_columns()):
        return False
    return any(
        not any(
            Pblock("probe", col_lo, col_end - 1, row, row + height - 1).overlaps(other)
            for other in placed
        )
        for row in range(SMALL.region_rows - height + 1)
    )


def test_fast_placement_equals_the_reference():
    covered = set()
    prefix = SMALL.forbidden_prefix()

    @settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @given(
        placed=placements(),
        demand=demands,
        utilization=st.sampled_from([0.7, 0.8, 0.9, 0.97]),
        first_batch=st.sampled_from([1, 2, 64]),
    )
    def check(placed, demand, utilization, first_batch):
        with mock.patch.object(flora, "FIRST_BATCH", first_batch):
            fast = FloraFloorplanner(SMALL)
            try:
                expected = ReferenceFloraFloorplanner(SMALL)._place_one(
                    "rp", demand, placed, utilization
                )
            except FloorplanError as error:
                try:
                    fast._place_one("rp", demand, placed, utilization)
                except FloorplanError as fast_error:
                    assert str(fast_error) == str(error)
                    covered.add("infeasible")
                    return
                raise AssertionError("the reference failed, the fast planner placed")
            assert fast._place_one("rp", demand, placed, utilization) == expected
            # What the case exercised: a best window over a forbidden
            # column, a winner with a tie group, a head that missed.
            windows = fast._window_entry(fast._inflated(demand, utilization))
            height_index, col_lo = divmod(int(windows.head[0]), SMALL.num_columns)
            col_end = int(windows.col_end[height_index, col_lo])
            if prefix[col_end] != prefix[col_lo]:
                covered.add("forbidden")
            pblock = expected.pblock
            ends = windows.col_end[:, pblock.col_lo].tolist()
            group = sum(
                end <= SMALL.num_columns
                and (end - pblock.col_lo) * (index + 1) == pblock.area
                for index, end in enumerate(ends)
            )
            if group > 1:
                covered.add("tie")
            if any(
                free_somewhere(placed, pblock.col_lo, end, index + 1)
                for index, end in enumerate(ends[: pblock.height - 1])
                if end <= SMALL.num_columns
                and (end - pblock.col_lo) * (index + 1) == pblock.area
            ):
                covered.add("a taller band of the tie group sits lower")
            if pblock.col_lo != col_lo or pblock.height != height_index + 1:
                covered.add("past the best window")

    flora.clear_window_tables()
    try:
        check()
    finally:
        flora.clear_window_tables()
    assert covered == {
        "infeasible",
        "forbidden",
        "tie",
        "a taller band of the tie group sits lower",
        "past the best window",
    }


def soc_a_plan():
    """The planner and demands of a ``soc_a`` build, its window table
    warm (the build filled it)."""
    calls = []
    plan = FloraFloorplanner.plan

    def recording(planner, demands):
        calls.append((planner, list(demands)))
        return plan(planner, demands)

    with mock.patch.object(FloraFloorplanner, "plan", recording):
        api.build(resolve_config("soc_a"), platform=api.platform(BuildOptions(cache=None)))
    ((planner, demands),) = calls
    return planner, demands


#: Python calls of a warm ``plan()`` of ``soc_a``'s four RPs: per
#: placement the window-table lookup, the inflation, a few free-band
#: sweeps, the pblock and its resources (220 here; 137 when the grid
#: was checked in numpy, at about three times the cost).
PLAN_CALLS = 220


def test_a_warm_soc_a_plan_stays_cheap():
    planner, demands = soc_a_plan()
    calls = count_calls(planner.plan, demands)
    assert calls <= PLAN_CALLS, f"{calls} calls to plan soc_a"


def test_no_occupancy_sized_allocation_per_placement():
    # On a 1024-column, 48-row fabric a boolean occupancy grid takes
    # 48 KB and a blocked-cell count table 390 KB; a warm plan of
    # soc_a's four RPs must not allocate either, so its peak stays
    # below one grid (a few KB of Python objects).
    _, demands = soc_a_plan()
    big = Device(
        name="big",
        columns=_interleave_group(clb=51, bram=4, dsp=6, io=2) * 16,
        region_rows=48,
        region_cols=16,
        segment_resources=_ultrascale_plus_segments(),
    )
    planner = FloraFloorplanner(big)
    planner.plan(demands)  # fills the window table
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        planner.plan(demands)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak - before < big.num_columns * big.region_rows
