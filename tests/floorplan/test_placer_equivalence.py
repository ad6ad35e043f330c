"""Vectorized placer vs the scalar reference, output for output.

The fast ``FloraFloorplanner._place_one`` is an optimization, not a
behavior change: for every demand set the plan it produces must be
*identical* — same pblocks, same order, same relaxation outcomes — to
the original two-pointer sweep kept alive as
:class:`~tests.floorplan.reference.ReferenceFloraFloorplanner`. These tests
pin that equivalence over seeded random demand sets on every catalog
part, including demand mixes dense enough to walk the relaxation
ladder and ones that fail outright.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.errors import FloorplanError
from repro.fabric.parts import PART_CATALOG, make_device
from repro.fabric.pblock import Pblock
from repro.fabric.resources import ResourceVector
from repro.floorplan import flora
from repro.floorplan.flora import FloraFloorplanner
from tests.floorplan.reference import ReferenceFloraFloorplanner

BOARDS = sorted(PART_CATALOG)


@pytest.fixture(autouse=True)
def cleared_window_tables():
    """Every test starts from empty window tables, so counts of grid
    evaluations and sorts do not depend on which tests ran before."""
    flora.clear_window_tables()
    yield
    flora.clear_window_tables()


def random_demands(rng, device, count, utilization):
    """A demand set filling roughly ``utilization`` of the device."""
    capacity = device.capacity()
    demands = []
    for index in range(count):
        share = utilization / count * rng.uniform(0.4, 1.6)
        demands.append(
            (
                f"rp{index}",
                ResourceVector(
                    lut=max(1, int(capacity.lut * share)),
                    ff=max(1, int(capacity.ff * share * rng.uniform(0.5, 1.0))),
                    bram=int(capacity.bram * share * rng.uniform(0.0, 0.8)),
                    dsp=int(capacity.dsp * share * rng.uniform(0.0, 0.8)),
                ),
            )
        )
    return demands


def plans_agree(device, demands, **kwargs):
    """Run both planners; assert identical outcome (plan or failure)."""
    fast = FloraFloorplanner(device, **kwargs)
    reference = ReferenceFloraFloorplanner(device, **kwargs)
    try:
        expected = reference.plan(demands)
    except FloorplanError:
        with pytest.raises(FloorplanError):
            fast.plan(demands)
        return None
    actual = fast.plan(demands)
    assert actual == expected
    return actual


class TestSeededEquivalence:
    @pytest.mark.parametrize("board", BOARDS)
    @pytest.mark.parametrize("utilization", [0.3, 0.5, 0.7])
    def test_random_demand_sets_match(self, board, utilization):
        device = make_device(board)
        rng = random.Random(f"{board}:{utilization}")
        rounds = 4 if board == "vc707" else 2
        for round_index in range(rounds):
            demands = random_demands(
                rng, device, count=rng.randint(1, 6), utilization=utilization
            )
            plans_agree(device, demands)

    @pytest.mark.parametrize("board", BOARDS)
    def test_dense_sets_walk_the_relaxation_ladder(self, board):
        # High fill pressure forces _place_with_relaxation past the
        # first ladder step on at least some rounds — the equivalence
        # must hold through every relaxation level, not just the first.
        device = make_device(board)
        rng = random.Random(f"dense:{board}")
        saw_plan = saw_failure = False
        for utilization in (0.3, 0.6, 0.95, 1.2):
            demands = random_demands(
                rng, device, count=rng.randint(2, 5), utilization=utilization
            )
            if plans_agree(device, demands, target_utilization=0.7) is None:
                saw_failure = True
            else:
                saw_plan = True
        assert saw_plan  # the sweep exercised real placements...
        assert saw_failure  # ...and genuine exhaustion, identically

    def test_max_height_cap_matches(self):
        device = make_device("vc707")
        rng = random.Random("capped")
        for _ in range(4):
            demands = random_demands(rng, device, count=3, utilization=0.4)
            plans_agree(device, demands, max_height_regions=1)

    def test_bram_dsp_heavy_demands_match(self):
        device = make_device("vcu118")
        capacity = device.capacity()
        demands = [
            ("rp0", ResourceVector(lut=200, ff=200, bram=capacity.bram // 3, dsp=0)),
            ("rp1", ResourceVector(lut=200, ff=200, bram=0, dsp=capacity.dsp // 3)),
            ("rp2", ResourceVector(lut=5000, ff=4000, bram=16, dsp=16)),
        ]
        plans_agree(device, demands)

    def test_reference_is_meaningfully_slower_shape(self):
        # Not a benchmark — just pins that the two classes really are
        # different implementations (the reference overrides the
        # placement search and never reaches the vectorized helpers),
        # so the equivalence tests cannot silently compare a planner
        # with itself after a refactor.
        assert ReferenceFloraFloorplanner._place_one is not (
            FloraFloorplanner._place_one
        )
        device = make_device("vc707")
        reference = ReferenceFloraFloorplanner(device)
        reference._windows = None  # any call into the fast path would fail
        reference.plan([("rp0", ResourceVector(lut=2000, ff=2000))])


# ----------------------------------------------------------------------
# the 600-set sweep
# ----------------------------------------------------------------------
SWEEP_SETS = 600
SWEEP_BOARDS = ("vc707", "vcu118", "vcu128")
SWEEP_UTILIZATIONS = (0.5, 0.7, 0.9)

#: sha256 (first 16 hex digits) of each (board, utilization) group's
#: plan lines, as planned by the per-band search this planner replaced
#: (itself pinned to the scalar reference by the tests above).
SWEEP_DIGESTS = {
    ("vc707", 0.5): "57c3dbfb0dacb486",
    ("vc707", 0.7): "1af6ad16c8638e3c",
    ("vc707", 0.9): "966e8aca4745d8f0",
    ("vcu118", 0.5): "983de7f17ff0b368",
    ("vcu118", 0.7): "cd6fe8713bcc2357",
    ("vcu118", 0.9): "5b5c0c15a0eb2a9e",
    ("vcu128", 0.5): "3441d76ef524bb51",
    ("vcu128", 0.7): "888d83953074b29d",
    ("vcu128", 0.9): "d454a2d073e0441f",
}


def sweep_groups():
    """(board, utilization) -> [(device, demands)]: 1-10 RPs per set."""
    groups = {}
    for index in range(SWEEP_SETS):
        board = SWEEP_BOARDS[index % 3]
        utilization = SWEEP_UTILIZATIONS[index // 3 % 3]
        rng = random.Random(f"sweep:{index}")
        device = make_device(board)
        demands = random_demands(
            rng, device, count=rng.randint(1, 10), utilization=utilization
        )
        groups.setdefault((board, utilization), []).append((device, demands))
    return groups


def plan_line(planner_class, device, demands):
    """One set's outcome as text: every pblock, or ``infeasible``."""
    try:
        plan = planner_class(device).plan(demands)
    except FloorplanError:
        return "infeasible"
    return " ".join(
        f"{a.rp_name}:{a.pblock.col_lo}-{a.pblock.col_hi}/{a.pblock.row_lo}-{a.pblock.row_hi}"
        for a in plan.assignments
    )


class TestSweep:
    @pytest.mark.parametrize("first_batch", [flora.FIRST_BATCH, 1, 2])
    def test_600_random_sets_plan_as_before(self, monkeypatch, first_batch):
        # A head of one or two windows misses on nearly every crowded
        # placement, so the full-sort fallback and tie groups that run
        # past the head are swept too. The sweep runs twice: from
        # cleared window tables, then served wholly from the warm ones
        # (large enough to keep every entry of the sweep).
        monkeypatch.setattr(flora, "FIRST_BATCH", first_batch)
        monkeypatch.setattr(flora, "WINDOW_TABLE_SIZE", 1 << 20)
        sorted_counts = []
        smallest = flora._smallest

        def recording(key, count):
            sorted_counts.append(count)
            return smallest(key, count)

        monkeypatch.setattr(flora, "_smallest", recording)
        grids = []
        windows = FloraFloorplanner._windows

        def counting_windows(planner, need):
            grids.append(1)
            return windows(planner, need)

        monkeypatch.setattr(FloraFloorplanner, "_windows", counting_windows)
        groups = sweep_groups()
        assert sum(len(sets) for sets in groups.values()) == SWEEP_SETS
        for table in ("cleared", "warm"):
            sorted_counts.clear()
            grids.clear()
            for group, sets in sorted(groups.items()):
                lines = [
                    plan_line(FloraFloorplanner, device, demands)
                    for device, demands in sets
                ]
                digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]
                if digest != SWEEP_DIGESTS[group]:
                    # Name the first diverging set (slow: the scalar search).
                    for (device, demands), line in zip(sets, lines):
                        expected = plan_line(ReferenceFloraFloorplanner, device, demands)
                        assert line == expected, (table, group, demands)
                    pytest.fail(
                        f"{table} {group}: digest {digest}, reference agrees; stale pin?"
                    )
            assert any(count > first_batch for count in sorted_counts), table
            assert (len(grids) > 0) == (table == "cleared")

    def test_sweep_covers_plans_and_failures(self):
        lines = [
            plan_line(FloraFloorplanner, device, demands)
            for sets in sweep_groups().values()
            for device, demands in sets[:10]
        ]
        assert "infeasible" in lines
        assert any(line != "infeasible" for line in lines)


# ----------------------------------------------------------------------
# batch boundaries of the free-band check
# ----------------------------------------------------------------------
def need_of(planner, demand, utilization=None):
    inflated = planner._inflated(demand, utilization)
    return np.array([inflated.get(kind) for kind in planner._kinds], dtype=np.int64)


def best_first(planner, need):
    """Every covering window as ``(area, col_lo, col_end, height)``
    arrays, fully sorted best first."""
    col_end, key = planner._windows(need)
    order = np.argsort(key, axis=None)[: np.count_nonzero(key != flora.KEY_OFF_FABRIC)]
    height_index, col_lo = np.divmod(order, planner.device.num_columns)
    col_end = col_end.ravel()[order]
    height = height_index + 1
    return (col_end - col_lo) * height, col_lo, col_end, height


def rank_of(planner, need, pblock):
    """Position of ``pblock``'s window in the best-first order."""
    _, col_lo, _, height = best_first(planner, need)
    return int(np.flatnonzero((col_lo == pblock.col_lo) & (height == pblock.height))[0])


def block(col_lo, col_hi, row_lo, row_hi, name="used"):
    """A placed pblock over the inclusive rectangle."""
    return Pblock(name=name, col_lo=col_lo, col_hi=col_hi, row_lo=row_lo, row_hi=row_hi)


def place_both(device, demand, placed):
    """One placement by both planners beside the ``placed`` pblocks:
    same assignment, or both fail (the assignment is then None)."""
    fast = FloraFloorplanner(device)
    reference = ReferenceFloraFloorplanner(device)
    try:
        expected = reference._place_one("rp", demand, placed)
    except FloorplanError:
        with pytest.raises(FloorplanError):
            fast._place_one("rp", demand, placed)
        return fast, None
    assert fast._place_one("rp", demand, placed) == expected
    return fast, expected


class TestFreeBandBatches:
    def test_crowded_fabric_searches_past_the_first_batch(self):
        # Only the rightmost 40 columns are free: every window that
        # starts further left, best ones included, is blocked.
        device = make_device("vcu118")
        placed = [block(0, device.num_columns - 41, 0, device.region_rows - 1)]
        demand = ResourceVector(lut=6000, ff=6000)
        fast, assignment = place_both(device, demand, placed)
        assert rank_of(fast, need_of(fast, demand), assignment.pblock) >= flora.FIRST_BATCH

    def test_crowded_plan_matches_reference(self):
        # A half-full fabric from a real plan, then one more RP.
        device = make_device("vc707")
        rng = random.Random("crowded")
        demands = random_demands(rng, device, count=6, utilization=0.45)
        plan = FloraFloorplanner(device).plan(demands)
        assignments = [
            place_both(device, ResourceVector(lut=lut, ff=lut, bram=4), plan.pblocks())[1]
            for lut in (500, 3000, 12000, 40000)
        ]
        assert assignments[0] is not None and assignments[-1] is None

    @pytest.mark.parametrize("first_batch", [1, 2, 64])
    def test_tie_group_straddling_a_batch_boundary(self, monkeypatch, first_batch):
        # The two best windows share (area, col_lo): a short wide band
        # and a taller narrow one. Blocking the wide window's last
        # column at row 0 pushes it up to row 1, so the taller window
        # (still free at row 0) must win — also when a batch ends
        # between the two.
        device = make_device("vc707")
        demand = ResourceVector(lut=1000, ff=1000)
        planner = FloraFloorplanner(device)
        area, col_lo, col_end, height = best_first(planner, need_of(planner, demand))
        assert (area[1], col_lo[1]) == (area[0], col_lo[0])
        assert height[0] < height[1] and col_end[1] < col_end[0]
        corner = int(col_end[0]) - 1
        monkeypatch.setattr(flora, "FIRST_BATCH", first_batch)
        _, assignment = place_both(device, demand, [block(corner, corner, 0, 0)])
        pblock = assignment.pblock
        assert (pblock.col_lo, pblock.col_hi) == (col_lo[1], col_end[1] - 1)
        assert (pblock.row_lo, pblock.height) == (0, height[1])


class TestSearchCost:
    @pytest.mark.parametrize("max_height_regions", [None, 3, 7])
    def test_at_most_one_window_grid_per_distinct_key_and_no_searchsorted(
        self, monkeypatch, max_height_regions
    ):
        # The window search is occupancy-independent: one grid
        # evaluation covers every height and anchor, by gathers into the
        # device's level tables, not binary searches, and the window
        # table keeps it for every later placement of the same key. A
        # per-band loop would make the grid count scale with rows x
        # heights; a searchsorted fallback would show up in the second
        # count; a table miss on a seen key, in the first.
        searches = []
        searchsorted = np.searchsorted

        def counting(*args, **kwargs):
            searches.append(1)
            return searchsorted(*args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counting)
        device = make_device("vcu128")
        planner = FloraFloorplanner(device, max_height_regions=max_height_regions)
        grids = []
        windows = planner._windows

        def counting_windows(need):
            grids.append(1)
            return windows(need)

        monkeypatch.setattr(planner, "_windows", counting_windows)
        placed = [block(0, device.num_columns // 2 - 1, 0, device.region_rows - 1)]
        cases = (
            (ResourceVector(lut=800, ff=800), True),
            (ResourceVector(lut=40000, ff=30000, bram=40, dsp=60), True),
            (device.capacity(), False),
        )
        for seen in (0, 1):
            for demand, fits in cases:
                searches.clear()
                grids.clear()
                if fits:
                    planner._place_one("rp", demand, placed)
                else:
                    with pytest.raises(FloorplanError):
                        planner._place_one("rp", demand, placed)
                assert (len(grids), len(searches)) == (1 - seen, 0)
