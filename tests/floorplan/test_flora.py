"""Tests for the FLORA-style floorplanner."""

import pickle

import pytest

from repro.errors import FloorplanError
from repro.fabric.parts import vc707
from repro.fabric.resources import ResourceVector
from repro.floorplan.flora import FloraFloorplanner
from repro.soc.partition import partition_design


@pytest.fixture(scope="module")
def device():
    return vc707()


def demand(luts, bram=0, dsp=0):
    return ResourceVector(lut=luts, ff=luts, bram=bram, dsp=dsp)


class TestSinglePlacement:
    def test_small_demand_gets_small_block(self, device):
        planner = FloraFloorplanner(device)
        plan = planner.plan([("rp0", demand(2000))])
        assignment = plan.assignments[0]
        # A ~2.9k-LUT inflated demand needs <= 8 column-segments.
        assert assignment.pblock.area <= 8
        assert assignment.demand.fits_in(assignment.provided)

    def test_headroom_respected(self, device):
        planner = FloraFloorplanner(device, target_utilization=0.7)
        plan = planner.plan([("rp0", demand(20000))])
        assert plan.assignments[0].lut_utilization <= 0.7 + 1e-9

    def test_bram_demand_forces_bram_columns(self, device):
        planner = FloraFloorplanner(device)
        plan = planner.plan([("rp0", demand(500, bram=30))])
        assert plan.assignments[0].provided.bram >= 30

    def test_dsp_demand(self, device):
        planner = FloraFloorplanner(device)
        plan = planner.plan([("rp0", demand(500, dsp=100))])
        assert plan.assignments[0].provided.dsp >= 100

    def test_impossible_demand_raises(self, device):
        planner = FloraFloorplanner(device)
        with pytest.raises(FloorplanError, match="cannot place"):
            planner.plan([("rp0", demand(10**7))])

    def test_no_forbidden_columns_inside(self, device):
        planner = FloraFloorplanner(device)
        plan = planner.plan([("rp0", demand(40000))])
        pb = plan.assignments[0].pblock
        forbidden = set(device.forbidden_columns())
        for col in range(pb.col_lo, pb.col_hi + 1):
            assert col not in forbidden

    def test_bad_target_utilization_rejected(self, device):
        with pytest.raises(FloorplanError):
            FloraFloorplanner(device, target_utilization=1.5)

    @pytest.mark.parametrize("max_height", [0, -1, -7])
    def test_max_height_below_one_rejected(self, device, max_height):
        with pytest.raises(FloorplanError, match="at least one region row"):
            FloraFloorplanner(device, max_height_regions=max_height)

    def test_max_height_above_the_rows_is_clamped(self, device):
        demands = [("rp0", demand(30000, bram=20)), ("rp1", demand(8000, dsp=40))]
        tall = FloraFloorplanner(device, max_height_regions=device.region_rows + 5)
        assert tall.max_height == device.region_rows
        assert tall.plan(demands) == FloraFloorplanner(device).plan(demands)

    def test_max_height_caps_every_band(self, device):
        planner = FloraFloorplanner(device, max_height_regions=2)
        plan = planner.plan([("rp0", demand(30000)), ("rp1", demand(5000))])
        assert all(pb.height <= 2 for pb in plan.pblocks())


class TestMultiPlacement:
    def test_no_overlaps(self, device):
        planner = FloraFloorplanner(device)
        plan = planner.plan([(f"rp{i}", demand(25000, bram=20, dsp=40)) for i in range(6)])
        pblocks = plan.pblocks()
        for i, a in enumerate(pblocks):
            for b in pblocks[i + 1 :]:
                assert not a.overlaps(b)

    def test_assignment_order_preserved(self, device):
        planner = FloraFloorplanner(device)
        demands = [("z_small", demand(1000)), ("a_big", demand(50000))]
        plan = planner.plan(demands)
        assert [a.rp_name for a in plan.assignments] == ["z_small", "a_big"]

    def test_duplicate_names_rejected(self, device):
        planner = FloraFloorplanner(device)
        with pytest.raises(FloorplanError, match="unique"):
            planner.plan([("rp", demand(100)), ("rp", demand(100))])

    def test_empty_rejected(self, device):
        with pytest.raises(FloorplanError):
            FloraFloorplanner(device).plan([])

    def test_lookup(self, device):
        planner = FloraFloorplanner(device)
        plan = planner.plan([("rp0", demand(1000))])
        assert plan.assignment_for("rp0").rp_name == "rp0"
        with pytest.raises(FloorplanError):
            plan.assignment_for("missing")

    def test_lookup_leaves_nothing_to_pickle(self, device):
        plan = FloraFloorplanner(device).plan([("rp0", demand(1000))])
        plan.assignment_for("rp0")
        assert b"_by_name" not in pickle.dumps(plan)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_dense_design_relaxes_instead_of_failing(self, device):
        """SOC_4-style density (~80% of the device in RPs) must plan."""
        planner = FloraFloorplanner(device)
        demands = [
            ("cpu", demand(43_500, bram=16, dsp=8)),
            ("conv", demand(37_200, bram=48, dsp=96)),
            ("fft", demand(34_100, bram=36, dsp=72)),
            ("gemm", demand(31_000, bram=40, dsp=128)),
            ("sort", demand(20_900, bram=24)),
        ]
        plan = planner.plan(demands)
        assert len(plan.assignments) == 5
        for assignment in plan.assignments:
            assert assignment.demand.fits_in(assignment.provided)


class TestPaperDesigns:
    @pytest.mark.parametrize("name", ["soc_1", "soc_2", "soc_3", "soc_4"])
    def test_characterization_socs_floorplan(self, name, device, all_paper_socs):
        partition = partition_design(all_paper_socs[name])
        planner = FloraFloorplanner(device)
        plan = planner.plan([(rp.name, rp.demand) for rp in partition.rps])
        assert len(plan.assignments) == partition.num_rps
