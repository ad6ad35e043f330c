"""Tests for pblock geometry and DFX legality checks."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import FabricError
from repro.fabric.pblock import Pblock, check_pblock
from repro.fabric.parts import vc707
from repro.fabric.resources import ResourceVector


@pytest.fixture(scope="module")
def device():
    return vc707()


def blocks(max_col=60, max_row=6):
    lo_col = st.integers(0, max_col)
    lo_row = st.integers(0, max_row)
    return st.builds(
        lambda c0, cw, r0, rh: Pblock(
            name="p", col_lo=c0, col_hi=c0 + cw, row_lo=r0, row_hi=min(r0 + rh, max_row)
        ),
        lo_col,
        st.integers(0, 20),
        lo_row,
        st.integers(0, 6),
    )


class TestGeometry:
    def test_dimensions(self):
        pb = Pblock("p", col_lo=2, col_hi=5, row_lo=1, row_hi=3)
        assert pb.width == 4
        assert pb.height == 3
        assert pb.area == 12

    def test_inverted_bounds_rejected(self):
        with pytest.raises(FabricError):
            Pblock("p", col_lo=5, col_hi=2, row_lo=0, row_hi=0)

    def test_negative_bounds_rejected(self):
        with pytest.raises(FabricError):
            Pblock("p", col_lo=-1, col_hi=2, row_lo=0, row_hi=0)

    def test_overlap_detection(self):
        a = Pblock("a", 0, 5, 0, 2)
        b = Pblock("b", 5, 9, 2, 3)  # shares corner cell (5, 2)
        c = Pblock("c", 6, 9, 3, 4)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_resources_match_device_rect(self, device):
        pb = Pblock("p", 0, 10, 0, 1)
        assert pb.resources(device) == device.rect_resources(0, 10, 0, 1)

    def test_xdc_mentions_name_and_rows(self, device):
        pb = Pblock("rp0", 0, 3, 2, 4)
        xdc = pb.xdc(device)
        assert "rp0" in xdc and "ROWS2-4" in xdc

    @given(blocks(), blocks())
    def test_overlap_is_symmetric(self, a, b):
        assert a.overlaps(b) == b.overlaps(a)

    @given(blocks())
    def test_every_block_overlaps_itself(self, a):
        assert a.overlaps(a)


class TestLegality:
    def test_legal_block(self, device):
        pb = Pblock("p", 0, 20, 0, 2)
        report = check_pblock(device, pb, ResourceVector(lut=100))
        assert report.legal
        assert report.provided.lut > 100

    def test_exceeds_device_columns(self, device):
        pb = Pblock("p", 0, device.num_columns + 5, 0, 0)
        report = check_pblock(device, pb, ResourceVector())
        assert not report.legal
        assert any("exceeds device" in v for v in report.violations)

    def test_exceeds_device_rows(self, device):
        pb = Pblock("p", 0, 1, 0, device.region_rows)
        report = check_pblock(device, pb, ResourceVector())
        assert not report.legal

    def test_forbidden_clock_column(self, device):
        clk = device.forbidden_columns()[0]
        pb = Pblock("p", clk - 1, clk + 1, 0, 0)
        report = check_pblock(device, pb, ResourceVector(lut=1))
        assert not report.legal
        assert any("forbidden" in v for v in report.violations)

    def test_every_enclosed_forbidden_column_reported_in_order(self, device):
        first, second = device.forbidden_columns()[:2]
        pb = Pblock("p", first, second, 0, 0)
        report = check_pblock(device, pb, ResourceVector())
        assert report.violations == [
            f"contains forbidden clk column at x={first}",
            f"contains forbidden clk column at x={second}",
        ]
        edge = Pblock("q", first + 1, second - 1, 0, 0)
        assert check_pblock(device, edge, ResourceVector()).legal

    def test_insufficient_resources(self, device):
        pb = Pblock("p", 0, 1, 0, 0)
        demand = ResourceVector(lut=10**6)
        report = check_pblock(device, pb, demand)
        assert not report.legal
        assert any("insufficient" in v for v in report.violations)

    def test_overlap_with_other_rp(self, device):
        a = Pblock("a", 0, 10, 0, 2)
        b = Pblock("b", 5, 15, 1, 3)
        report = check_pblock(device, a, ResourceVector(lut=1), others=[b])
        assert not report.legal
        assert any("overlaps" in v for v in report.violations)

    def test_same_name_not_self_overlap(self, device):
        a = Pblock("a", 0, 10, 0, 2)
        report = check_pblock(device, a, ResourceVector(lut=1), others=[a])
        assert report.legal
