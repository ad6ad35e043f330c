"""Tests for the column-organized device model."""

import numpy as np
import pytest

from repro.errors import FabricError
from repro.fabric.device import ClockRegion, ColumnKind, Device, repeat_pattern
from repro.fabric.parts import PART_CATALOG
from repro.fabric.resources import ResourceKind, ResourceVector


def tiny_device(rows=2, cols=2) -> Device:
    pattern = [
        ColumnKind.CLB,
        ColumnKind.BRAM,
        ColumnKind.CLB,
        ColumnKind.DSP,
        ColumnKind.CLK,
        ColumnKind.CLB,
    ]
    return Device(
        name="tiny",
        columns=pattern * cols,
        region_rows=rows,
        region_cols=cols,
        segment_resources={
            ColumnKind.CLB: ResourceVector(lut=400, ff=800),
            ColumnKind.BRAM: ResourceVector(bram=10),
            ColumnKind.DSP: ResourceVector(dsp=20),
        },
    )


class TestGeometry:
    def test_column_count(self):
        assert tiny_device().num_columns == 12

    def test_columns_per_region_col(self):
        assert tiny_device().columns_per_region_col == 6

    def test_clock_regions_row_major(self):
        regions = tiny_device().clock_regions()
        assert len(regions) == 4
        assert regions[0] == ClockRegion(row=0, col=0)
        assert regions[-1] == ClockRegion(row=1, col=1)

    def test_clock_region_name(self):
        assert ClockRegion(row=3, col=1).name == "X1Y3"

    def test_region_col_of_column(self):
        dev = tiny_device()
        assert dev.region_col_of_column(0) == 0
        assert dev.region_col_of_column(6) == 1

    def test_column_kind(self):
        dev = tiny_device()
        assert dev.column_kind(1) is ColumnKind.BRAM
        assert dev.column_kind(4) is ColumnKind.CLK

    def test_out_of_range_column(self):
        with pytest.raises(FabricError):
            tiny_device().column_kind(99)

    def test_columns_must_divide_into_region_cols(self):
        with pytest.raises(FabricError, match="divide"):
            Device(
                name="bad",
                columns=[ColumnKind.CLB] * 5,
                region_rows=1,
                region_cols=2,
                segment_resources={},
            )

    def test_empty_device_rejected(self):
        with pytest.raises(FabricError):
            Device("bad", [], 1, 1, {})

    def test_zero_regions_rejected(self):
        with pytest.raises(FabricError):
            Device("bad", [ColumnKind.CLB], 0, 1, {})


class TestResources:
    def test_segment_resources_default_zero(self):
        assert tiny_device().segment_resources(ColumnKind.IO).is_zero()

    def test_column_resources_span_all_rows(self):
        dev = tiny_device(rows=2)
        assert dev.column_resources(0) == ResourceVector(lut=800, ff=1600)

    def test_capacity_sums_all_columns(self):
        dev = tiny_device(rows=2, cols=2)
        # 6 CLB columns x 2 rows x 400 LUTs = 4800 LUTs
        assert dev.capacity().lut == 4800
        assert dev.capacity().bram == 40
        assert dev.capacity().dsp == 80

    def test_rect_resources_single_cell(self):
        dev = tiny_device()
        assert dev.rect_resources(0, 0, 0, 0) == ResourceVector(lut=400, ff=800)

    def test_rect_resources_multi_row(self):
        dev = tiny_device(rows=2)
        assert dev.rect_resources(0, 1, 0, 1) == ResourceVector(lut=800, ff=1600, bram=20)

    def test_rect_inverted_bounds_rejected(self):
        with pytest.raises(FabricError, match="inverted"):
            tiny_device().rect_resources(3, 1, 0, 0)

    def test_rect_equals_capacity_when_covering_device(self):
        dev = tiny_device(rows=2, cols=2)
        full = dev.rect_resources(0, dev.num_columns - 1, 0, dev.region_rows - 1)
        assert full == dev.capacity()

    @pytest.mark.parametrize("board", sorted(PART_CATALOG))
    def test_rects_match_the_prefix_matrix(self, board):
        dev = PART_CATALOG[board]()
        prefix = dev.resource_prefix()
        rng = np.random.default_rng(0)
        for _ in range(200):
            col_lo, col_hi = sorted(rng.integers(0, dev.num_columns, size=2).tolist())
            row_lo, row_hi = sorted(rng.integers(0, dev.region_rows, size=2).tolist())
            expected = (prefix[col_hi + 1] - prefix[col_lo]) * (row_hi - row_lo + 1)
            rect = dev.rect_resources(col_lo, col_hi, row_lo, row_hi)
            assert [rect.get(kind) for kind in ResourceKind] == expected.tolist()


class TestForbiddenColumns:
    def test_clk_columns_are_forbidden(self):
        dev = tiny_device(cols=2)
        assert dev.forbidden_columns() == [4, 10]

    def test_prefix_counts_the_list(self):
        dev = tiny_device(cols=2)
        prefix = dev.forbidden_prefix()
        assert len(prefix) == dev.num_columns + 1
        steps = [x for x in range(dev.num_columns) if prefix[x + 1] != prefix[x]]
        assert steps == [4, 10] and prefix[-1] == 2

    def test_callers_get_their_own_list(self):
        dev = tiny_device(cols=2)
        dev.forbidden_columns().append(0)
        assert dev.forbidden_columns() == [4, 10]


def assert_gather_is_searchsorted(device):
    """Every level table gathers what ``np.searchsorted(P_k, v,
    side="left")`` returns, for every ``v`` from 0 to one step past the
    top, from the first anchor and from every anchor."""
    prefix = device.resource_prefix()
    kinds = list(ResourceKind)
    for k, table in enumerate(device.level_tables()):
        p_k = prefix[:, k]
        values = np.arange(p_k[-1] + table.step + 1)
        np.testing.assert_array_equal(
            table.first_reaching(0, values),
            np.searchsorted(p_k, values, side="left"),
            err_msg=f"{device.name} {kinds[k].value}",
        )
        # From every anchor, thresholds around each level boundary.
        levels = np.arange(0, p_k[-1] // table.step + 2) * table.step
        thresholds = np.unique(np.concatenate([levels - 1, levels, levels + 1]))
        thresholds = thresholds[thresholds >= 0][:, None]
        np.testing.assert_array_equal(
            table.first_reaching(table.level, thresholds),
            np.searchsorted(p_k, p_k[:-1] + thresholds, side="left"),
        )


class TestLevelTables:
    @pytest.mark.parametrize("board", sorted(PART_CATALOG))
    def test_gather_equals_searchsorted_on_catalog_parts(self, board):
        assert_gather_is_searchsorted(PART_CATALOG[board]())

    def test_steps_are_the_per_column_gcds(self):
        steps = [table.step for table in PART_CATALOG["vcu118"]().level_tables()]
        assert steps == [480, 960, 12, 24]

    def test_zero_capacity_kind(self):
        # No DSP columns at all: the DSP table maps level 0 to column 0
        # and anything above it off the fabric.
        dev = Device(
            name="no-dsp",
            columns=[ColumnKind.CLB, ColumnKind.BRAM, ColumnKind.CLK, ColumnKind.CLB],
            region_rows=2,
            region_cols=1,
            segment_resources={
                ColumnKind.CLB: ResourceVector(lut=400, ff=800),
                ColumnKind.BRAM: ResourceVector(bram=10),
            },
        )
        dsp = dev.level_tables()[list(ResourceKind).index(ResourceKind.DSP)]
        assert dsp.step == 1
        assert dsp.first_column.tolist() == [0, dev.num_columns + 1]
        assert_gather_is_searchsorted(dev)

    def test_small_synthetic_device(self):
        assert_gather_is_searchsorted(tiny_device(rows=3, cols=2))


class TestRepeatPattern:
    def test_repeats(self):
        assert repeat_pattern([ColumnKind.CLB], 3) == [ColumnKind.CLB] * 3

    def test_zero_repetitions_rejected(self):
        with pytest.raises(FabricError):
            repeat_pattern([ColumnKind.CLB], 0)
