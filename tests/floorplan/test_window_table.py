"""The floorplanner's per-device window table.

The occupancy-independent half of a placement (the ``col_end`` grid,
its feasible count and its best-first head) is computed once per
(device, height cap, inflated demand, head size) and served from the
table afterwards. These tests pin that the table is bounded, keyed on
the device object, safe to share between threads, and that a whole
flow_cold-style pass of builds evaluates each distinct grid once.
"""

import random
import sys
import threading

import numpy as np
import pytest

import repro.api as api
from repro.core.designs import resolve_config
from repro.fabric.device import Device
from repro.fabric.parts import _interleave_group, _ultrascale_plus_segments, make_device
from repro.fabric.resources import ResourceVector
from repro.floorplan import flora
from repro.floorplan.flora import FloraFloorplanner, window_table
from repro.flow.options import BuildOptions
from repro.soc.esp_parser import default_catalog, parse_esp_config
from tests.floorplan.reference import ReferenceFloraFloorplanner
from tests.floorplan.test_placer_equivalence import plan_line, sweep_groups


@pytest.fixture(autouse=True)
def cleared_window_tables():
    flora.clear_window_tables()
    yield
    flora.clear_window_tables()


def some_sweep_sets(per_group):
    return [
        pair for _, sets in sorted(sweep_groups().items()) for pair in sets[:per_group]
    ]


class TestBound:
    def test_table_never_exceeds_its_bound(self, monkeypatch):
        monkeypatch.setattr(flora, "WINDOW_TABLE_SIZE", 8)
        sets = some_sweep_sets(8)
        sizes = []
        lines = []
        for device, demands in sets:
            lines.append(plan_line(FloraFloorplanner, device, demands))
            sizes.append(len(window_table(device)))
        assert max(sizes) == 8
        # Evictions change no plan.
        flora.clear_window_tables()
        monkeypatch.setattr(flora, "WINDOW_TABLE_SIZE", 1 << 20)
        assert lines == [plan_line(FloraFloorplanner, d, demands) for d, demands in sets]

    def test_a_full_table_of_the_largest_part_stays_under_2_mb(self):
        device = max(
            (make_device(board) for board in ("vc707", "vcu118", "vcu128")),
            key=lambda d: d.num_columns * d.region_rows,
        )
        planner = FloraFloorplanner(device)
        planner.plan([("rp", ResourceVector(lut=5000, ff=5000, bram=8, dsp=8))])
        (entry,) = window_table(device)._entries.values()
        assert entry.col_end.dtype == np.int16 and not entry.col_end.flags.writeable
        assert not entry.head.flags.writeable
        per_entry = entry.col_end.nbytes + entry.head.nbytes
        assert flora.WINDOW_TABLE_SIZE * per_entry < 2 * 1024 * 1024


class TestKey:
    def test_devices_sharing_a_name_do_not_share_entries(self):
        # Same name, same shape, columns rotated: an entry served
        # across them would place on the wrong columns.
        group = _interleave_group(clb=20, bram=3, dsp=2, io=2) * 2
        twins = [
            Device(
                name="twin",
                columns=columns,
                region_rows=4,
                region_cols=2,
                segment_resources=_ultrascale_plus_segments(),
            )
            for columns in (group, group[7:] + group[:7])
        ]
        demands = [
            ("rp0", ResourceVector(lut=9000, ff=9000, bram=20, dsp=10)),
            ("rp1", ResourceVector(lut=3000, ff=2000, bram=0, dsp=20)),
        ]
        plans = [FloraFloorplanner(device).plan(demands) for device in twins]
        assert plans[0] != plans[1]
        for device, plan in zip(twins, plans):
            assert plan == ReferenceFloraFloorplanner(device).plan(demands)
        tables = [window_table(device) for device in twins]
        assert tables[0] is not tables[1]
        assert tables[0]._entries.keys() == tables[1]._entries.keys()
        for first, second in zip(*(table._entries.values() for table in tables)):
            assert not np.array_equal(first.col_end, second.col_end)

    def test_the_head_size_is_part_of_the_key(self, monkeypatch):
        device = make_device("vc707")
        demand = ResourceVector(lut=2000, ff=2000)
        FloraFloorplanner(device)._place_one("rp", demand, [])
        monkeypatch.setattr(flora, "FIRST_BATCH", 1)
        FloraFloorplanner(device)._place_one("rp", demand, [])
        heads = sorted(entry.head.size for entry in window_table(device)._entries.values())
        assert heads == [1, 64]


class TestThreads:
    def test_four_threads_plan_the_same_sets_identically(self):
        # More threads than cores and a short switch interval, so table
        # lookups and stores interleave; a torn or mismatched entry would
        # change some plan.
        sets = some_sweep_sets(12)
        expected = [plan_line(FloraFloorplanner, d, demands) for d, demands in sets]
        flora.clear_window_tables()
        barrier = threading.Barrier(4)
        results = [None] * 4

        def worker(index):
            barrier.wait()
            results[index] = [
                plan_line(FloraFloorplanner, d, demands) for d, demands in sets
            ]

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4
        for device in {device for device, _ in sets}:
            assert len(window_table(device)) <= flora.WINDOW_TABLE_SIZE


def flow_cold_configs(seed=1, count=112):
    """Generated SoCs in the flow_cold mix (VCU118/VCU128, 2 to 8
    reconfigurable tiles of 1 to 3 catalog accelerators each), then the
    Table IV designs."""
    rng = random.Random(f"window-table:{seed}")
    names = sorted(default_catalog())
    configs = []
    for index in range(count):
        tiles = 2 + index % 7
        sections = [
            f"[soc]\nname = g{index}\nboard = {('vcu118', 'vcu128')[index // 7 % 2]}\n"
            f"rows = {-(-(3 + tiles) // 4)}\ncols = 4\n",
            "[tile cpu0]\ntype = cpu\n",
            "[tile mem0]\ntype = mem\n",
            "[tile aux0]\ntype = aux\n",
        ] + [
            f"[tile rt{i}]\ntype = reconf\nmodes = "
            + ", ".join(rng.sample(names, rng.randint(1, 3)))
            + "\n"
            for i in range(tiles)
        ]
        configs.append(parse_esp_config("\n".join(sections)))
    return configs + [resolve_config(name) for name in ("soc_a", "soc_b", "soc_c", "soc_d")]


class TestFlowColdCost:
    def test_one_window_grid_per_distinct_key_over_a_pass(self, monkeypatch):
        grids = []
        windows = FloraFloorplanner._windows

        def counting_windows(planner, need):
            grids.append((planner.device, planner.max_height, tuple(need.tolist())))
            return windows(planner, need)

        placements = []
        place_one = FloraFloorplanner._place_one

        def counting_place_one(planner, *args, **kwargs):
            placements.append(1)
            return place_one(planner, *args, **kwargs)

        monkeypatch.setattr(FloraFloorplanner, "_windows", counting_windows)
        monkeypatch.setattr(FloraFloorplanner, "_place_one", counting_place_one)
        platform = api.platform(BuildOptions(cache=None, jobs=1))
        for config in flow_cold_configs():
            api.build(config, platform=platform)
        assert len(grids) == len(set(grids))
        # Demands recur across the pass: far fewer grids than placements.
        assert 2 * len(grids) < len(placements)
