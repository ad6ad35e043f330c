"""Tests for runtime statistics aggregation."""

import pytest

from repro.errors import ReconfigurationError
from repro.runtime.faults import NO_RUNTIME_FAULTS, RuntimeFaultModel
from repro.runtime.stats import collect_stats
from tests.runtime.test_manager import manager  # fixture reuse


def arm_crc_failure(manager, tile, mode, count=1):
    """Arm CRC failures via the fault model (the old shim is gone)."""
    if manager.prc.faults is NO_RUNTIME_FAULTS:
        manager.prc.faults = RuntimeFaultModel()
    manager.prc.faults.inject(tile, mode, count=count)


class TestCollect:
    def test_counts(self, manager, sim):
        manager.invoke("rt0", "fft")
        manager.invoke("rt0", "gemm")
        manager.invoke("rt1", "sort")
        sim.run()
        stats = collect_stats(manager)
        assert stats.total_invocations == 3
        assert stats.total_reconfigurations == 3
        assert stats.failed_attempts == 0
        assert set(stats.tiles) == {"rt0", "rt1"}
        assert stats.tiles["rt0"].invocations == 2

    def test_exec_and_reconfig_time(self, manager, sim):
        manager.invoke("rt0", "fft", exec_time_s=0.5)
        sim.run()
        stats = collect_stats(manager)
        tile = stats.tiles["rt0"]
        assert tile.exec_time_s == pytest.approx(0.5)
        assert tile.reconfig_time_s > 0
        assert 0.0 < tile.reconfig_share < 1.0

    def test_warm_invocations_have_zero_reconfig_share(self, manager, sim):
        manager.invoke("rt0", "fft")
        sim.run()
        cold = collect_stats(manager).tiles["rt0"]
        manager.invoke("rt0", "fft", exec_time_s=0.1)
        sim.run()
        warm = collect_stats(manager).tiles["rt0"]
        # The warm invocation adds execution time but no reconfiguration.
        assert warm.invocations == 2
        assert warm.reconfig_time_s == cold.reconfig_time_s > 0.0
        assert manager.invocations[1].reconfig_s == 0.0

    def test_wait_time_from_contention(self, manager, sim):
        manager.invoke("rt0", "fft", exec_time_s=1.0)
        manager.invoke("rt0", "fft", exec_time_s=0.1)  # queued behind
        sim.run()
        stats = collect_stats(manager)
        assert stats.tiles["rt0"].wait_time_s > 0.9
        assert stats.tiles["rt0"].mean_wait_s > 0.4

    def test_icap_utilization(self, manager, sim):
        manager.invoke("rt0", "fft", exec_time_s=0.001)
        sim.run()
        stats = collect_stats(manager)
        assert 0.0 < stats.icap_utilization <= 1.0

    def test_busiest_tile(self, manager, sim):
        manager.invoke("rt0", "fft", exec_time_s=0.9)
        manager.invoke("rt1", "gemm", exec_time_s=0.1)
        sim.run()
        assert collect_stats(manager).busiest_tile().tile_name == "rt0"

    def test_busiest_tile_empty_manager(self, sim):
        from repro.noc.mesh import Mesh
        from repro.runtime.driver import DriverRegistry
        from repro.runtime.manager import ReconfigurationManager
        from repro.runtime.memory import BitstreamStore
        from repro.runtime.prc import PrcDevice

        mesh = Mesh(2, 2)
        prc = PrcDevice(sim, mesh, (0, 0), (0, 1))
        empty = ReconfigurationManager(sim, prc, BitstreamStore(), DriverRegistry())
        with pytest.raises(ReconfigurationError):
            collect_stats(empty).busiest_tile()

    def test_summary_lines(self, manager, sim):
        manager.invoke("rt0", "fft")
        sim.run()
        lines = collect_stats(manager).summary_lines()
        assert any("rt0" in line for line in lines)
        assert "invocations=1" in lines[0]


class TestFailedAttemptAttribution:
    def test_failures_attributed_to_tile(self, manager, sim):
        arm_crc_failure(manager, "rt0", "fft", count=1)
        manager.invoke("rt0", "fft")
        manager.invoke("rt1", "sort")
        sim.run()
        stats = collect_stats(manager)
        assert stats.failed_attempts == 1
        assert stats.tiles["rt0"].failed_attempts == 1
        assert stats.tiles["rt1"].failed_attempts == 0

    def test_failed_count_shown_in_summary(self, manager, sim):
        arm_crc_failure(manager, "rt0", "fft", count=1)
        manager.invoke("rt0", "fft")
        sim.run()
        lines = collect_stats(manager).summary_lines()
        rt0_line = next(line for line in lines if "rt0" in line)
        assert "failed=1" in rt0_line

    def test_clean_tiles_omit_failed_field(self, manager, sim):
        manager.invoke("rt0", "fft")
        sim.run()
        lines = collect_stats(manager).summary_lines()
        assert not any("failed=" in line for line in lines)


class TestToDict:
    def test_round_trips_totals_and_tiles(self, manager, sim):
        arm_crc_failure(manager, "rt0", "fft", count=1)
        manager.invoke("rt0", "fft", exec_time_s=0.2)
        sim.run()
        data = collect_stats(manager).to_dict()
        assert data["total_invocations"] == 1
        assert data["failed_attempts"] == 1
        tile = data["tiles"]["rt0"]
        assert tile["invocations"] == 1
        assert tile["failed_attempts"] == 1
        assert tile["exec_s"] == pytest.approx(0.2)
        assert 0.0 < tile["reconfig_share"] < 1.0

    def test_is_json_serializable(self, manager, sim):
        import json

        manager.invoke("rt1", "gemm")
        sim.run()
        text = json.dumps(collect_stats(manager).to_dict())
        assert "rt1" in text
