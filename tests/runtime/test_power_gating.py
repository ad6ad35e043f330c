"""Tests for the blank-after-frame power-gating policy."""

from collections import Counter

import pytest

from repro.core.designs import wami_soc_y, wami_soc_z
from repro.core.platform import PrEspPlatform
from repro.runtime.faults import (
    PERSISTENT,
    RecoveryPolicy,
    RuntimeFaultKind,
    RuntimeFaultModel,
    RuntimeFaultOptions,
)

CRC = RuntimeFaultKind.BITSTREAM_CORRUPTION


@pytest.fixture(scope="module")
def platform():
    return PrEspPlatform()


@pytest.fixture(scope="module")
def gated_pair(platform):
    config = wami_soc_z()
    flow_result = platform.flow.build(config)
    off = platform.deploy_wami(config, flow_result=flow_result, frames=3)
    on = platform.deploy_wami(
        config, flow_result=flow_result, frames=3, power_gating=True
    )
    return off, on


class TestConfiguredTime:
    def test_state_accounting(self, sim):
        from repro.runtime.manager import TileState
        from repro.sim.resources import Lock
        from repro.soc.socket import Decoupler

        state = TileState(name="rt0", decoupler=Decoupler("rt0"), lock=Lock(sim))
        assert state.configured_time(10.0) == 0.0
        state.mark_configured(2.0)
        assert state.configured_time(5.0) == pytest.approx(3.0)
        state.mark_dark(7.0)
        assert state.configured_time(10.0) == pytest.approx(5.0)
        state.mark_configured(9.0)
        assert state.configured_time(10.0) == pytest.approx(6.0)

    def test_mark_configured_idempotent(self, sim):
        from repro.runtime.manager import TileState
        from repro.sim.resources import Lock
        from repro.soc.socket import Decoupler

        state = TileState(name="rt0", decoupler=Decoupler("rt0"), lock=Lock(sim))
        state.mark_configured(1.0)
        state.mark_configured(5.0)  # no effect
        assert state.configured_time(10.0) == pytest.approx(9.0)


class TestDeployment:
    def test_gating_blanks_every_tile_each_frame(self, gated_pair):
        off, on = gated_pair
        tiles = len(on.config.reconfigurable_tiles)
        frames = on.frames
        # Gated run adds one blank per tile per frame.
        assert on.reconfigurations == off.reconfigurations + tiles * frames

    def test_gating_reduces_energy(self, gated_pair):
        off, on = gated_pair
        assert on.joules_per_frame < off.joules_per_frame
        # The reduction comes from the baseline (region) term.
        assert on.energy.baseline_j < off.energy.baseline_j

    def test_gating_increases_reconfig_energy(self, gated_pair):
        off, on = gated_pair
        assert on.energy.reconfig_j > off.energy.reconfig_j

    def test_dynamic_energy_unchanged(self, gated_pair):
        off, on = gated_pair
        assert on.energy.dynamic_j == pytest.approx(off.energy.dynamic_j, rel=1e-6)

    def test_configured_fraction_validation(self):
        from repro.energy.measure import measure_energy
        from repro.errors import ConfigurationError
        from repro.runtime.executor import ExecutionTimeline

        with pytest.raises(ConfigurationError, match="outside"):
            measure_energy(
                ExecutionTimeline(events=[], makespan_s=1.0),
                frames=1,
                static_kluts=1.0,
                region_kluts={"rt0": 10.0},
                mode_power_w={},
                task_modes={},
                configured_fraction={"rt0": 1.5},
            )


class TestGatingUnderRuntimeFaults:
    """Power-gating blanks ride the same watchdog and retries as swaps."""

    @pytest.fixture(scope="class")
    def soc_y(self, platform):
        config = wami_soc_y()
        return config, platform.flow.build(config)

    def deploy(self, platform, soc_y, model):
        config, flow_result = soc_y
        return platform.deploy_wami(
            config,
            flow_result=flow_result,
            frames=4,
            power_gating=True,
            runtime_options=RuntimeFaultOptions(faults=model),
        )

    @staticmethod
    def assert_every_frame_ran(report):
        runs = Counter(
            e.task for e in report.timeline.events if e.kind in ("exec", "sw")
        )
        assert set(runs.values()) == {report.frames}

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    def test_transient_blank_crc_errors_are_recovered(self, platform, soc_y, seed):
        model = RuntimeFaultModel(seed=seed, rates={CRC: 0.15})
        report = self.deploy(platform, soc_y, model)
        self.assert_every_frame_ran(report)
        # Some blank was corrupted and retried: it took its transfer,
        # a backoff and the transfer again.
        blanks = {}
        for event in report.timeline.events:
            if event.task.endswith("_blank"):
                blanks.setdefault(event.worker, []).append(event.duration_s)
        assert any(max(spans) > 2 * min(spans) for spans in blanks.values())

    def test_stuck_blank_is_aborted_at_the_deadline(self, platform, soc_y):
        model = RuntimeFaultModel()
        model.inject("rt2", "blank", RuntimeFaultKind.STUCK_TRANSFER, count=1)
        report = self.deploy(platform, soc_y, model)
        self.assert_every_frame_ran(report)
        assert report.runtime_stats.failed_attempts == 1
        deadline = RecoveryPolicy().reconfig_deadline_s
        # The first blank pays the watchdog deadline, a backoff and the
        # retried transfer, not the stall of a wedged DFXC left alone.
        blanks = [e for e in report.timeline.events if e.task == "rt2_blank"]
        assert len(blanks) == 4
        assert deadline < blanks[0].duration_s < 2 * deadline
        assert all(b.duration_s < deadline for b in blanks[1:])

    def test_a_tile_whose_blanks_always_fail_is_lost_not_the_run(
        self, platform, soc_y
    ):
        model = RuntimeFaultModel()
        model.inject("rt2", "blank", CRC, count=PERSISTENT)
        report = self.deploy(platform, soc_y, model)
        self.assert_every_frame_ran(report)
        stats = report.runtime_stats
        assert stats.quarantined == {"rt2": "crc"}
        assert stats.failovers > 0

    def test_same_seed_runs_are_identical(self, platform, soc_y):
        first, second = (
            self.deploy(platform, soc_y, RuntimeFaultModel(seed=3, rates={CRC: 0.15}))
            for _ in range(2)
        )
        assert first.to_summary_dict() == second.to_summary_dict()
        assert first.timeline.events == second.timeline.events
