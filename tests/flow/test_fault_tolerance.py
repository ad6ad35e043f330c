"""Tests for fault-tolerant, resumable flow builds.

Covers the acceptance properties of the fault-tolerance layer: same
seed reproduces the same retry timeline and summary, backoffs respect
the policy bound, a permanently failed RP degrades the build instead of
aborting it (with valid full + blanking bitstreams), and an interrupted
checkpointed build resumed with ``resume=True`` matches the
uninterrupted one bit for bit.
"""

import pytest

from repro.core.strategy import ImplementationStrategy
from repro.errors import FlowError
from repro.flow.dpr_flow import DprFlow
from repro.obs.instrumentation import Instrumentation
from repro.obs.events import (
    CAD_JOB_FAILED,
    CAD_JOB_RETRIED,
    EventBus,
    FLOW_CHECKPOINT_SAVED,
    FLOW_DEGRADED,
    FLOW_STAGE_RESUMED,
)
from repro.soc.config import SocConfig
from repro.soc.esp_library import stock_accelerator
from repro.soc.tiles import ReconfigurableTile, Tile, TileKind
from repro.vivado.bitstream import BitstreamKind
from repro.vivado.faults import CadFaultError, CadFaultModel, RetryPolicy
from repro.vivado.runtime_model import JobKind

ALL_RATES = {kind: 0.5 for kind in JobKind}


@pytest.fixture
def duo_soc() -> SocConfig:
    """A 2x3 SoC with two reconfigurable tiles."""
    return SocConfig.assemble(
        name="duo",
        board="vc707",
        rows=2,
        cols=3,
        tiles=[
            Tile(kind=TileKind.CPU, name="cpu0"),
            Tile(kind=TileKind.MEM, name="mem0"),
            Tile(kind=TileKind.AUX, name="aux0"),
            ReconfigurableTile(
                name="rt0",
                modes=[stock_accelerator("fft"), stock_accelerator("gemm")],
            ),
            ReconfigurableTile(name="rt1", modes=[stock_accelerator("conv2d")]),
        ],
    )


def flow_with_injection(stage: str, job: str, count: int = 3) -> DprFlow:
    """A flow whose fault model permanently fails one targeted job."""
    faults = CadFaultModel()
    faults.inject_fault(stage, job, count=count)
    return DprFlow(faults=faults)


class TestDeterminism:
    def test_same_seed_same_retry_timeline_and_summary(self, duo_soc):
        results = [
            DprFlow(faults=CadFaultModel(seed=0, rates=ALL_RATES)).build(duo_soc)
            for _ in range(2)
        ]
        assert results[0].to_summary_dict() == results[1].to_summary_dict()
        assert results[0].executions == results[1].executions
        # The 0.5 rate must actually exercise the retry path.
        assert results[0].total_retries > 0

    def test_fault_free_flow_reports_no_retries(self, duo_soc):
        result = DprFlow().build(duo_soc)
        assert result.total_retries == 0
        assert result.degraded is False
        assert result.failures == ()
        summary = result.to_summary_dict()["fault_tolerance"]
        assert summary["degraded"] is False
        assert summary["retries"] == 0

    def test_retries_reshape_the_makespan(self, duo_soc):
        healthy = DprFlow().build(duo_soc)
        faults = CadFaultModel()
        faults.inject_fault("synthesis", "synth_rt0", count=1)
        retried = DprFlow(faults=faults).build(duo_soc)
        assert retried.total_retries == 1
        assert retried.total_minutes > healthy.total_minutes


class TestBackoffBound:
    def test_every_backoff_within_policy_cap(self, duo_soc):
        policy = RetryPolicy(
            max_attempts=4, backoff_minutes=2.0, factor=3.0,
            cap_minutes=5.0, jitter=0.25,
        )
        flow = DprFlow(
            faults=CadFaultModel(seed=1, rates=ALL_RATES), retry=policy
        )
        result = flow.build(duo_soc)
        attempts = [
            attempt
            for execution in result.executions.values()
            for attempt in execution.attempts
        ]
        assert any(a.backoff_minutes > 0 for a in attempts)
        assert all(
            a.backoff_minutes <= policy.max_backoff_minutes for a in attempts
        )


class TestDegradation:
    def test_dark_synth_rp_degrades_with_blanking_bitstream(self, duo_soc):
        result = flow_with_injection("synthesis", "synth_rt0").build(duo_soc)
        assert result.degraded is True
        assert result.dark_rps == ("rt0",)
        failure = result.failures[0]
        assert (failure.stage, failure.job) == ("synthesis", "synth_rt0")
        assert failure.rp_names == ("rt0",)
        assert failure.attempts == 3
        assert failure.minutes_burned > 0
        # One valid full bitstream, blanking-only for the dark tile.
        fulls = [b for b in result.bitstreams if b.kind is BitstreamKind.FULL]
        assert len(fulls) == 1
        rt0 = [b for b in result.bitstreams if b.target_rp == "rt0"]
        assert [b.mode for b in rt0] == ["blank"]
        rt1_modes = {b.mode for b in result.bitstreams if b.target_rp == "rt1"}
        assert "conv2d" in rt1_modes and "blank" in rt1_modes

    def test_summary_dict_carries_the_failure(self, duo_soc):
        result = flow_with_injection("synthesis", "synth_rt0").build(duo_soc)
        section = result.to_summary_dict()["fault_tolerance"]
        assert section["degraded"] is True
        assert section["dark_rps"] == ["rt0"]
        assert section["failures"][0]["job"] == "synth_rt0"

    def test_static_synthesis_failure_aborts(self, duo_soc):
        with pytest.raises(CadFaultError, match="synth_static"):
            flow_with_injection("synthesis", "synth_static").build(duo_soc)

    def test_context_run_failure_darkens_its_group(self, duo_soc):
        flow = flow_with_injection("implementation", "impl_ctx_1")
        result = flow.build(
            duo_soc, strategy_override=ImplementationStrategy.FULLY_PARALLEL
        )
        assert result.degraded is True
        assert result.dark_rps == ("rt1",)  # impl_ctx_1 implements rt1
        assert "impl_ctx_1" not in result.omega_minutes
        dark = [b for b in result.bitstreams if b.target_rp == "rt1"]
        assert [b.mode for b in dark] == ["blank"]

    def test_serial_run_failure_aborts(self, duo_soc):
        flow = flow_with_injection("implementation", "impl_serial")
        with pytest.raises(CadFaultError, match="impl_serial"):
            flow.build(
                duo_soc, strategy_override=ImplementationStrategy.SERIAL
            )

    def test_all_rps_dark_aborts(self, duo_soc):
        faults = CadFaultModel()
        faults.inject_fault("synthesis", "synth_rt0", count=3)
        faults.inject_fault("synthesis", "synth_rt1", count=3)
        with pytest.raises(FlowError, match="excluded"):
            DprFlow(faults=faults).build(duo_soc)

    def test_events_narrate_retries_failures_and_degradation(self, duo_soc):
        faults = CadFaultModel()
        faults.inject_fault("synthesis", "synth_rt0", count=3)
        faults.inject_fault("synthesis", "synth_rt1", count=1)
        bus = EventBus()
        flow_result = DprFlow(faults=faults).build(
            duo_soc, instrumentation=Instrumentation(events=bus)
        )
        kinds = [event.kind for event in bus.events()]
        assert CAD_JOB_RETRIED in kinds
        assert CAD_JOB_FAILED in kinds
        assert kinds.count(FLOW_DEGRADED) == 1
        assert flow_result.degraded is True


class TestCheckpointResume:
    def test_resume_reproduces_the_summary(self, duo_soc, tmp_path):
        flow = DprFlow()
        first = flow.build(duo_soc, checkpoint_dir=tmp_path / "ckpt")
        resumed = flow.build(
            duo_soc, checkpoint_dir=tmp_path / "ckpt", resume=True
        )
        assert resumed.resumed_stages == tuple(s.stage for s in first.stages)
        assert resumed.to_summary_dict() == first.to_summary_dict()

    def test_interrupted_build_resumes_to_identical_summary(
        self, duo_soc, tmp_path, monkeypatch
    ):
        baseline = DprFlow().build(duo_soc)
        flow = DprFlow()

        def crash(*args, **kwargs):
            raise KeyboardInterrupt("killed mid-flow")

        monkeypatch.setattr(flow, "_implement", crash)
        with pytest.raises(KeyboardInterrupt):
            flow.build(duo_soc, checkpoint_dir=tmp_path / "ckpt")
        monkeypatch.undo()

        resumed = flow.build(
            duo_soc, checkpoint_dir=tmp_path / "ckpt", resume=True
        )
        assert "synthesis" in resumed.resumed_stages
        assert "implementation" not in resumed.resumed_stages
        assert resumed.to_summary_dict() == baseline.to_summary_dict()

    def test_resume_ignores_checkpoints_of_a_different_build(
        self, duo_soc, tmp_path
    ):
        DprFlow().build(duo_soc, checkpoint_dir=tmp_path / "ckpt")
        other = DprFlow(faults=CadFaultModel(seed=9, rates=ALL_RATES))
        resumed = other.build(
            duo_soc, checkpoint_dir=tmp_path / "ckpt", resume=True
        )
        assert resumed.resumed_stages == ()

    def test_fresh_build_clears_stale_checkpoints(self, duo_soc, tmp_path):
        flow = DprFlow()
        flow.build(duo_soc, checkpoint_dir=tmp_path / "ckpt")
        again = flow.build(duo_soc, checkpoint_dir=tmp_path / "ckpt")
        assert again.resumed_stages == ()

    def test_degraded_build_survives_resume(self, duo_soc, tmp_path):
        flow = flow_with_injection("synthesis", "synth_rt0")
        first = flow.build(duo_soc, checkpoint_dir=tmp_path / "ckpt")
        resumed = flow.build(
            duo_soc, checkpoint_dir=tmp_path / "ckpt", resume=True
        )
        assert resumed.degraded is True
        assert resumed.dark_rps == ("rt0",)
        assert resumed.to_summary_dict() == first.to_summary_dict()

    def test_resume_emits_stage_resumed_events(self, duo_soc, tmp_path):
        flow = DprFlow()
        flow.build(duo_soc, checkpoint_dir=tmp_path / "ckpt")
        bus = EventBus()
        flow.build(
            duo_soc,
            checkpoint_dir=tmp_path / "ckpt",
            resume=True,
            instrumentation=Instrumentation(events=bus),
        )
        kinds = [event.kind for event in bus.events()]
        assert FLOW_STAGE_RESUMED in kinds
        assert FLOW_CHECKPOINT_SAVED not in kinds
