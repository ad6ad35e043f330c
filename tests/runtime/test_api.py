"""Tests for the user-space DPR API."""

import pytest

from repro.errors import ReconfigurationError
from repro.noc.mesh import Mesh
from repro.runtime.api import DprUserApi
from repro.runtime.driver import AcceleratorDriver, DriverRegistry
from repro.runtime.faults import RuntimeFaultModel
from repro.runtime.manager import ReconfigurationManager
from repro.runtime.memory import BitstreamStore
from repro.runtime.prc import PrcDevice
from repro.vivado.bitstream import Bitstream, BitstreamKind


@pytest.fixture
def api(sim):
    mesh = Mesh(2, 2, clock_hz=78e6)
    prc = PrcDevice(sim, mesh, mem_position=(0, 1), aux_position=(1, 0))
    store = BitstreamStore()
    registry = DriverRegistry()
    for mode in ("fft", "gemm"):
        registry.install(AcceleratorDriver(accelerator=mode, exec_time_s=0.01))
        store.load(
            Bitstream(
                name=f"rt0_{mode}.pbs",
                kind=BitstreamKind.PARTIAL,
                size_bytes=200_000,
                compressed=True,
                target_rp="rt0",
                mode=mode,
            ),
            "rt0",
        )
    manager = ReconfigurationManager(sim, prc, store, registry)
    manager.attach_tile("rt0")
    return DprUserApi(manager)


class TestOpen:
    def test_open_exposes_modes(self, api):
        handle = api.open_tile("rt0")
        assert handle.modes == ("fft", "gemm")

    def test_open_unknown_tile(self, api):
        with pytest.raises(ReconfigurationError):
            api.open_tile("ghost")

    def test_handle_lookup(self, api):
        api.open_tile("rt0")
        assert api.handle("rt0").tile_name == "rt0"
        with pytest.raises(ReconfigurationError, match="not open"):
            api.handle("rt1")

    def test_context_manager_closes(self, api):
        with api.open_tile("rt0") as handle:
            assert api.handle("rt0") is handle
        with pytest.raises(ReconfigurationError, match="not open"):
            api.handle("rt0")

    def test_closed_handle_rejected(self, api):
        with api.open_tile("rt0") as handle:
            pass
        with pytest.raises(ReconfigurationError, match="not open"):
            api.esp_run(handle, "fft")
        with pytest.raises(ReconfigurationError, match="not open"):
            api.esp_blank(handle)
        # The in-thread forms reject at the call, not at the first step.
        with pytest.raises(ReconfigurationError, match="not open"):
            api.run(handle, "fft")
        with pytest.raises(ReconfigurationError, match="not open"):
            api.blank(handle)

    def test_close_is_idempotent(self, api):
        handle = api.open_tile("rt0")
        handle.close()
        handle.close()


class TestRun:
    def test_esp_run_returns_invocation_result(self, api, sim):
        handle = api.open_tile("rt0")
        result = api.esp_run(handle, "fft")
        assert not result.done
        with pytest.raises(ReconfigurationError, match="not completed"):
            _ = result.record
        sim.run()
        assert result.done
        assert result.accelerator == "fft"
        assert result.tile_name == "rt0"
        assert result.record.mode_name == "fft"
        assert result.exec_time_s == pytest.approx(0.01)
        assert result.reconfig_s > 0.0
        assert result.wait_s == pytest.approx(0.0)
        assert result.degraded is False
        assert len(api.invocation_log()) == 1

    def test_run_without_bitstream_rejected(self, api):
        handle = api.open_tile("rt0")
        with pytest.raises(ReconfigurationError, match="no bitstream"):
            api.esp_run(handle, "sort")
        with pytest.raises(ReconfigurationError, match="no bitstream"):
            api.run(handle, "sort")

    def test_run_blocks_the_calling_thread(self, api, sim):
        handle = api.open_tile("rt0")

        def thread():
            step = yield from api.run(handle, "fft")
            return step, sim.now

        proc = sim.process(thread())
        sim.run()
        step, finished = proc.value
        # The call returns the execution's step; the invocation's
        # record is the fold of the log.
        assert (step.mode, step.end) == ("fft", finished)
        (record,) = api.invocation_log()
        assert record.mode_name == "fft"
        assert record.end_exec_s == finished

    def test_esp_load_prefetches(self, api, sim):
        handle = api.open_tile("rt0")
        api.esp_load(handle, "gemm")
        sim.run()
        result = api.esp_run(handle, "gemm")
        sim.run()
        assert result.reconfig_s == 0.0

    def test_esp_load_unknown_mode(self, api):
        handle = api.open_tile("rt0")
        with pytest.raises(ReconfigurationError):
            api.esp_load(handle, "sort")

    def test_degraded_flag_reflects_failed_transfers(self, api, sim):
        prc = api._manager.prc
        prc.faults = RuntimeFaultModel()
        prc.faults.inject("rt0", "fft", count=1)
        handle = api.open_tile("rt0")
        result = api.esp_run(handle, "fft")
        sim.run()
        assert result.degraded is True
        assert result.record.failed_attempts == 1
