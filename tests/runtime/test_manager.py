"""Tests for the runtime reconfiguration manager protocol."""

import pytest

from repro.errors import ReconfigurationError
from repro.noc.mesh import Mesh
from repro.runtime.driver import AcceleratorDriver, DriverRegistry
from repro.runtime.manager import ReconfigurationManager
from repro.runtime.memory import BitstreamStore
from repro.runtime.prc import PrcDevice
from repro.vivado.bitstream import Bitstream, BitstreamKind


def partial(mode, rp="rt0", size=300_000):
    return Bitstream(
        name=f"{rp}_{mode}.pbs",
        kind=BitstreamKind.PARTIAL,
        size_bytes=size,
        compressed=True,
        target_rp=rp,
        mode=mode,
    )


@pytest.fixture
def manager(sim):
    mesh = Mesh(3, 3, clock_hz=78e6)
    prc = PrcDevice(sim, mesh, mem_position=(0, 1), aux_position=(0, 2))
    store = BitstreamStore()
    registry = DriverRegistry()
    for mode in ("fft", "gemm", "sort"):
        registry.install(AcceleratorDriver(accelerator=mode, exec_time_s=0.010))
        store.load(partial(mode), "rt0")
        store.load(partial(mode, rp="rt1"), "rt1")
    mgr = ReconfigurationManager(sim, prc, store, registry)
    mgr.attach_tile("rt0")
    mgr.attach_tile("rt1")
    return mgr


class TestInvocation:
    def test_first_invoke_reconfigures(self, manager, sim):
        proc = manager.invoke("rt0", "fft")
        sim.run()
        record = proc.value
        assert record.reconfig_s > 0
        assert record.exec_time_s == pytest.approx(0.010)
        assert manager.tile("rt0").loaded_mode == "fft"

    def test_repeat_invoke_skips_reconfiguration(self, manager, sim):
        manager.invoke("rt0", "fft")
        second = manager.invoke("rt0", "fft")
        sim.run()
        assert second.value.reconfig_s == 0.0
        assert manager.tile("rt0").reconfigurations == 1

    def test_mode_switch_reconfigures_again(self, manager, sim):
        manager.invoke("rt0", "fft")
        switch = manager.invoke("rt0", "gemm")
        sim.run()
        assert switch.value.reconfig_s > 0
        assert manager.tile("rt0").loaded_mode == "gemm"
        assert manager.total_reconfigurations() == 2

    def test_unattached_tile_rejected(self, manager):
        # The sub-routine forms validate at the call, like the processes.
        with pytest.raises(ReconfigurationError):
            manager.invoke("ghost", "fft")
        with pytest.raises(ReconfigurationError):
            manager.invocation("ghost", "fft")
        with pytest.raises(ReconfigurationError):
            manager.blanking("ghost")

    def test_missing_driver_rejected(self, manager):
        with pytest.raises(Exception):
            manager.invoke("rt0", "not_installed")
        with pytest.raises(Exception):
            manager.invocation("rt0", "not_installed")

    def test_custom_exec_time(self, manager, sim):
        proc = manager.invoke("rt0", "fft", exec_time_s=0.5)
        sim.run()
        assert proc.value.exec_time_s == pytest.approx(0.5)


class TestLockingProtocol:
    def test_caller_waits_for_running_accelerator(self, manager, sim):
        """The paper: before queueing, the caller waits for the tile's
        current execution; during reconfiguration others block."""
        first = manager.invoke("rt0", "fft", exec_time_s=1.0)
        second = manager.invoke("rt0", "gemm", exec_time_s=0.1)
        sim.run()
        r1, r2 = first.value, second.value
        # Second starts its reconfiguration only after the first's
        # execution ends.
        assert r2.start_exec_s - r2.reconfig_s >= r1.end_exec_s

    def test_fifo_order_per_tile(self, manager, sim):
        procs = [manager.invoke("rt0", "fft", exec_time_s=0.01) for _ in range(4)]
        sim.run()
        starts = [p.value.start_exec_s for p in procs]
        assert starts == sorted(starts)

    def test_independent_tiles_proceed_in_parallel(self, manager, sim):
        a = manager.invoke("rt0", "fft", exec_time_s=1.0)
        b = manager.invoke("rt1", "gemm", exec_time_s=1.0)
        sim.run()
        # Executions overlap (reconfigurations serialize on the ICAP,
        # executions do not).
        ra, rb = a.value, b.value
        assert ra.start_exec_s < rb.end_exec_s
        assert rb.start_exec_s < ra.end_exec_s

    def test_decoupler_recoupled_after_reconfig(self, manager, sim):
        manager.invoke("rt0", "fft")
        sim.run()
        state = manager.tile("rt0")
        assert state.decoupler.queues_enabled
        assert state.decoupler.cycles == 1

    def test_driver_swapped(self, manager, sim):
        manager.invoke("rt0", "fft")
        sim.run()
        assert manager.registry.active_on("rt0").accelerator == "fft"


class TestPreload:
    def test_preload_reconfigures_without_exec(self, manager, sim):
        proc = manager.preload("rt0", "sort")
        sim.run()
        assert proc.value == "sort"
        assert manager.tile("rt0").loaded_mode == "sort"
        assert manager.invocations == []

    def test_preload_noop_when_loaded(self, manager, sim):
        manager.preload("rt0", "sort")
        sim.run()
        before = manager.total_reconfigurations()
        manager.preload("rt0", "sort")
        sim.run()
        assert manager.total_reconfigurations() == before


class TestTelemetry:
    def test_overhead_accounting(self, manager, sim):
        manager.invoke("rt0", "fft")
        manager.invoke("rt0", "gemm")
        sim.run()
        assert manager.reconfiguration_overhead_s() == pytest.approx(
            sum(r.reconfig_s for r in manager.invocations)
        )

    def test_double_attach_rejected(self, manager):
        with pytest.raises(ReconfigurationError):
            manager.attach_tile("rt0")
