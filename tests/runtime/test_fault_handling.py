"""Failure-injection tests: PRC transfer errors and manager recovery."""

import pytest

from repro.errors import ReconfigurationError
from repro.noc.mesh import Mesh
from repro.runtime.driver import AcceleratorDriver, DriverRegistry
from repro.runtime.manager import ReconfigurationManager
from repro.runtime.memory import BitstreamStore
from repro.runtime.faults import (
    NO_RUNTIME_FAULTS,
    RuntimeFaultKind,
    RuntimeFaultModel,
)
from repro.runtime.prc import PrcDevice
from repro.vivado.bitstream import Bitstream, BitstreamKind


def inject(prc, tile, mode, count=1):
    """Arm CRC failures the supported way (the old shim is gone)."""
    if prc.faults is NO_RUNTIME_FAULTS:
        prc.faults = RuntimeFaultModel()
    prc.faults.inject(
        tile, mode, RuntimeFaultKind.BITSTREAM_CORRUPTION, count=count
    )


def make_stack(sim):
    mesh = Mesh(3, 3, clock_hz=78e6)
    prc = PrcDevice(sim, mesh, mem_position=(0, 1), aux_position=(0, 2))
    store = BitstreamStore()
    registry = DriverRegistry()
    for mode in ("fft", "gemm"):
        registry.install(AcceleratorDriver(accelerator=mode, exec_time_s=0.01))
        store.load(
            Bitstream(
                name=f"rt0_{mode}.pbs",
                kind=BitstreamKind.PARTIAL,
                size_bytes=250_000,
                compressed=True,
                target_rp="rt0",
                mode=mode,
            ),
            "rt0",
        )
    manager = ReconfigurationManager(sim, prc, store, registry)
    manager.attach_tile("rt0")
    return manager, prc


class TestPrcInjection:
    def test_injected_failure_fails_transfer(self, sim):
        manager, prc = make_stack(sim)
        inject(prc, "rt0", "fft")
        # Direct PRC use: the transfer process fails.
        proc = sim.process(prc.reconfigure("rt0", "fft", 250_000))
        sim.run()
        assert isinstance(proc.exception, ReconfigurationError)
        assert prc.failed_transfers == 1

    def test_failure_count_must_be_positive(self, sim):
        _, prc = make_stack(sim)
        with pytest.raises(ReconfigurationError):
            prc.faults.inject("rt0", "fft", count=0)

    def test_failures_are_consumed(self, sim):
        manager, prc = make_stack(sim)
        inject(prc, "rt0", "fft", count=1)
        first = sim.process(prc.reconfigure("rt0", "fft", 250_000))
        second = sim.process(prc.reconfigure("rt0", "fft", 250_000))
        sim.run()
        assert first.exception is not None
        assert second.exception is None

    def test_icap_lock_released_after_failure(self, sim):
        _, prc = make_stack(sim)
        inject(prc, "rt0", "fft")
        sim.process(prc.reconfigure("rt0", "fft", 250_000))
        sim.run()
        assert not prc.busy


class TestManagerRecovery:
    def test_single_failure_is_retried_transparently(self, sim):
        manager, prc = make_stack(sim)
        inject(prc, "rt0", "fft", count=1)
        proc = manager.invoke("rt0", "fft")
        sim.run()
        record = proc.value  # succeeded despite the failed first attempt
        assert record.mode_name == "fft"
        assert manager.failed_attempts == 1
        assert manager.tile("rt0").loaded_mode == "fft"
        # The retry paid a second transfer window.
        assert record.reconfig_s > 1.5 * prc.transfer_seconds(250_000)

    def test_double_failure_propagates_and_leaves_tile_dark(self, sim):
        manager, prc = make_stack(sim)
        inject(prc, "rt0", "fft", count=2)
        proc = manager.invoke("rt0", "fft")
        sim.run()
        assert isinstance(proc.exception, ReconfigurationError)
        state = manager.tile("rt0")
        assert state.loaded_mode is None
        assert state.decoupler.queues_enabled  # tile cannot wedge the NoC
        assert manager.registry.active_on("rt0") is None

    def test_tile_remains_usable_after_hard_failure(self, sim):
        manager, prc = make_stack(sim)
        inject(prc, "rt0", "fft", count=2)
        failed = manager.invoke("rt0", "fft")
        recovered = manager.invoke("rt0", "gemm")
        sim.run()
        assert failed.exception is not None
        assert recovered.value.mode_name == "gemm"
        assert manager.tile("rt0").loaded_mode == "gemm"

    def test_lock_released_after_hard_failure(self, sim):
        manager, prc = make_stack(sim)
        inject(prc, "rt0", "fft", count=2)
        manager.invoke("rt0", "fft")
        sim.run()
        assert not manager.tile("rt0").lock.locked


class TestBlanking:
    def load_blank(self, manager):
        manager.store.load(
            Bitstream(
                name="rt0_blank.pbs",
                kind=BitstreamKind.PARTIAL,
                size_bytes=80_000,
                compressed=True,
                target_rp="rt0",
                mode="blank",
            ),
            "rt0",
        )

    def test_blank_clears_tile(self, sim):
        manager, _ = make_stack(sim)
        self.load_blank(manager)
        manager.invoke("rt0", "fft")
        proc = manager.blank_tile("rt0")
        sim.run()
        assert proc.value == "blank"
        assert manager.tile("rt0").loaded_mode is None
        assert manager.registry.active_on("rt0") is None

    def test_blank_idempotent_on_dark_tile(self, sim):
        manager, _ = make_stack(sim)
        self.load_blank(manager)
        proc = manager.blank_tile("rt0")
        sim.run()
        assert proc.value is None  # already dark: no transfer
        assert manager.total_reconfigurations() == 0

    def test_invoke_after_blank_reconfigures(self, sim):
        manager, _ = make_stack(sim)
        self.load_blank(manager)
        manager.invoke("rt0", "fft")
        manager.blank_tile("rt0")
        proc = manager.invoke("rt0", "fft")
        sim.run()
        assert proc.value.reconfig_s > 0

    def test_blank_without_image_fails(self, sim):
        manager, _ = make_stack(sim)
        manager.invoke("rt0", "fft")
        proc = manager.blank_tile("rt0")
        sim.run()
        assert isinstance(proc.exception, ReconfigurationError)
