"""The runtime fault model and the manager's watchdog/recovery layer."""

import pytest

from repro.errors import (
    KernelHangError,
    ReconfigurationError,
    StuckTransferError,
    TileQuarantinedError,
)
from repro.noc.mesh import Mesh
from repro.obs import events as ev
from repro.obs.events import EventBus
from repro.obs.instrumentation import Instrumentation
from repro.runtime.driver import AcceleratorDriver, DriverRegistry
from repro.runtime.faults import (
    NO_RUNTIME_FAULTS,
    PERSISTENT,
    RecoveryPolicy,
    RuntimeFaultKind,
    RuntimeFaultModel,
    RuntimeFaultOptions,
)
from repro.runtime.manager import ReconfigurationManager
from repro.runtime.memory import BitstreamStore
from repro.runtime.prc import PrcDevice
from repro.vivado.bitstream import Bitstream, BitstreamKind

CRC = RuntimeFaultKind.BITSTREAM_CORRUPTION
STUCK = RuntimeFaultKind.STUCK_TRANSFER
HANG = RuntimeFaultKind.KERNEL_HANG


def make_stack(sim, faults=None, recovery=None, events=None, blank=False):
    """A one-tile runtime stack with optional fault model and policy."""
    mesh = Mesh(3, 3, clock_hz=78e6)
    prc = PrcDevice(
        sim,
        mesh,
        mem_position=(0, 1),
        aux_position=(0, 2),
        faults=faults if faults is not None else NO_RUNTIME_FAULTS,
    )
    store = BitstreamStore()
    registry = DriverRegistry()
    modes = ["fft", "gemm"] + (["blank"] if blank else [])
    for mode in modes:
        if mode != "blank":
            registry.install(AcceleratorDriver(accelerator=mode, exec_time_s=0.01))
        store.load(
            Bitstream(
                name=f"rt0_{mode}.pbs",
                kind=BitstreamKind.PARTIAL,
                size_bytes=80_000 if mode == "blank" else 250_000,
                compressed=True,
                target_rp="rt0",
                mode=mode,
            ),
            "rt0",
        )
    manager = ReconfigurationManager(
        sim,
        prc,
        store,
        registry,
        instrumentation=Instrumentation(events=events),
        recovery=recovery,
    )
    manager.attach_tile("rt0")
    return manager, prc


class TestFaultModel:
    def test_draws_are_order_independent(self):
        rates = {CRC: 0.3, STUCK: 0.2}
        forward = RuntimeFaultModel(seed=11, rates=rates)
        backward = RuntimeFaultModel(seed=11, rates=rates)
        keys = [("rt0", "fft"), ("rt1", "gemm"), ("rt2", "fft")]
        got_fwd = {k: [forward.transfer_fault(*k) for _ in range(8)] for k in keys}
        got_bwd = {
            k: [backward.transfer_fault(*k) for _ in range(8)]
            for k in reversed(keys)
        }
        assert got_fwd == got_bwd

    def test_same_seed_replays_same_timeline(self):
        a = RuntimeFaultModel(seed=7, rates={CRC: 0.4, HANG: 0.3})
        b = RuntimeFaultModel(seed=7, rates={CRC: 0.4, HANG: 0.3})
        assert [a.transfer_fault("rt0", "fft") for _ in range(16)] == [
            b.transfer_fault("rt0", "fft") for _ in range(16)
        ]
        assert [a.invoke_fault("rt0", "fft") for _ in range(16)] == [
            b.invoke_fault("rt0", "fft") for _ in range(16)
        ]

    def test_different_seeds_diverge(self):
        a = RuntimeFaultModel(seed=1, rates={CRC: 0.5})
        b = RuntimeFaultModel(seed=2, rates={CRC: 0.5})
        assert [a.transfer_fault("rt0", "fft") for _ in range(32)] != [
            b.transfer_fault("rt0", "fft") for _ in range(32)
        ]

    def test_injected_counts_are_consumed_in_order(self):
        model = RuntimeFaultModel()
        model.inject("rt0", "fft", CRC, count=2)
        model.inject("rt0", "fft", STUCK, count=1)
        outcomes = [model.transfer_fault("rt0", "fft") for _ in range(4)]
        assert outcomes == [CRC, CRC, STUCK, None]
        assert model.drawn[CRC] == 2 and model.drawn[STUCK] == 1

    def test_persistent_injection_never_drains(self):
        model = RuntimeFaultModel()
        model.inject("rt0", "fft", CRC, count=PERSISTENT)
        assert all(
            model.transfer_fault("rt0", "fft") is CRC for _ in range(10)
        )
        assert model.injected_count("rt0", "fft", CRC) == PERSISTENT

    def test_injection_validation(self):
        model = RuntimeFaultModel()
        with pytest.raises(ReconfigurationError):
            model.inject("rt0", "fft", "crc")  # not a RuntimeFaultKind
        with pytest.raises(ReconfigurationError):
            model.inject("rt0", "fft", CRC, count=0)

    def test_rate_validation(self):
        with pytest.raises(ReconfigurationError):
            RuntimeFaultModel(rates={"crc": 0.1})
        with pytest.raises(ReconfigurationError):
            RuntimeFaultModel(rates={CRC: 1.0})
        with pytest.raises(ReconfigurationError):
            RuntimeFaultModel(rates={CRC: 0.6, STUCK: 0.5})

    def test_enabled(self):
        assert not RuntimeFaultModel().enabled
        assert RuntimeFaultModel(rates={HANG: 0.1}).enabled
        armed = RuntimeFaultModel()
        armed.inject("rt0", "fft")
        assert armed.enabled

    def test_fresh_restarts_attempt_numbering(self):
        model = RuntimeFaultModel(seed=5, rates={CRC: 0.3})
        model.inject("rt0", "gemm", HANG, count=1)
        first = [model.transfer_fault("rt0", "fft") for _ in range(12)]
        replay = model.fresh()
        assert [replay.transfer_fault("rt0", "fft") for _ in range(12)] == first
        assert replay.invoke_fault("rt0", "gemm")  # injection copied over
        assert replay.fingerprint() == model.fingerprint()

    def test_no_runtime_faults_refuses_injection(self):
        with pytest.raises(ReconfigurationError):
            NO_RUNTIME_FAULTS.inject("rt0", "fft")
        assert NO_RUNTIME_FAULTS.transfer_fault("rt0", "fft") is None
        assert not NO_RUNTIME_FAULTS.invoke_fault("rt0", "fft")
        assert not NO_RUNTIME_FAULTS.enabled

    def test_options_validate_types(self):
        with pytest.raises(ReconfigurationError):
            RuntimeFaultOptions(faults="nope")
        with pytest.raises(ReconfigurationError):
            RuntimeFaultOptions(recovery="nope")


class TestRecoveryPolicy:
    def test_first_attempt_has_no_backoff(self):
        assert RecoveryPolicy().backoff_before(1, 0, "rt0", "fft") == 0.0

    def test_backoff_grows_then_caps(self):
        policy = RecoveryPolicy(backoff_s=0.01, factor=2.0, cap_s=0.02, jitter=0.0)
        waits = [policy.backoff_before(n, 0, "rt0", "fft") for n in (2, 3, 4, 5)]
        assert waits == [0.01, 0.02, 0.02, 0.02]
        assert policy.max_backoff_s == 0.02

    def test_jitter_is_bounded_and_deterministic(self):
        policy = RecoveryPolicy(backoff_s=0.01, cap_s=0.01, jitter=0.5)
        wait = policy.backoff_before(2, 3, "rt0", "fft")
        assert 0.01 <= wait <= 0.015
        assert wait == policy.backoff_before(2, 3, "rt0", "fft")

    def test_validation(self):
        with pytest.raises(ReconfigurationError):
            RecoveryPolicy(max_attempts=0)
        with pytest.raises(ReconfigurationError):
            RecoveryPolicy(factor=0.5)
        with pytest.raises(ReconfigurationError):
            RecoveryPolicy(jitter=1.5)
        with pytest.raises(ReconfigurationError):
            RecoveryPolicy(exec_deadline_factor=1.0)
        with pytest.raises(ReconfigurationError):
            RecoveryPolicy(quarantine_after=0)


class TestRemovedShim:
    def test_model_injection_is_shared_with_the_manager(self, sim):
        model = RuntimeFaultModel()
        model.inject("rt0", "fft", CRC, count=2)
        manager, prc = make_stack(sim, faults=model)
        assert manager.faults is prc.faults
        assert manager.faults.injected_count("rt0", "fft", CRC) == 2

    def test_legacy_retry_contract_is_preserved(self, sim):
        model = RuntimeFaultModel()
        model.inject("rt0", "fft", CRC, count=1)
        manager, _ = make_stack(sim, faults=model)
        proc = manager.invoke("rt0", "fft")
        sim.run()
        assert proc.value.mode_name == "fft"
        assert proc.value.failed_attempts == 1


class TestStuckTransfers:
    def test_direct_stuck_transfer_fails_and_frees_icap(self, sim):
        model = RuntimeFaultModel()
        model.inject("rt0", "fft", STUCK)
        _, prc = make_stack(sim, faults=model)
        proc = sim.process(prc.reconfigure("rt0", "fft", 250_000))
        sim.run()
        assert isinstance(proc.exception, StuckTransferError)
        assert not prc.busy
        assert prc.failed_transfers == 1

    def test_abort_frees_a_wedged_transfer_early(self, sim):
        model = RuntimeFaultModel()
        model.inject("rt0", "fft", STUCK)
        _, prc = make_stack(sim, faults=model)
        sim.process(prc.reconfigure("rt0", "fft", 250_000))

        def aborter():
            yield sim.timeout(0.01)
            assert prc.abort_transfer("rt0", "fft")

        sim.process(aborter())
        sim.run()
        # Without the abort the stall burns ~1000 transfer windows.
        assert sim.now == pytest.approx(0.01)
        assert not prc.busy

    def test_watchdog_aborts_and_retry_succeeds(self, sim):
        model = RuntimeFaultModel()
        model.inject("rt0", "fft", STUCK, count=1)
        bus = EventBus()
        manager, prc = make_stack(sim, faults=model, events=bus)
        proc = manager.invoke("rt0", "fft")
        sim.run()
        record = proc.value
        assert record.mode_name == "fft"
        assert record.failed_attempts == 1
        assert manager.tile("rt0").loaded_mode == "fft"
        assert not prc.busy
        failed = bus.events(ev.RECONFIG_FAILED)
        assert failed and failed[0].attrs["reason"] == "stuck"
        # The abort fired at the recovery deadline, not the 1000x stall.
        assert sim.now < 1000 * prc.transfer_seconds(250_000)


class TestFallback:
    def test_abandoned_reconfig_falls_back_to_last_good(self, sim):
        model = RuntimeFaultModel()
        model.inject("rt0", "fft", CRC, count=PERSISTENT)
        bus = EventBus()
        manager, _ = make_stack(sim, faults=model, events=bus)
        warmup = manager.invoke("rt0", "gemm")
        failed = manager.invoke("rt0", "fft")
        sim.run()
        assert warmup.value.mode_name == "gemm"
        assert isinstance(failed.exception, ReconfigurationError)
        # The tile kept serving its last-known-good mode instead of
        # going dark.
        state = manager.tile("rt0")
        assert state.loaded_mode == "gemm"
        assert state.last_good_mode == "gemm"
        assert manager.fallbacks == 1
        assert manager.fallbacks_by_tile["rt0"] == 1
        fallback = bus.events(ev.RECONFIG_FALLBACK)
        assert len(fallback) == 1
        assert fallback[0].attrs["mode"] == "gemm"
        assert fallback[0].attrs["failed_mode"] == "fft"

    def test_no_fallback_without_a_prior_success(self, sim):
        model = RuntimeFaultModel()
        model.inject("rt0", "fft", CRC, count=2)
        manager, _ = make_stack(sim, faults=model)
        proc = manager.invoke("rt0", "fft")
        sim.run()
        # Satellite: retry-once-then-dark — fft never succeeded, so
        # there is nothing to fall back to and the region stays dark.
        assert isinstance(proc.exception, ReconfigurationError)
        state = manager.tile("rt0")
        assert state.loaded_mode is None
        assert state.decoupler.queues_enabled
        assert manager.fallbacks == 0

    def test_fallback_can_be_disabled(self, sim):
        model = RuntimeFaultModel()
        model.inject("rt0", "fft", CRC, count=PERSISTENT)
        manager, _ = make_stack(
            sim, faults=model, recovery=RecoveryPolicy(fallback_to_last_good=False)
        )
        warmup = manager.invoke("rt0", "gemm")
        failed = manager.invoke("rt0", "fft")
        sim.run()
        assert warmup.value is not None
        assert failed.exception is not None
        assert manager.tile("rt0").loaded_mode is None
        assert manager.fallbacks == 0


class TestKernelHangs:
    def test_hung_kernel_is_restarted(self, sim):
        model = RuntimeFaultModel()
        model.inject("rt0", "fft", HANG, count=1)
        bus = EventBus()
        manager, _ = make_stack(sim, faults=model, events=bus)
        proc = manager.invoke("rt0", "fft")
        sim.run()
        record = proc.value
        assert record.mode_name == "fft"
        assert record.hang_attempts == 1
        assert manager.kernel_hangs == 1
        hung = bus.events(ev.KERNEL_HUNG)
        assert len(hung) == 1
        # The hung attempt burned the watchdog deadline, the restart
        # then ran the nominal execution on top.
        policy = manager.recovery
        assert record.exec_time_s >= 0.01 * (policy.exec_deadline_factor + 1)

    def test_persistent_hang_abandons_the_invocation(self, sim):
        model = RuntimeFaultModel()
        model.inject("rt0", "fft", HANG, count=PERSISTENT)
        manager, _ = make_stack(sim, faults=model)
        proc = manager.invoke("rt0", "fft")
        sim.run()
        assert isinstance(proc.exception, KernelHangError)
        state = manager.tile("rt0")
        assert state.loaded_mode is None
        assert manager.registry.active_on("rt0") is None
        assert not state.lock.locked


class TestQuarantine:
    def drive_to_quarantine(self, sim, blank=True, events=None):
        model = RuntimeFaultModel()
        model.inject("rt0", "fft", CRC, count=PERSISTENT)
        manager, _ = make_stack(sim, faults=model, events=events, blank=blank)
        procs = [manager.invoke("rt0", "fft") for _ in range(4)]
        sim.run()
        return manager, procs

    def test_persistent_failures_quarantine_the_tile(self, sim):
        bus = EventBus()
        manager, procs = self.drive_to_quarantine(sim, events=bus)
        # quarantine_after=3: the first three invocations each abandon
        # a reconfiguration, the fourth finds the tile closed.
        for proc in procs[:3]:
            assert isinstance(proc.exception, ReconfigurationError)
        assert isinstance(procs[3].exception, TileQuarantinedError)
        assert manager.tile_quarantined("rt0")
        assert manager.quarantined == {"rt0": "crc"}
        marks = bus.events(ev.TILE_QUARANTINED)
        assert len(marks) == 1
        assert marks[0].attrs["blanked"] is True
        assert marks[0].attrs["abandoned_ops"] == 3

    def test_quarantine_without_blank_image_leaves_region_as_is(self, sim):
        bus = EventBus()
        manager, _ = self.drive_to_quarantine(sim, blank=False, events=bus)
        marks = bus.events(ev.TILE_QUARANTINED)
        assert marks[0].attrs["blanked"] is False
        assert manager.tile_quarantined("rt0")

    def test_preload_and_invoke_refused_after_quarantine(self, sim):
        manager, _ = self.drive_to_quarantine(sim)
        invoke = manager.invoke("rt0", "gemm")
        preload = manager.preload("rt0", "gemm")
        sim.run()
        assert isinstance(invoke.exception, TileQuarantinedError)
        assert isinstance(preload.exception, TileQuarantinedError)


class TestConfiguredFractions:
    def test_tile_going_dark_mid_window_caps_the_fraction(self, sim):
        model = RuntimeFaultModel()
        model.inject("rt0", "gemm", CRC, count=PERSISTENT)
        manager, _ = make_stack(
            sim, faults=model, recovery=RecoveryPolicy(fallback_to_last_good=False)
        )

        def scenario():
            yield manager.invoke("rt0", "fft")  # configures the region
            failed = manager.invoke("rt0", "gemm")  # abandons -> dark
            yield sim.any_of([failed])
            dark_at = sim.now
            yield sim.timeout(2 * dark_at)  # let the dark window grow
            return dark_at

        proc = sim.process(scenario())
        sim.run()
        dark_at = proc.value
        fraction = manager.configured_fractions()["rt0"]
        assert 0.0 < fraction < 1.0
        # The configured window closed when the tile went dark; the
        # tail of the run added only dark time.
        state = manager.tile("rt0")
        assert state.configured_since is None
        assert state.configured_time(sim.now) == state.configured_time(dark_at)


class TestBlankReconfigureSerialization:
    def test_blank_cannot_interleave_with_a_reconfiguration(self, sim):
        # Regression: blank_tile used to bypass the per-tile lock, so a
        # blank could start while a reconfiguration held the tile.
        bus = EventBus()
        manager, _ = make_stack(sim, events=bus, blank=True)
        invoke = manager.invoke("rt0", "fft")
        blanked = manager.blank_tile("rt0")
        sim.run()
        assert invoke.value.mode_name == "fft"
        assert blanked.value == "blank"
        assert manager.tile("rt0").loaded_mode is None
        starts = bus.events(ev.RECONFIG_STARTED)
        completions = bus.events(ev.RECONFIG_COMPLETED)
        assert [e.attrs["mode"] for e in starts] == ["fft", "blank"]
        # The blank only started after the fft window fully closed.
        assert starts[1].time >= completions[0].time

    def test_blank_queued_first_runs_first(self, sim):
        manager, _ = make_stack(sim, blank=True)
        blanked = manager.blank_tile("rt0")  # tile dark: no-op
        invoke = manager.invoke("rt0", "fft")
        sim.run()
        assert blanked.value is None
        assert invoke.value.mode_name == "fft"
        assert manager.tile("rt0").loaded_mode == "fft"


class TestBlankRecovery:
    """A blank is a watched, retried transfer like any other."""

    def test_transient_crc_on_a_blank_is_retried(self, sim):
        model = RuntimeFaultModel()
        model.inject("rt0", "blank", CRC, count=1)
        manager, prc = make_stack(sim, faults=model, blank=True)
        manager.invoke("rt0", "fft")
        blanked = manager.blank_tile("rt0")
        sim.run()
        assert blanked.value == "blank"
        assert manager.failed_attempts_by_tile == {"rt0": 1}
        assert manager.tile("rt0").abandoned_ops == 0
        assert [r.mode_name for r in prc.records] == ["fft", "blank"]

    def test_stuck_blank_is_aborted_at_the_deadline(self, sim):
        model = RuntimeFaultModel()
        model.inject("rt0", "blank", STUCK, count=1)
        bus = EventBus()
        manager, prc = make_stack(sim, faults=model, events=bus, blank=True)
        manager.invoke("rt0", "fft")
        blanked = manager.blank_tile("rt0")
        sim.run()
        assert blanked.value == "blank"
        (started,) = [
            e for e in bus.events(ev.RECONFIG_STARTED) if e.attrs["mode"] == "blank"
        ]
        (failed,) = bus.events(ev.RECONFIG_FAILED)
        assert failed.attrs == {
            "mode": "blank", "attempts": 1, "abandoned": False, "reason": "stuck",
        }
        # Aborted by the watchdog, not after the 1000x stall.
        assert failed.time - started.time == pytest.approx(
            manager.recovery.reconfig_deadline_s
        )
        assert not prc.busy

    def test_exhausted_blank_is_an_abandoned_operation(self, sim):
        model = RuntimeFaultModel()
        model.inject("rt0", "blank", CRC, count=PERSISTENT)
        manager, _ = make_stack(sim, faults=model, blank=True)
        manager.invoke("rt0", "fft")
        blanked = manager.blank_tile("rt0")
        sim.run()
        assert isinstance(blanked.exception, ReconfigurationError)
        state = manager.tile("rt0")
        assert manager.failed_attempts == manager.recovery.max_attempts
        assert state.abandoned_ops == 1
        # Dark, as the blank intended: no fallback to the old mode.
        assert state.loaded_mode is None
        assert manager.fallbacks == 0
        assert state.decoupler.queues_enabled
        assert not state.lock.locked
