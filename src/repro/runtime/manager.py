"""The kernel-level runtime reconfiguration manager (Sec. V).

Behavioural contract reproduced from the paper:

* reconfiguration requests are queued and executed as soon as the PRC
  is ready (the single ICAP serializes them FIFO — the kernel
  workqueue's role);
* before a request is queued, the calling thread waits for the
  accelerator currently in the tile to complete its execution;
* while a tile reconfigures, access to its device is locked: other
  threads block until the PRC interrupt arrives *and* the new driver is
  loaded;
* the decoupler isolates the tile for the whole programming window and
  is re-enabled (with a queue reset) afterwards.

The per-tile FIFO lock plus the PRC's internal lock implement exactly
this protocol on the discrete-event kernel.

On top of the protocol sits the watchdog/recovery layer (the runtime
counterpart of the CAD-side fault tolerance): failed transfers are
retried with seeded exponential backoff charged on the simulated clock,
transfers that overrun the reconfiguration deadline are aborted (DFXC
reset) and counted as stuck, abandoned reconfigurations fall back to
the tile's last-known-good bitstream, hung kernels are restarted, and a
tile that keeps failing is quarantined — taken dark, blanked and closed
to further invocations so schedulers can re-plan around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import (
    KernelHangError,
    ReconfigurationError,
    StuckTransferError,
    TileQuarantinedError,
)
from repro.obs import events as ev
from repro.obs.instrumentation import OFF, Instrumentation
from repro.obs.logconfig import get_logger
from repro.runtime.driver import DriverRegistry
from repro.runtime.faults import DEFAULT_RECOVERY, RecoveryPolicy, RuntimeFaultModel
from repro.runtime.memory import BitstreamStore
from repro.runtime.prc import PrcDevice, ReconfigurationRecord
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.resources import Lock
from repro.soc.socket import Decoupler

logger = get_logger("runtime.manager")


@dataclass
class TileState:
    """Manager-side state of one reconfigurable tile."""

    name: str
    decoupler: Decoupler
    lock: Lock
    loaded_mode: Optional[str] = None
    reconfigurations: int = 0
    #: Simulation time at which the region last became configured
    #: (None while dark). Feeds the power-gating energy account.
    configured_since: Optional[float] = None
    #: Accumulated configured time over closed windows.
    configured_s: float = 0.0
    #: The last mode that completed a reconfiguration on this tile —
    #: the fallback target when a newer bitstream is abandoned.
    last_good_mode: Optional[str] = None
    #: Abandoned operations (transfers and hung invocations) so far;
    #: reaching the recovery policy's threshold quarantines the tile.
    abandoned_ops: int = 0
    #: True once the tile is quarantined: dark, blanked and closed.
    quarantined: bool = False

    def mark_configured(self, now: float) -> None:
        """Region transitioned dark -> configured."""
        if self.configured_since is None:
            self.configured_since = now

    def mark_dark(self, now: float) -> None:
        """Region transitioned configured -> dark (blank or failure)."""
        if self.configured_since is not None:
            self.configured_s += now - self.configured_since
            self.configured_since = None

    def configured_time(self, until: float) -> float:
        """Total configured time up to ``until``."""
        total = self.configured_s
        if self.configured_since is not None:
            total += until - self.configured_since
        return total


@dataclass(frozen=True)
class InvocationRecord:
    """Telemetry of one accelerator invocation."""

    tile_name: str
    mode_name: str
    requested_s: float
    reconfig_s: float  # time spent reconfiguring (0 when already loaded)
    start_exec_s: float
    end_exec_s: float
    #: Failed transfer attempts this invocation rode through (the
    #: user-facing ``degraded`` signal).
    failed_attempts: int = 0
    #: Hung execution attempts the watchdog restarted before success.
    hang_attempts: int = 0

    @property
    def exec_time_s(self) -> float:
        """Accelerator execution time (including hung attempts)."""
        return self.end_exec_s - self.start_exec_s

    @property
    def wait_s(self) -> float:
        """Queueing delay before the tile was acquired."""
        return self.start_exec_s - self.reconfig_s - self.requested_s


class ReconfigurationManager:
    """Schedules and synchronizes reconfiguration requests."""

    def __init__(
        self,
        sim: Simulator,
        prc: PrcDevice,
        store: BitstreamStore,
        registry: DriverRegistry,
        instrumentation: Instrumentation = OFF,
        recovery: Optional[RecoveryPolicy] = None,
    ) -> None:
        self.sim = sim
        self.prc = prc
        self.store = store
        self.registry = registry
        #: The probe. The manager's protocol runs inside DES callbacks
        #: (whose host time lands under the kernel dispatch frames), so
        #: its profiler contributions are *semantic* root-anchored
        #: leaves — the ``runtime.*`` view of where simulated time went
        #: — rather than frames opened across generator yields.
        self.obs = instrumentation
        self.recovery = recovery if recovery is not None else DEFAULT_RECOVERY
        self.tiles: Dict[str, TileState] = {}
        self.invocations: List[InvocationRecord] = []
        #: Failed transfer attempts seen (telemetry for fault handling).
        self.failed_attempts = 0
        #: The same failures attributed to the tile that saw them.
        self.failed_attempts_by_tile: Dict[str, int] = {}
        #: Completed fallbacks to a last-known-good bitstream.
        self.fallbacks = 0
        self.fallbacks_by_tile: Dict[str, int] = {}
        #: Hung kernel attempts the watchdog caught.
        self.kernel_hangs = 0
        self.kernel_hangs_by_tile: Dict[str, int] = {}
        #: Quarantined tiles mapped to the fault kind that tipped them.
        self.quarantined: Dict[str, str] = {}

    @property
    def faults(self) -> RuntimeFaultModel:
        """The runtime fault model, shared with the PRC.

        Read dynamically from the device so anything that swaps a
        model onto the PRC (a ``prc_setup`` hook, a test) and the
        manager always see the same accounting.
        """
        return self.prc.faults

    # ------------------------------------------------------------------
    def attach_tile(self, tile_name: str) -> TileState:
        """Register a reconfigurable tile with the manager."""
        if tile_name in self.tiles:
            raise ReconfigurationError(f"tile {tile_name!r} already attached")
        state = TileState(
            name=tile_name,
            decoupler=Decoupler(tile_name=tile_name),
            lock=Lock(self.sim),
        )
        self.tiles[tile_name] = state
        self.registry.attach_tile(tile_name)
        return state

    def tile(self, tile_name: str) -> TileState:
        """Tile state lookup."""
        try:
            return self.tiles[tile_name]
        except KeyError:
            raise ReconfigurationError(f"tile {tile_name!r} not attached") from None

    def tile_quarantined(self, tile_name: str) -> bool:
        """True when the tile has been quarantined (closed to work)."""
        return self.tile(tile_name).quarantined

    def _check_quarantine(self, state: TileState) -> None:
        if state.quarantined:
            raise TileQuarantinedError(
                f"tile {state.name!r} is quarantined "
                f"({self.quarantined.get(state.name, 'persistent failures')})"
            )

    # ------------------------------------------------------------------
    def invoke(self, tile_name: str, mode_name: str, exec_time_s: Optional[float] = None) -> Process:
        """Run ``mode_name`` on ``tile_name``, reconfiguring if needed.

        Returns a process whose value is the :class:`InvocationRecord`.
        The process blocks (FIFO) while other threads hold the tile —
        including through their reconfigurations — which is the paper's
        locking discipline. Raises :class:`TileQuarantinedError` when
        the tile has been quarantined (checked again after the lock is
        acquired, since quarantine can happen while queued).
        """
        state = self.tile(tile_name)
        driver = self.registry.driver_for(mode_name)
        duration = exec_time_s if exec_time_s is not None else driver.exec_time_s

        track = f"kernel/{tile_name}"

        def body():
            self._check_quarantine(state)
            requested = self.sim.now
            self.obs.emit(
                ev.LOCK_REQUESTED, time=requested, source=tile_name, mode=mode_name
            )
            yield state.lock.acquire()
            acquired = self.sim.now
            self.obs.emit(
                ev.LOCK_ACQUIRED,
                time=acquired,
                source=tile_name,
                mode=mode_name,
                wait_s=acquired - requested,
            )
            if acquired > requested:
                self.obs.record(
                    "lock_wait",
                    requested,
                    acquired,
                    category="kernel.lock-wait",
                    track=track,
                    mode=mode_name,
                )
            self.obs.histogram(
                "runtime.lock_wait_s", "queueing delay before tile acquisition"
            ).observe(acquired - requested, tile=tile_name)
            self.obs.leaf(
                ("runtime", "lock_wait"),
                sim_s=acquired - requested,
                anchor="root",
            )
            try:
                self._check_quarantine(state)
                reconfig_time = 0.0
                failed_before = self.failed_attempts_by_tile.get(tile_name, 0)
                if state.loaded_mode != mode_name:
                    reconfig_time = yield from self._reconfigure_locked(state, mode_name)
                start_exec = self.sim.now
                hang_attempts = yield from self._execute_locked(
                    state, mode_name, duration, track
                )
                record = InvocationRecord(
                    tile_name=tile_name,
                    mode_name=mode_name,
                    requested_s=requested,
                    reconfig_s=reconfig_time,
                    start_exec_s=start_exec,
                    end_exec_s=self.sim.now,
                    failed_attempts=(
                        self.failed_attempts_by_tile.get(tile_name, 0)
                        - failed_before
                    ),
                    hang_attempts=hang_attempts,
                )
                self.invocations.append(record)
                self.obs.counter(
                    "runtime.invocations", "completed accelerator invocations"
                ).inc(tile=tile_name)
                logger.debug(
                    "%s: ran %s for %.6fs (reconfig %.6fs, wait %.6fs)",
                    tile_name,
                    mode_name,
                    record.exec_time_s,
                    record.reconfig_s,
                    record.wait_s,
                )
                return record
            finally:
                state.lock.release()

        return self.sim.process(body())

    def blank_tile(self, tile_name: str) -> Process:
        """Erase a tile's region with its blanking (greybox) bitstream.

        Used for power saving and for clearing a faulty accelerator:
        the driver is unregistered, the region is cleared, and the tile
        reports no loaded mode afterwards. Requires the flow to have
        produced a blanking image for the tile. Serializes on the
        per-tile lock, so blanking can never interleave with an
        in-flight reconfiguration or invocation on the same tile.
        """
        state = self.tile(tile_name)

        def body():
            yield state.lock.acquire()
            try:
                result = yield from self._blank_locked(state)
                return result
            finally:
                state.lock.release()

        return self.sim.process(body())

    def _blank_locked(self, state: TileState):
        """Blanking protocol; caller must hold the tile lock."""
        if state.loaded_mode is None:
            return None  # already dark
        blank = self.store.lookup(state.name, "blank")
        start = self.sim.now
        self.obs.emit(
            ev.RECONFIG_REQUESTED,
            time=start,
            source=state.name,
            mode="blank",
            size_bytes=blank.size_bytes,
        )
        span = self.obs.begin(
            "blank",
            category="kernel.decouple",
            track=f"kernel/{state.name}",
            size_bytes=blank.size_bytes,
        )
        state.decoupler.decouple()
        self.registry.swap(state.name, None)
        self.obs.emit(
            ev.DRIVER_SWAPPED, time=self.sim.now, source=state.name, driver=None
        )
        self.obs.emit(
            ev.RECONFIG_STARTED,
            time=self.sim.now,
            source=state.name,
            mode="blank",
            size_bytes=blank.size_bytes,
        )
        yield self.prc.reconfigure(state.name, "blank", blank.size_bytes)
        state.decoupler.recouple()
        state.loaded_mode = None
        state.mark_dark(self.sim.now)
        state.reconfigurations += 1
        self.obs.counter(
            "runtime.reconfigurations", "completed tile reconfigurations"
        ).inc(tile=state.name)
        self.obs.histogram(
            "runtime.reconfig_seconds", "end-to-end reconfiguration latency"
        ).observe(self.sim.now - start, tile=state.name)
        self.obs.emit(
            ev.RECONFIG_COMPLETED,
            time=self.sim.now,
            source=state.name,
            mode="blank",
            duration_s=self.sim.now - start,
        )
        self.obs.end(span)
        return "blank"

    def preload(self, tile_name: str, mode_name: str) -> Process:
        """Reconfigure a tile without running the accelerator."""
        state = self.tile(tile_name)

        def body():
            self._check_quarantine(state)
            yield state.lock.acquire()
            try:
                self._check_quarantine(state)
                if state.loaded_mode != mode_name:
                    yield from self._reconfigure_locked(state, mode_name)
                return state.loaded_mode
            finally:
                state.lock.release()

        return self.sim.process(body())

    # ------------------------------------------------------------------
    #: Transfer retries before a reconfiguration is declared failed
    #: (kept for compatibility; the live value is
    #: ``recovery.max_attempts - 1``).
    MAX_RETRIES = 1

    def _transfer_attempt(self, state: TileState, mode_name: str, size_bytes: int):
        """One watched transfer attempt; caller must hold the tile lock.

        Without an enabled fault model this is a plain blocking
        transfer (zero watchdog overhead on healthy deployments). With
        one, the recovery policy's reconfiguration deadline races the
        transfer: a transfer still wedged past the deadline is aborted
        (DFXC reset, freeing the ICAP) and raised as
        :class:`StuckTransferError`. A transfer merely *queued* behind
        the ICAP past the deadline is not stuck — the watchdog extends
        and keeps watching.
        """
        transfer = self.prc.reconfigure(state.name, mode_name, size_bytes)
        if not self.faults.enabled:
            record: ReconfigurationRecord = yield transfer
            return record
        deadline_s = self.recovery.reconfig_deadline_s
        while True:
            deadline = self.sim.timeout(deadline_s)
            try:
                # A failed transfer (CRC) fails the AnyOf, re-raised here.
                yield self.sim.any_of([transfer, deadline])
            finally:
                deadline.cancel()  # a lost deadline must not stall the clock
            if transfer.ok:
                return transfer.value
            if self.prc.abort_transfer(state.name, mode_name):
                raise StuckTransferError(
                    f"{state.name}/{mode_name}: transfer exceeded the "
                    f"{deadline_s:.3f}s reconfiguration deadline"
                )

    def _reconfigure_locked(self, state: TileState, mode_name: str):
        """The reconfiguration protocol; caller must hold the tile lock.

        Generator sub-routine (used via ``yield from``); returns the
        time spent. A failed transfer (CRC error or watchdog abort) is
        retried with seeded exponential backoff up to the recovery
        policy's attempt budget; if all attempts fail the region is
        left dark (no driver, no loaded mode, decoupler re-enabled so
        the blank region cannot wedge the NoC), recovery — fallback to
        the last-known-good bitstream, or quarantine — runs, and the
        error propagates to the calling thread.
        """
        loaded = self.store.lookup(state.name, mode_name)
        start = self.sim.now
        track = f"kernel/{state.name}"
        self.obs.emit(
            ev.RECONFIG_REQUESTED,
            time=start,
            source=state.name,
            mode=mode_name,
            size_bytes=loaded.size_bytes,
        )
        decouple_span = self.obs.begin(
            f"reconfigure:{mode_name}",
            category="kernel.decouple",
            track=track,
            mode=mode_name,
            size_bytes=loaded.size_bytes,
        )
        # 1. software decouples the tile (disables the NoC queue inputs)
        state.decoupler.decouple()
        # 2. the old driver is unregistered while the region is dark
        self.registry.swap(state.name, None)
        self.obs.emit(
            ev.DRIVER_SWAPPED, time=self.sim.now, source=state.name, driver=None
        )
        # 3. queue on the PRC; it fetches and streams the bitstream
        self.obs.emit(
            ev.RECONFIG_STARTED,
            time=self.sim.now,
            source=state.name,
            mode=mode_name,
            size_bytes=loaded.size_bytes,
        )
        attempts = 0
        while True:
            try:
                record: ReconfigurationRecord = yield from self._transfer_attempt(
                    state, mode_name, loaded.size_bytes
                )
                break
            except ReconfigurationError as exc:
                attempts += 1
                reason = getattr(exc, "fault_kind", "crc")
                self._record_failed_attempt(state.name, mode_name, reason=reason)
                if attempts >= self.recovery.max_attempts:
                    # Give up: leave the region dark but functional.
                    state.loaded_mode = None
                    state.mark_dark(self.sim.now)
                    state.decoupler.recouple()
                    self.obs.counter(
                        "runtime.reconfig_failures",
                        "reconfigurations abandoned after retries",
                    ).inc(tile=state.name)
                    self.obs.emit(
                        ev.RECONFIG_FAILED,
                        time=self.sim.now,
                        source=state.name,
                        mode=mode_name,
                        attempts=attempts,
                        abandoned=True,
                        reason=reason,
                    )
                    self.obs.end(decouple_span, failed=True)
                    self.obs.leaf(
                        ("runtime", "recovery", "abandon"),
                        sim_s=self.sim.now - start,
                        anchor="root",
                    )
                    logger.warning(
                        "%s: reconfiguration to %s abandoned after %d attempts",
                        state.name,
                        mode_name,
                        attempts,
                    )
                    yield from self._recover_abandoned_locked(state, mode_name, reason)
                    raise
                self.obs.counter(
                    "runtime.reconfig_retries", "transfer retries after CRC errors"
                ).inc(tile=state.name)
                self.obs.emit(
                    ev.RECONFIG_FAILED,
                    time=self.sim.now,
                    source=state.name,
                    mode=mode_name,
                    attempts=attempts,
                    abandoned=False,
                    reason=reason,
                )
                backoff = self.recovery.backoff_before(
                    attempts + 1, self.faults.seed, state.name, mode_name
                )
                self.obs.leaf(
                    ("runtime", "recovery", "retry"), sim_s=backoff, anchor="root"
                )
                if backoff > 0.0:
                    yield self.sim.timeout(backoff)
        # 4. interrupt received: load the new driver, re-enable queues
        self.registry.swap(state.name, mode_name)
        state.decoupler.recouple()
        state.loaded_mode = mode_name
        state.mark_configured(self.sim.now)
        state.last_good_mode = mode_name
        state.reconfigurations += 1
        self.obs.counter(
            "runtime.reconfigurations", "completed tile reconfigurations"
        ).inc(tile=state.name)
        self.obs.histogram(
            "runtime.reconfig_seconds", "end-to-end reconfiguration latency"
        ).observe(self.sim.now - start, tile=state.name)
        self.obs.emit(
            ev.DRIVER_SWAPPED, time=self.sim.now, source=state.name, driver=mode_name
        )
        self.obs.emit(
            ev.RECONFIG_COMPLETED,
            time=self.sim.now,
            source=state.name,
            mode=mode_name,
            duration_s=self.sim.now - start,
        )
        self.obs.end(decouple_span)
        self.obs.leaf(
            ("runtime", "reconfigure"), sim_s=self.sim.now - start, anchor="root"
        )
        return self.sim.now - start

    def _execute_locked(
        self, state: TileState, mode_name: str, duration: float, track: str
    ):
        """One accelerator execution under the hang watchdog.

        Generator sub-routine; returns the number of hung attempts the
        watchdog restarted. A hung attempt burns ``duration *
        exec_deadline_factor`` of simulated time (the watchdog only
        fires at its deadline) before the restart; exhausting the hang
        budget resets the tile and raises :class:`KernelHangError`.
        """
        hang_attempts = 0
        while True:
            hung = self.faults.enabled and self.faults.invoke_fault(
                state.name, mode_name
            )
            exec_span = self.obs.begin(
                mode_name,
                category="kernel.exec",
                track=track,
                tile=state.name,
                mode=mode_name,
            )
            if not hung:
                yield self.sim.timeout(duration)
                self.obs.end(exec_span)
                self.obs.leaf(
                    ("runtime", "exec"), sim_s=duration, anchor="root"
                )
                return hang_attempts
            # No completion interrupt: wait out the watchdog deadline.
            yield self.sim.timeout(duration * self.recovery.exec_deadline_factor)
            hang_attempts += 1
            self.kernel_hangs += 1
            self.kernel_hangs_by_tile[state.name] = (
                self.kernel_hangs_by_tile.get(state.name, 0) + 1
            )
            self.obs.counter(
                "runtime.kernel_hangs", "hung invocations caught by the watchdog"
            ).inc(tile=state.name)
            self.obs.end(exec_span, failed=True)
            self.obs.leaf(
                ("runtime", "recovery", "kernel_hang"),
                sim_s=duration * self.recovery.exec_deadline_factor,
                anchor="root",
            )
            self.obs.emit(
                ev.KERNEL_HUNG,
                time=self.sim.now,
                source=state.name,
                mode=mode_name,
                attempts=hang_attempts,
            )
            logger.warning(
                "%s: %s hung (attempt %d); watchdog fired after %.6fs",
                state.name,
                mode_name,
                hang_attempts,
                duration * self.recovery.exec_deadline_factor,
            )
            if hang_attempts >= self.recovery.hang_max_attempts:
                yield from self._abandon_hung_locked(state, mode_name)
                raise KernelHangError(
                    f"{state.name}/{mode_name}: kernel hung "
                    f"{hang_attempts} times; invocation abandoned"
                )
            backoff = self.recovery.backoff_before(
                hang_attempts + 1, self.faults.seed, state.name, f"{mode_name}#hang"
            )
            if backoff > 0.0:
                yield self.sim.timeout(backoff)

    def _abandon_hung_locked(self, state: TileState, mode_name: str):
        """Reset a tile whose kernel would not come back; lock held."""
        self.registry.swap(state.name, None)
        self.obs.emit(
            ev.DRIVER_SWAPPED, time=self.sim.now, source=state.name, driver=None
        )
        state.loaded_mode = None
        state.mark_dark(self.sim.now)
        self.obs.counter(
            "runtime.hang_abandons", "invocations abandoned after repeated hangs"
        ).inc(tile=state.name)
        yield from self._recover_abandoned_locked(state, mode_name, reason="hang")

    # ------------------------------------------------------------------
    # recovery: fallback and quarantine (tile lock held throughout)
    # ------------------------------------------------------------------
    def _recover_abandoned_locked(
        self, state: TileState, mode_name: str, reason: str
    ):
        """Recovery after an abandoned operation; caller holds the lock.

        Charges the abandonment against the tile's quarantine budget,
        then either quarantines the tile or — when a *different*
        last-known-good bitstream exists — falls back to it so the tile
        keeps serving its old mode instead of going dark.
        """
        state.abandoned_ops += 1
        if state.abandoned_ops >= self.recovery.quarantine_after:
            yield from self._quarantine_locked(state, reason)
            return
        if (
            self.recovery.fallback_to_last_good
            and state.last_good_mode is not None
            and state.last_good_mode != mode_name
            and self.store.has_image(state.name, state.last_good_mode)
        ):
            recovered = yield from self._fallback_locked(state, mode_name)
            if not recovered:
                state.abandoned_ops += 1
                if state.abandoned_ops >= self.recovery.quarantine_after:
                    yield from self._quarantine_locked(state, reason)

    def _fallback_locked(self, state: TileState, failed_mode: str):
        """Reload the last-known-good bitstream; caller holds the lock.

        Single watched attempt (a failing fallback should not burn the
        full retry budget again); returns True when the tile came back.
        """
        good = state.last_good_mode
        image = self.store.lookup(state.name, good)
        start = self.sim.now
        span = self.obs.begin(
            f"fallback:{good}",
            category="kernel.decouple",
            track=f"kernel/{state.name}",
            mode=good,
            size_bytes=image.size_bytes,
        )
        state.decoupler.decouple()
        try:
            yield from self._transfer_attempt(state, good, image.size_bytes)
        except ReconfigurationError as exc:
            self._record_failed_attempt(
                state.name, good, reason=getattr(exc, "fault_kind", "crc")
            )
            state.decoupler.recouple()
            self.obs.end(span, failed=True)
            logger.warning(
                "%s: fallback to last-known-good %s failed", state.name, good
            )
            return False
        self.registry.swap(state.name, good)
        state.decoupler.recouple()
        state.loaded_mode = good
        state.mark_configured(self.sim.now)
        state.reconfigurations += 1
        self.fallbacks += 1
        self.fallbacks_by_tile[state.name] = (
            self.fallbacks_by_tile.get(state.name, 0) + 1
        )
        self.obs.counter(
            "runtime.reconfigurations", "completed tile reconfigurations"
        ).inc(tile=state.name)
        self.obs.histogram(
            "runtime.reconfig_seconds", "end-to-end reconfiguration latency"
        ).observe(self.sim.now - start, tile=state.name)
        self.obs.counter(
            "runtime.fallbacks", "fallbacks to a last-known-good bitstream"
        ).inc(tile=state.name)
        self.obs.emit(
            ev.DRIVER_SWAPPED, time=self.sim.now, source=state.name, driver=good
        )
        self.obs.emit(
            ev.RECONFIG_FALLBACK,
            time=self.sim.now,
            source=state.name,
            mode=good,
            failed_mode=failed_mode,
            duration_s=self.sim.now - start,
        )
        self.obs.end(span)
        self.obs.leaf(
            ("runtime", "recovery", "fallback"),
            sim_s=self.sim.now - start,
            anchor="root",
        )
        logger.warning(
            "%s: fell back to last-known-good %s after %s failed",
            state.name,
            good,
            failed_mode,
        )
        return True

    def _quarantine_locked(self, state: TileState, reason: str):
        """Quarantine a persistently failing tile; caller holds the lock.

        The tile is closed to further work, its driver is already
        unloaded (the abandon path did that), and its region is blanked
        when a blanking image exists so the dead accelerator cannot
        drive the NoC.
        """
        if state.quarantined:
            return
        state.quarantined = True
        self.quarantined[state.name] = reason
        blanked = False
        if self.store.has_image(state.name, "blank"):
            blank = self.store.lookup(state.name, "blank")
            state.decoupler.decouple()
            try:
                yield from self._transfer_attempt(state, "blank", blank.size_bytes)
                blanked = True
            except ReconfigurationError:
                logger.warning(
                    "%s: blanking during quarantine failed; region left as-is",
                    state.name,
                )
            finally:
                state.decoupler.recouple()
        self.obs.counter(
            "runtime.quarantines", "tiles quarantined after persistent failures"
        ).inc(tile=state.name)
        self.obs.leaf(
            ("runtime", "recovery", "quarantine"), anchor="root"
        )
        self.obs.emit(
            ev.TILE_QUARANTINED,
            time=self.sim.now,
            source=state.name,
            reason=reason,
            blanked=blanked,
            abandoned_ops=state.abandoned_ops,
        )
        logger.error(
            "%s: quarantined after %d abandoned operations (%s); blanked=%s",
            state.name,
            state.abandoned_ops,
            reason,
            blanked,
        )

    def _record_failed_attempt(
        self, tile_name: str, mode_name: str, reason: str = "crc"
    ) -> None:
        """Attribute one failed transfer to its tile (and the registry)."""
        self.failed_attempts += 1
        self.failed_attempts_by_tile[tile_name] = (
            self.failed_attempts_by_tile.get(tile_name, 0) + 1
        )
        self.obs.counter(
            "runtime.failed_attempts", "failed bitstream transfer attempts"
        ).inc(tile=tile_name)
        logger.warning(
            "%s: transfer of %s failed (%s)", tile_name, mode_name, reason
        )

    # ------------------------------------------------------------------
    # telemetry
    # ------------------------------------------------------------------
    def total_reconfigurations(self) -> int:
        """Completed reconfigurations across all tiles."""
        return sum(t.reconfigurations for t in self.tiles.values())

    def reconfiguration_overhead_s(self) -> float:
        """Total time invocations spent reconfiguring."""
        return sum(r.reconfig_s for r in self.invocations)

    def configured_fractions(self, until: Optional[float] = None) -> Dict[str, float]:
        """Per-tile fraction of time the region held a configuration.

        The power-gating energy account scales each region's clock/
        leakage power by this fraction (1.0 without blanking).
        """
        end = until if until is not None else self.sim.now
        if end <= 0:
            return {name: 0.0 for name in self.tiles}
        return {
            name: min(1.0, state.configured_time(end) / end)
            for name, state in self.tiles.items()
        }
