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

The protocol logs each step once (:mod:`repro.runtime.steps`) and
emits its lifecycle events live; its invocation records and fault
counters are folds of the log, its trace, profile and metrics a
post-run projection.
"""

from __future__ import annotations

import logging
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
from repro.runtime.prc import PrcDevice
from repro.runtime.steps import (
    BLANK,
    EXEC,
    FALLBACK,
    HANG,
    LOCK,
    QUARANTINE,
    RECONFIGURE,
    RETRY,
    InvocationRecord,
    Step,
    build,
)
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
        #: The probe: the protocol emits its lifecycle events on it live.
        self.obs = instrumentation
        self.recovery = recovery if recovery is not None else DEFAULT_RECOVERY
        self.tiles: Dict[str, TileState] = {}
        self.steps = prc.steps
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

    def _raise_quarantined(self, state: TileState) -> None:
        raise TileQuarantinedError(
            f"tile {state.name!r} is quarantined "
            f"({self.quarantined.get(state.name, 'persistent failures')})"
        )

    def _emit(self, kind: str, state: TileState, **attrs) -> None:
        """One lifecycle event of the tile, now (callers test the bus first)."""
        self.obs.emit(kind, time=self.sim.now, source=state.name, **attrs)

    # ------------------------------------------------------------------
    # the protocol: generator sub-routines of the calling thread
    # ------------------------------------------------------------------
    def inline(self, steps):
        """Enter a protocol sub-routine in the calling thread.

        Returns ``steps`` itself, for the caller to run with ``yield
        from``: the thread that asked for the work does it, as the
        thread calling ``esp_run`` does, and no process, start event or
        completion event is spent on it. Every entry into a sub-routine
        that could run as a process of its own (an invocation, a blank,
        a fault-free transfer) goes through here, so the
        reference-equivalence test can spawn each one instead and check
        that the dispatch order does not change.
        """
        return steps

    def invocation(
        self, tile_name: str, mode_name: str, exec_time_s: Optional[float] = None
    ):
        """Generator sub-routine: run ``mode_name`` on ``tile_name``.

        Reconfigures if needed and returns the execution's
        :class:`~repro.runtime.steps.Step`. The calling thread blocks
        (FIFO) while other threads hold the tile — including through
        their reconfigurations — which is the paper's locking discipline.
        Raises :class:`TileQuarantinedError` when the tile has been
        quarantined (checked again after the lock is acquired, since
        quarantine can happen while queued). An unattached tile or a
        missing driver raises here, at the call.
        """
        state = self.tile(tile_name)
        driver = self.registry.driver_for(mode_name)
        duration = exec_time_s if exec_time_s is not None else driver.exec_time_s
        return self._invocation(state, mode_name, duration)

    def _invocation(self, state: TileState, mode_name: str, duration: float):
        """The invocation protocol behind :meth:`invocation`."""
        if state.quarantined:
            self._raise_quarantined(state)
        sim = self.sim
        steps = self.steps
        tile_name = state.name
        requested = sim.now
        if self.obs.events is not None:
            self._emit(ev.LOCK_REQUESTED, state, mode=mode_name)
        lock = state.lock
        yield lock.acquire()
        acquired = sim.now
        if self.obs.events is not None:
            self._emit(ev.LOCK_ACQUIRED, state, mode=mode_name,
                       wait_s=acquired - requested)
        steps.append(build(Step, (LOCK, steps.ticket(), tile_name, mode_name,
                                 requested, acquired, 0, None, None)))
        try:
            if state.quarantined:
                self._raise_quarantined(state)
            reconfig_time = 0.0
            if state.loaded_mode != mode_name:
                reconfig_time = yield from self._reconfigure_locked(state, mode_name)
            start_exec = sim.now
            # One timeout, unless a kernel can hang: then the watchdog runs it.
            if self.faults.enabled:
                step = yield from self._execute_locked(state, mode_name, duration)
            else:
                seq = steps.ticket()
                yield sim.timeout(duration)
                step = build(Step, (EXEC, seq, tile_name, mode_name, start_exec,
                                   sim.now, 0, duration, None))
                steps.append(step)
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "%s: ran %s for %.6fs (reconfig %.6fs, wait %.6fs)",
                    tile_name,
                    mode_name,
                    sim.now - start_exec,
                    reconfig_time,
                    acquired - requested,
                )
            return step
        finally:
            lock.release()

    def invoke(
        self, tile_name: str, mode_name: str, exec_time_s: Optional[float] = None
    ) -> Process:
        """:meth:`invocation` as a process (value: its :class:`InvocationRecord`)."""
        steps = self.invocation(tile_name, mode_name, exec_time_s)

        def body():
            step = yield from steps
            return self.steps.folded().invocations[step.seq]

        return self.sim.process(body())

    def blanking(self, tile_name: str):
        """Generator sub-routine: erase a tile's region (greybox image).

        Used for power saving and for clearing a faulty accelerator:
        the driver is unregistered, the region is cleared, and the tile
        reports no loaded mode afterwards; returns ``"blank"`` (None
        when the tile was already dark). Requires the flow to have
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

        return body()

    def blank_tile(self, tile_name: str) -> Process:
        """:meth:`blanking` as a process."""
        return self.sim.process(self.blanking(tile_name))

    def _blank_locked(self, state: TileState):
        """Blanking protocol; caller must hold the tile lock.

        The blank is a transfer like any other: watched, and retried
        with the recovery policy's backoff and attempt budget. An
        exhausted blank leaves the region dark, counts as an abandoned
        operation and raises.
        """
        if state.loaded_mode is None:
            return None  # already dark
        blank = self.store.lookup(state.name, "blank")
        start = self.sim.now
        seq = self.steps.ticket()
        state.decoupler.decouple()
        self.registry.swap(state.name, None)
        if self.obs.events is not None:
            self._emit_window_opened(state, "blank", blank.size_bytes)
        yield from self._transfer_retried(
            state, "blank", blank.size_bytes, BLANK, seq, start
        )
        state.decoupler.recouple()
        state.loaded_mode = None
        state.mark_dark(self.sim.now)
        state.reconfigurations += 1
        self._window_closed(BLANK, seq, state, "blank", start, blank.size_bytes)
        return "blank"

    def preload(self, tile_name: str, mode_name: str) -> Process:
        """Reconfigure a tile without running the accelerator."""
        state = self.tile(tile_name)

        def body():
            if state.quarantined:
                self._raise_quarantined(state)
            yield state.lock.acquire()
            try:
                if state.quarantined:
                    self._raise_quarantined(state)
                if state.loaded_mode != mode_name:
                    yield from self._reconfigure_locked(state, mode_name)
                return state.loaded_mode
            finally:
                state.lock.release()

        return self.sim.process(body())

    # ------------------------------------------------------------------
    def _transfer_attempt(self, state: TileState, mode_name: str, size_bytes: int):
        """One transfer attempt; caller must hold the tile lock.

        Returns the sub-routine for the caller to run with ``yield
        from``. Without an enabled fault model that is the plain
        blocking transfer itself, entered in the calling thread (zero
        watchdog overhead, and no frame of its own, on healthy
        deployments). With one, it is :meth:`_watched_transfer`.
        """
        steps = self.prc.reconfigure(state.name, mode_name, size_bytes)
        if not self.faults.enabled:
            return self.inline(steps)
        return self._watched_transfer(state, mode_name, steps)

    def _watched_transfer(self, state: TileState, mode_name: str, steps):
        """A transfer raced against the reconfiguration deadline.

        The transfer is spawned as a process: one still wedged past the
        deadline is aborted (DFXC reset, freeing the ICAP) and raised as
        :class:`StuckTransferError`. A transfer merely *queued* behind
        the ICAP past the deadline is not stuck — the watchdog extends
        and keeps watching.
        """
        transfer = self.sim.process(steps)
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
        time spent. The transfer is retried as :meth:`_transfer_retried`
        describes; once abandoned, recovery — fallback to the
        last-known-good bitstream, or quarantine — runs and the error
        propagates to the calling thread.
        """
        loaded = self.store.lookup(state.name, mode_name)
        start = self.sim.now
        seq = self.steps.ticket()
        # 1. software decouples the tile (disables the NoC queue inputs)
        state.decoupler.decouple()
        # 2. the old driver is unregistered while the region is dark
        self.registry.swap(state.name, None)
        # 3. queue on the PRC; it fetches and streams the bitstream
        if self.obs.events is not None:
            self._emit_window_opened(state, mode_name, loaded.size_bytes)
        yield from self._transfer_retried(
            state, mode_name, loaded.size_bytes, RECONFIGURE, seq, start
        )
        # 4. interrupt received: load the new driver, re-enable queues
        self.registry.swap(state.name, mode_name)
        state.decoupler.recouple()
        state.loaded_mode = mode_name
        state.mark_configured(self.sim.now)
        state.last_good_mode = mode_name
        state.reconfigurations += 1
        self._window_closed(
            RECONFIGURE, seq, state, mode_name, start, loaded.size_bytes
        )
        return self.sim.now - start

    def _emit_window_opened(self, state: TileState, mode_name: str, size_bytes: int):
        """The tile is decoupled, its driver gone, the transfer queued."""
        self._emit(ev.RECONFIG_REQUESTED, state, mode=mode_name, size_bytes=size_bytes)
        self._emit(ev.DRIVER_SWAPPED, state, driver=None)
        self._emit(ev.RECONFIG_STARTED, state, mode=mode_name, size_bytes=size_bytes)

    def _window_closed(self, kind, seq, state, mode_name, start, size_bytes) -> None:
        """A completed reconfiguration (or blank): its step and events."""
        now = self.sim.now
        self.steps.append(build(Step, (kind, seq, state.name, mode_name, start, now,
                                      size_bytes, None, None)))
        if self.obs.events is None:
            return
        if kind is not BLANK:
            self._emit(ev.DRIVER_SWAPPED, state, driver=mode_name)
        self._emit(ev.RECONFIG_COMPLETED, state, mode=mode_name, duration_s=now - start)

    def _transfer_retried(
        self, state: TileState, mode_name: str, size_bytes: int, kind: str,
        seq: int, start: float,
    ):
        """Transfer with retries; caller holds the lock, tile decoupled.

        Generator sub-routine for the window of ``kind`` opened at
        ``start``. A failed attempt (CRC error or watchdog abort) is
        retried with seeded exponential backoff up to the recovery
        policy's attempt budget; if all attempts fail the region is left
        dark (no loaded mode, decoupler re-enabled so the blank region
        cannot wedge the NoC), the window closes failed, recovery runs
        and the error propagates.
        """
        attempts = 0
        while True:
            try:
                return (yield from self._transfer_attempt(state, mode_name, size_bytes))
            except ReconfigurationError as exc:
                attempts += 1
                reason = getattr(exc, "fault_kind", "crc")
                logger.warning(
                    "%s: transfer of %s failed (%s)", state.name, mode_name, reason
                )
                now = self.sim.now
                abandoned = attempts >= self.recovery.max_attempts
                if abandoned:
                    # Give up: leave the region dark but functional.
                    state.loaded_mode = None
                    state.mark_dark(now)
                    state.decoupler.recouple()
                    step = Step(kind, seq, state.name, mode_name, start, now,
                                size_bytes, None, reason)
                else:
                    backoff = self.recovery.backoff_before(
                        attempts + 1, self.faults.seed, state.name, mode_name
                    )
                    step = Step(RETRY, self.steps.ticket(), state.name, mode_name,
                                now, now, 0, backoff, reason)
                self.steps.append(step)
                if self.obs.events is not None:
                    self._emit(ev.RECONFIG_FAILED, state, mode=mode_name,
                               attempts=attempts, abandoned=abandoned, reason=reason)
                if abandoned:
                    logger.warning(
                        "%s: reconfiguration to %s abandoned after %d attempts",
                        state.name,
                        mode_name,
                        attempts,
                    )
                    yield from self._recover_abandoned_locked(state, mode_name, reason)
                    raise
                if backoff > 0.0:
                    yield self.sim.timeout(backoff)

    def _execute_locked(self, state: TileState, mode_name: str, duration: float):
        """One accelerator execution under the hang watchdog.

        Generator sub-routine; returns the execution's step. A hung
        attempt burns ``duration * exec_deadline_factor`` of simulated
        time (the watchdog only fires at its deadline) before the
        restart; exhausting the hang budget resets the tile and raises
        :class:`KernelHangError`.
        """
        faults = self.faults
        steps = self.steps
        hang_attempts = 0
        while True:
            seq = steps.ticket()
            start = self.sim.now
            if not faults.invoke_fault(state.name, mode_name):
                yield self.sim.timeout(duration)
                step = Step(EXEC, seq, state.name, mode_name, start, self.sim.now, 0,
                            duration)
                steps.append(step)
                return step
            # No completion interrupt: wait out the watchdog deadline.
            watchdog_s = duration * self.recovery.exec_deadline_factor
            yield self.sim.timeout(watchdog_s)
            hang_attempts += 1
            abandoned = hang_attempts >= self.recovery.hang_max_attempts
            steps.append(
                Step(HANG, seq, state.name, mode_name, start, self.sim.now, 0,
                     watchdog_s, "abandoned" if abandoned else "hang")
            )
            if self.obs.events is not None:
                self._emit(ev.KERNEL_HUNG, state, mode=mode_name,
                           attempts=hang_attempts)
            logger.warning(
                "%s: %s hung (attempt %d); watchdog fired after %.6fs",
                state.name,
                mode_name,
                hang_attempts,
                watchdog_s,
            )
            if abandoned:
                yield from self._abandon_hung_locked(state, mode_name)
                raise KernelHangError(
                    f"{state.name}/{mode_name}: kernel hung "
                    f"{hang_attempts} times; invocation abandoned"
                )
            backoff = self.recovery.backoff_before(
                hang_attempts + 1, faults.seed, state.name, f"{mode_name}#hang"
            )
            if backoff > 0.0:
                yield self.sim.timeout(backoff)

    def _abandon_hung_locked(self, state: TileState, mode_name: str):
        """Reset a tile whose kernel would not come back; lock held."""
        self.registry.swap(state.name, None)
        state.loaded_mode = None
        state.mark_dark(self.sim.now)
        if self.obs.events is not None:
            self._emit(ev.DRIVER_SWAPPED, state, driver=None)
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
        keeps serving its old mode instead of going dark. An abandoned
        blank does not fall back: dark is what it was for.
        """
        state.abandoned_ops += 1
        if state.abandoned_ops >= self.recovery.quarantine_after:
            yield from self._quarantine_locked(state, mode_name, reason)
            return
        if (
            self.recovery.fallback_to_last_good
            and mode_name != "blank"
            and state.last_good_mode is not None
            and state.last_good_mode != mode_name
            and self.store.has_image(state.name, state.last_good_mode)
        ):
            recovered = yield from self._fallback_locked(state, mode_name)
            if not recovered:
                state.abandoned_ops += 1
                if state.abandoned_ops >= self.recovery.quarantine_after:
                    yield from self._quarantine_locked(state, mode_name, reason)

    def _fallback_locked(self, state: TileState, failed_mode: str):
        """Reload the last-known-good bitstream; caller holds the lock.

        Single watched attempt (a failing fallback should not burn the
        full retry budget again); returns True when the tile came back.
        """
        good = state.last_good_mode
        size_bytes = self.store.lookup(state.name, good).size_bytes
        start = self.sim.now
        seq = self.steps.ticket()
        state.decoupler.decouple()
        try:
            yield from self._transfer_attempt(state, good, size_bytes)
        except ReconfigurationError as exc:
            reason = getattr(exc, "fault_kind", "crc")
            logger.warning("%s: transfer of %s failed (%s)", state.name, good, reason)
            state.decoupler.recouple()
            self.steps.append(
                Step(FALLBACK, seq, state.name, good, start, self.sim.now,
                     size_bytes, None, reason)
            )
            logger.warning(
                "%s: fallback to last-known-good %s failed", state.name, good
            )
            return False
        self.registry.swap(state.name, good)
        state.decoupler.recouple()
        state.loaded_mode = good
        state.mark_configured(self.sim.now)
        state.reconfigurations += 1
        now = self.sim.now
        self.steps.append(Step(FALLBACK, seq, state.name, good, start, now, size_bytes))
        if self.obs.events is not None:
            self._emit(ev.DRIVER_SWAPPED, state, driver=good)
            self._emit(
                ev.RECONFIG_FALLBACK,
                state,
                mode=good,
                failed_mode=failed_mode,
                duration_s=now - start,
            )
        logger.warning(
            "%s: fell back to last-known-good %s after %s failed",
            state.name,
            good,
            failed_mode,
        )
        return True

    def _quarantine_locked(self, state: TileState, mode_name: str, reason: str):
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
        steps = self.steps
        now = self.sim.now
        steps.append(
            Step(QUARANTINE, steps.ticket(), state.name, mode_name, now, now,
                 0, None, reason)
        )
        if self.obs.events is not None:
            self._emit(
                ev.TILE_QUARANTINED,
                state,
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

    # ------------------------------------------------------------------
    # telemetry: folds of the step log
    # ------------------------------------------------------------------
    @property
    def invocations(self) -> List[InvocationRecord]:
        """Every completed invocation, in completion order."""
        return list(self.steps.folded().invocations.values())

    @property
    def failed_attempts_by_tile(self) -> Dict[str, int]:
        """Failed transfer attempts, attributed to the tile that saw them."""
        return dict(self.steps.folded().faults.get("runtime.failed_attempts", {}))

    @property
    def failed_attempts(self) -> int:
        """Failed transfer attempts seen (telemetry for fault handling)."""
        return sum(self.failed_attempts_by_tile.values())

    @property
    def fallbacks_by_tile(self) -> Dict[str, int]:
        """Completed fallbacks to a last-known-good bitstream, per tile."""
        return dict(self.steps.folded().faults.get("runtime.fallbacks", {}))

    @property
    def fallbacks(self) -> int:
        """Completed fallbacks to a last-known-good bitstream."""
        return sum(self.fallbacks_by_tile.values())

    @property
    def kernel_hangs(self) -> int:
        """Hung kernel attempts the watchdog caught."""
        hangs = self.steps.folded().faults.get("runtime.kernel_hangs", {})
        return sum(hangs.values())

    def total_reconfigurations(self) -> int:
        """Completed reconfigurations across all tiles."""
        return sum(t.reconfigurations for t in self.tiles.values())

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
