"""The reconfiguration controller: DFXC + ICAP device model.

The auxiliary tile hosts Xilinx's DFX controller and the ICAP primitive
(Sec. III). At runtime the DFXC fetches a partial bitstream from DDR
over its AXI master (translated to NoC packets by the tile's adapter)
and streams it into the ICAP; completion raises an interrupt.

Latency model: the DDR fetch, the NoC transfer and the ICAP write are
pipelined, so the reconfiguration time is bounded by the slowest of the
three channels plus a fixed controller setup/trigger overhead. The
sustained fetch rate of the DFXC through the NoC adapter is the
bottleneck in practice (see :data:`FETCH_BYTES_PER_CYCLE`), which is
why the flow generates compressed partial bitstreams.

Each transfer attempt is logged once, as a step of the runtime's log
(:mod:`repro.runtime.steps`), which the PRC owns and the manager and
executor share; its records and ICAP total are folds of that log.
"""

from __future__ import annotations

import logging
from typing import Dict, List, NamedTuple, Tuple

from repro.errors import ReconfigurationError, StuckTransferError
from repro.noc.analytic import AnalyticNocModel
from repro.noc.mesh import Mesh
from repro.obs.logconfig import get_logger
from repro.obs.instrumentation import OFF, Instrumentation
from repro.runtime.faults import (
    NO_RUNTIME_FAULTS,
    RuntimeFaultKind,
    RuntimeFaultModel,
)
from repro.runtime.steps import TRANSFER, Step, StepLog, build
from repro.sim.kernel import Simulator
from repro.sim.resources import Lock

logger = get_logger("runtime.prc")

#: How far past the nominal window a wedged DFXC holds the ICAP before
#: giving up on its own. The manager's watchdog deadline fires long
#: before this — the stall exists so an unwatched stuck transfer still
#: terminates instead of deadlocking the simulation.
STUCK_STALL_FACTOR = 1000.0

#: ICAP word width in bytes (ICAPE2/ICAPE3 are 32-bit).
ICAP_BYTES_PER_CYCLE = 4

#: Effective DFXC fetch rate in bytes per cycle. The controller issues
#: bounded-outstanding AXI bursts that cross the NoC adapter and the
#: DDR controller, so the sustained rate sits below both the ICAP's 4
#: B/cycle and the NoC link's 8 B/cycle — which is exactly why the
#: paper generates compressed partial bitstreams "to reduce the memory
#: access latency during reconfiguration". 1.2 B/cycle at 78 MHz is
#: ~94 MB/s; an uncompressed multi-MB partial would cost tens of ms
#: per swap, a compressed one ~3 ms.
FETCH_BYTES_PER_CYCLE = 1.2

#: DFXC setup + trigger + decouple-handshake overhead, in cycles.
PRC_OVERHEAD_CYCLES = 2500


class ReconfigurationRecord(NamedTuple):
    """Telemetry for one completed reconfiguration.

    A view of a completed transfer's step (see :attr:`PrcDevice.records`).
    """

    tile_name: str
    mode_name: str
    size_bytes: int
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        """Wall time of the reconfiguration."""
        return self.end_s - self.start_s


class PrcDevice:
    """The single DFXC/ICAP instance of the SoC.

    There is one ICAP on the device, so concurrent requests serialize —
    exactly why the paper's manager queues them in a workqueue.
    """

    def __init__(
        self,
        sim: Simulator,
        mesh: Mesh,
        mem_position: Tuple[int, int],
        aux_position: Tuple[int, int],
        clock_hz: float = 78e6,
        fetch_bytes_per_cycle: float = FETCH_BYTES_PER_CYCLE,
        instrumentation: Instrumentation = OFF,
        faults: RuntimeFaultModel = NO_RUNTIME_FAULTS,
    ) -> None:
        if clock_hz <= 0:
            raise ReconfigurationError("PRC clock must be positive")
        if fetch_bytes_per_cycle <= 0:
            raise ReconfigurationError("fetch rate must be positive")
        self.sim = sim
        self.mesh = mesh
        self.mem_position = mem_position
        self.aux_position = aux_position
        self.clock_hz = clock_hz
        self.fetch_bytes_per_cycle = fetch_bytes_per_cycle
        #: The probe: its profile times a ``noc.transfer`` frame per price.
        self.obs = instrumentation
        #: The fault model every transfer attempt draws from. Shared
        #: with the manager (which reads it back for invoke-side draws)
        #: so injected and stochastic faults use one set of counters.
        self.faults = faults
        #: Prices the fetch window's mem->aux crossing of the mesh.
        self._analytic_noc = AnalyticNocModel(mesh)
        # Deployments stream the same few bitstream sizes hundreds of
        # times; the transfer window depends only on the size.
        self._transfer_cache: Dict[int, Tuple[float, float]] = {}
        self._lock = Lock(sim)
        #: The runtime's one record, shared with the manager and executor.
        self.steps = StepLog()
        #: In-flight abort events, keyed (tile, mode) — the watchdog's
        #: handle to free the ICAP from a stuck transfer.
        self._aborts: Dict[Tuple[str, str], object] = {}

    # ------------------------------------------------------------------
    def transfer_seconds(self, size_bytes: int) -> float:
        """Streaming time for ``size_bytes`` of configuration data.

        The fetch (DFXC AXI master → NoC → DDR) and the ICAP write are
        pipelined; the slowest of the three channels bounds throughput.
        In practice the fetch path dominates by an order of magnitude.
        """
        if size_bytes <= 0:
            raise ReconfigurationError(f"bitstream size must be positive: {size_bytes}")
        profiler = self.obs.profiler
        if profiler is None:
            return self._transfer_seconds(size_bytes)
        # The NoC-bounded fetch window is the model's NoC cost:
        # the frame carries both the host cost of evaluating the model
        # and the modelled NoC seconds it produces. The full transfer
        # duration is charged by the Timeout dispatch that simulates it.
        profiler.enter("noc.transfer")
        try:
            seconds, noc_seconds = self._transfer_seconds(size_bytes, split=True)
            profiler.charge(noc_seconds)
        finally:
            profiler.exit()
        return seconds

    def _transfer_seconds(self, size_bytes: int, split: bool = False):
        cached = self._transfer_cache.get(size_bytes)
        if cached is None:
            fetch_seconds = size_bytes / self.fetch_bytes_per_cycle / self.clock_hz
            icap_seconds = size_bytes / ICAP_BYTES_PER_CYCLE / self.clock_hz
            noc_seconds = self._analytic_noc.transfer_time_s(
                self.mem_position, self.aux_position, size_bytes
            )
            setup_seconds = PRC_OVERHEAD_CYCLES / self.clock_hz
            total = setup_seconds + max(fetch_seconds, noc_seconds, icap_seconds)
            cached = self._transfer_cache[size_bytes] = (total, noc_seconds)
        if split:
            return cached
        return cached[0]

    def abort_transfer(self, tile_name: str, mode_name: str) -> bool:
        """Abort an in-flight transfer for (tile, mode) — DFXC reset.

        Called by the manager's watchdog when a transfer overruns its
        deadline; frees the ICAP immediately instead of waiting out the
        full stall. Returns True when a transfer was actually aborted.
        """
        abort = self._aborts.get((tile_name, mode_name))
        if abort is None or abort.triggered:
            return False
        abort.succeed()
        return True

    def reconfigure(self, tile_name: str, mode_name: str, size_bytes: int):
        """Generator sub-routine: stream one partial bitstream.

        The single entry point of every transfer. The calling thread
        runs it with ``yield from`` and gets the transfer's
        :class:`~repro.runtime.steps.Step` once the completion
        interrupt fires; a caller that needs an event to wait on (the
        manager's watchdog race) spawns it with ``sim.process(...)``.
        Serializes on the single ICAP. Fails (after the full transfer
        window) when a failure has been injected.
        """
        yield self._lock.acquire()
        try:
            start = self.sim.now
            duration = self.transfer_seconds(size_bytes)
            fault = self.faults.transfer_fault(tile_name, mode_name)
            if fault is RuntimeFaultKind.STUCK_TRANSFER:
                # The DFXC wedges: the ICAP is held until the
                # watchdog aborts the transfer (or, unwatched, the
                # stall finally times out on its own).
                abort = self.sim.event()
                self._aborts[(tile_name, mode_name)] = abort
                stall = self.sim.timeout(duration * STUCK_STALL_FACTOR)
                try:
                    yield self.sim.any_of([stall, abort])
                finally:
                    # An aborted stall must not drag the clock out
                    # to its original 1000x expiry.
                    stall.cancel()
                    self._aborts.pop((tile_name, mode_name), None)
                self._logged(tile_name, mode_name, size_bytes, start, "stuck")
                raise StuckTransferError(
                    f"{tile_name}/{mode_name}: transfer stuck "
                    f"(aborted after {self.sim.now - start:.6f}s)"
                )
            yield self.sim.timeout(duration)
            if fault is RuntimeFaultKind.BITSTREAM_CORRUPTION:
                self._logged(tile_name, mode_name, size_bytes, start, "crc")
                raise ReconfigurationError(
                    f"{tile_name}/{mode_name}: configuration CRC error"
                )
            step = self._logged(tile_name, mode_name, size_bytes, start)
            if logger.isEnabledFor(logging.DEBUG):
                logger.debug(
                    "icap: streamed %s/%s (%d bytes) in %.6fs",
                    tile_name,
                    mode_name,
                    size_bytes,
                    step.end - step.start,
                )
            return step
        finally:
            self._lock.release()

    def _logged(self, tile_name, mode_name, size_bytes, start, fault=None) -> Step:
        """Log one transfer attempt ending now (``fault``: why it failed)."""
        steps = self.steps
        step = build(Step, (TRANSFER, steps.ticket(), tile_name, mode_name, start,
                           self.sim.now, size_bytes, None, fault))
        steps.append(step)
        return step

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a reconfiguration is streaming."""
        return self._lock.locked

    @property
    def records(self) -> List[ReconfigurationRecord]:
        """Every completed transfer, in completion order."""
        return [
            build(ReconfigurationRecord, (s.tile, s.mode, s.size, s.start, s.end))
            for s in self.steps.folded().transfers
        ]

    @property
    def failed_transfers(self) -> int:
        """Transfer attempts that ended in a CRC error or an abort."""
        failures = self.steps.folded().faults.get("prc.transfer_failures", {})
        return sum(failures.values())

    def total_reconfiguration_time_s(self) -> float:
        """Sum of all completed reconfiguration durations."""
        return sum([s.end - s.start for s in self.steps.folded().transfers])
