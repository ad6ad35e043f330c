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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.errors import ReconfigurationError, StuckTransferError
from repro.noc.analytic import (
    AnalyticNocModel,
    NocModel,
    cycle_transfer_latency_cycles,
)
from repro.noc.mesh import Mesh
from repro.noc.packet import FLIT_BYTES, HEADER_FLITS
from repro.obs.logconfig import get_logger
from repro.obs.instrumentation import OFF, Instrumentation
from repro.runtime.faults import (
    NO_RUNTIME_FAULTS,
    RuntimeFaultKind,
    RuntimeFaultModel,
)
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


@dataclass(frozen=True)
class ReconfigurationRecord:
    """Telemetry for one completed reconfiguration."""

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
        noc_model: NocModel = NocModel.ANALYTIC,
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
        self.obs = instrumentation
        #: The fault model every transfer attempt draws from. Shared
        #: with the manager (which reads it back for invoke-side draws)
        #: so injected and stochastic faults use one set of counters.
        self.faults = faults
        #: Which NoC timing backend prices the fetch window: the
        #: closed-form analytic model (default) or a per-transfer
        #: flit-level replay (``NocModel.CYCLE``). At zero load the two
        #: agree exactly; CYCLE exists as the cross-check.
        self.noc_model = noc_model
        self._analytic_noc = AnalyticNocModel(mesh)
        # Deployments stream the same few bitstream sizes hundreds of
        # times; the transfer window depends only on the size.
        self._transfer_cache: Dict[int, Tuple[float, float]] = {}
        self._lock = Lock(sim)
        self.records: List[ReconfigurationRecord] = []
        #: In-flight abort events, keyed (tile, mode) — the watchdog's
        #: handle to free the ICAP from a stuck transfer.
        self._aborts: Dict[Tuple[str, str], object] = {}
        self.failed_transfers = 0

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
        # The NoC-bounded fetch window is the model's flit-loop cost:
        # the frame carries both the host cost of evaluating the model
        # and the modelled NoC seconds it produces. The full transfer
        # duration is charged by the Timeout dispatch that simulates it.
        with profiler.frame("noc.transfer"):
            seconds, noc_seconds = self._transfer_seconds(size_bytes, split=True)
            profiler.add_sim(noc_seconds)
        return seconds

    def _transfer_seconds(self, size_bytes: int, split: bool = False):
        cached = self._transfer_cache.get(size_bytes)
        if cached is None:
            fetch_seconds = size_bytes / self.fetch_bytes_per_cycle / self.clock_hz
            icap_seconds = size_bytes / ICAP_BYTES_PER_CYCLE / self.clock_hz
            noc_seconds = self._noc_seconds(size_bytes)
            setup_seconds = PRC_OVERHEAD_CYCLES / self.clock_hz
            total = setup_seconds + max(fetch_seconds, noc_seconds, icap_seconds)
            cached = self._transfer_cache[size_bytes] = (total, noc_seconds)
        if split:
            return cached
        return cached[0]

    def _noc_seconds(self, size_bytes: int) -> float:
        """Fetch-window NoC crossing time under the selected backend."""
        if self.noc_model is NocModel.CYCLE:
            cycles = cycle_transfer_latency_cycles(
                self.mesh, self.mem_position, self.aux_position, size_bytes
            )
            return cycles / self.mesh.clock_hz
        return self._analytic_noc.transfer_time_s(
            self.mem_position, self.aux_position, size_bytes
        )

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
        """Process generator: stream one partial bitstream.

        Yields from a :class:`~repro.sim.process.Process`; returns the
        :class:`ReconfigurationRecord` once the completion interrupt
        fires. Serializes on the single ICAP. Fails (after the full
        transfer window) when a failure has been injected.
        """

        def body():
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
                    self._record_transfer_failure(
                        tile_name, mode_name, size_bytes, start, reason="stuck"
                    )
                    raise StuckTransferError(
                        f"{tile_name}/{mode_name}: transfer stuck "
                        f"(aborted after {self.sim.now - start:.6f}s)"
                    )
                yield self.sim.timeout(duration)
                self._count_fetch_traffic(size_bytes)
                if fault is RuntimeFaultKind.BITSTREAM_CORRUPTION:
                    self._record_transfer_failure(
                        tile_name, mode_name, size_bytes, start, reason="crc"
                    )
                    raise ReconfigurationError(
                        f"{tile_name}/{mode_name}: configuration CRC error"
                    )
                record = ReconfigurationRecord(
                    tile_name=tile_name,
                    mode_name=mode_name,
                    size_bytes=size_bytes,
                    start_s=start,
                    end_s=self.sim.now,
                )
                self.records.append(record)
                self.obs.record(
                    f"{tile_name}/{mode_name}",
                    record.start_s,
                    record.end_s,
                    category="kernel.icap",
                    track="kernel/icap",
                    tile=tile_name,
                    mode=mode_name,
                    size_bytes=size_bytes,
                )
                self.obs.counter(
                    "prc.transfers", "completed bitstream transfers"
                ).inc(tile=tile_name)
                self.obs.counter(
                    "prc.icap_busy_s", "time the ICAP spent streaming"
                ).inc(record.duration_s)
                logger.debug(
                    "icap: streamed %s/%s (%d bytes) in %.6fs",
                    tile_name,
                    mode_name,
                    size_bytes,
                    record.duration_s,
                )
                return record
            finally:
                self._lock.release()

        return self.sim.process(body())

    def _record_transfer_failure(
        self, tile_name: str, mode_name: str, size_bytes: int, start: float,
        reason: str,
    ) -> None:
        """Account one failed transfer attempt (CRC error or abort)."""
        self.failed_transfers += 1
        self.obs.counter(
            "prc.transfer_failures", "transfers ending in a CRC error"
        ).inc(tile=tile_name)
        self.obs.record(
            f"{tile_name}/{mode_name}",
            start,
            self.sim.now,
            category="kernel.icap-error",
            track="kernel/icap",
            tile=tile_name,
            mode=mode_name,
            size_bytes=size_bytes,
            reason=reason,
        )

    def _count_fetch_traffic(self, size_bytes: int) -> None:
        """Account the DFXC fetch's NoC traffic (packets, flits, bytes).

        The fetch path crosses the NoC in maximum-size DMA bursts; the
        flit count mirrors :class:`~repro.noc.packet.Packet` accounting
        so the registry's NoC numbers are consistent across layers.
        """
        flits = HEADER_FLITS + math.ceil(size_bytes / FLIT_BYTES)
        self.obs.counter("noc.bytes", "payload bytes crossing the NoC").inc(
            size_bytes, source="prc"
        )
        self.obs.counter("noc.flits", "flits crossing the NoC").inc(
            flits, source="prc"
        )

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        """True while a reconfiguration is streaming."""
        return self._lock.locked

    def total_reconfiguration_time_s(self) -> float:
        """Sum of all completed reconfiguration durations."""
        return sum(r.duration_s for r in self.records)
