"""Baremetal DPR support.

The paper ships "Linux and bare-metal drivers to handle the decoupling
of tiles and FPGA reconfiguration via the PRC and ICAP modules"
(Sec. V). Without an OS there is no workqueue, no threads and no
interrupt-driven completion handler: a single control loop programs the
DFXC registers, *polls* its status register, flips the decoupler, and
runs one accelerator at a time.

:class:`BaremetalDriver` reproduces that execution model on the same
device models the Linux-style manager uses, so the two stacks are
directly comparable (see ``tests/runtime/test_baremetal.py`` for the
equivalence and overhead checks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.errors import ReconfigurationError
from repro.runtime.memory import BitstreamStore
from repro.runtime.prc import PrcDevice
from repro.sim.kernel import Simulator
from repro.soc.socket import Decoupler

#: Polling interval of the status-register loop, in seconds. The
#: baremetal driver burns this much latency per completed operation on
#: average (half on expectation, a full period worst case — we model
#: the deterministic worst case for reproducibility).
POLL_PERIOD_S = 50e-6


@dataclass(frozen=True)
class BaremetalRunRecord:
    """Telemetry of one run() call."""

    tile_name: str
    mode_name: str
    reconfig_s: float
    poll_overhead_s: float
    start_exec_s: float
    end_exec_s: float

    @property
    def exec_time_s(self) -> float:
        """Accelerator busy time."""
        return self.end_exec_s - self.start_exec_s


class BaremetalDriver:
    """Single-threaded, polling-based DPR control.

    Unlike the Linux manager there is no locking: baremetal code owns
    the whole SoC, so concurrent access cannot happen by construction —
    attempting to start a run while another is outstanding raises, as
    the real driver's busy flag would.
    """

    def __init__(
        self,
        sim: Simulator,
        prc: PrcDevice,
        store: BitstreamStore,
        exec_times: Dict[str, float],
        poll_period_s: float = POLL_PERIOD_S,
    ) -> None:
        if poll_period_s <= 0:
            raise ReconfigurationError("poll period must be positive")
        self.sim = sim
        self.prc = prc
        self.store = store
        self.exec_times = dict(exec_times)
        self.poll_period_s = poll_period_s
        self._decouplers: Dict[str, Decoupler] = {}
        self._loaded: Dict[str, Optional[str]] = {}
        self._busy = False
        self.records: List[BaremetalRunRecord] = []

    # ------------------------------------------------------------------
    def attach_tile(self, tile_name: str) -> None:
        """Register a reconfigurable tile."""
        if tile_name in self._decouplers:
            raise ReconfigurationError(f"tile {tile_name!r} already attached")
        self._decouplers[tile_name] = Decoupler(tile_name=tile_name)
        self._loaded[tile_name] = None

    def loaded_mode(self, tile_name: str) -> Optional[str]:
        """Accelerator currently configured in ``tile_name``."""
        try:
            return self._loaded[tile_name]
        except KeyError:
            raise ReconfigurationError(f"tile {tile_name!r} not attached") from None

    # ------------------------------------------------------------------
    def run(self, tile_name: str, mode_name: str):
        """Process: reconfigure if needed (polling) and run once.

        Returns a process resolving to a :class:`BaremetalRunRecord`.
        """
        if tile_name not in self._decouplers:
            raise ReconfigurationError(f"tile {tile_name!r} not attached")
        if mode_name not in self.exec_times:
            raise ReconfigurationError(f"no execution profile for {mode_name!r}")

        def body():
            if self._busy:
                raise ReconfigurationError(
                    "baremetal driver is busy (single-threaded control loop)"
                )
            self._busy = True
            try:
                reconfig_time = 0.0
                poll_overhead = 0.0
                if self._loaded[tile_name] != mode_name:
                    loaded = self.store.lookup(tile_name, mode_name)
                    decoupler = self._decouplers[tile_name]
                    decoupler.decouple()
                    start = self.sim.now
                    yield from self.prc.reconfigure(
                        tile_name, mode_name, loaded.size_bytes
                    )
                    # Poll until the status register shows DONE: the
                    # loop observes completion up to one period late.
                    yield self.sim.timeout(self.poll_period_s)
                    poll_overhead += self.poll_period_s
                    reconfig_time = self.sim.now - start
                    decoupler.recouple()
                    self._loaded[tile_name] = mode_name
                start_exec = self.sim.now
                yield self.sim.timeout(self.exec_times[mode_name])
                # Completion is also detected by polling, not an IRQ.
                yield self.sim.timeout(self.poll_period_s)
                poll_overhead += self.poll_period_s
                record = BaremetalRunRecord(
                    tile_name=tile_name,
                    mode_name=mode_name,
                    reconfig_s=reconfig_time,
                    poll_overhead_s=poll_overhead,
                    start_exec_s=start_exec,
                    end_exec_s=start_exec + self.exec_times[mode_name],
                )
                self.records.append(record)
                return record
            finally:
                self._busy = False

        return self.sim.process(body())

    def run_sequence(self, schedule):
        """Process: run (tile, mode) pairs back to back.

        The baremetal execution model for a whole application: strictly
        sequential, no overlap between reconfiguration and execution.
        """

        def body():
            records = []
            for tile_name, mode_name in schedule:
                record = yield self.run(tile_name, mode_name)
                records.append(record)
            return records

        return self.sim.process(body())

    # ------------------------------------------------------------------
    def total_poll_overhead_s(self) -> float:
        """Accumulated polling latency (the price of no interrupts)."""
        return sum(r.poll_overhead_s for r in self.records)
