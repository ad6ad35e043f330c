"""Contention-aware NoC transfer simulator.

A wormhole-switched mesh serializes packets that share a link on the
same plane. The simulator models each directed link of each plane as a
resource a packet holds for ``size_flits`` cycles, advancing the head
flit by the router pipeline per hop. Packets are processed in
injection-time order (FIFO arbitration), which is deterministic and
matches ESP's round-robin arbiters under the traffic rates the runtime
evaluation produces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import NocError
from repro.noc.mesh import Mesh
from repro.noc.packet import Packet
from repro.obs import events as ev
from repro.obs.instrumentation import OFF, Instrumentation

#: Default congestion watermark: a packet stalling this many cycles on
#: busy links is reported on the event bus. Tuned above the router
#: pipeline depth so ordinary store-and-forward jitter stays quiet.
DEFAULT_CONGESTION_WATERMARK_CYCLES = 32

#: A directed link on a plane: (from_pos, to_pos, plane).
LinkKey = Tuple[Tuple[int, int], Tuple[int, int], int]


@dataclass(frozen=True)
class TransferRecord:
    """Outcome of simulating one packet."""

    packet: Packet
    injected_at: int  # cycle the packet entered the source queue
    delivered_at: int  # cycle the tail flit left the last link
    links_used: Tuple[LinkKey, ...]
    #: Cycles the head flit spent blocked on busy links (0 = free path).
    stall_cycles: int = 0

    @property
    def latency_cycles(self) -> int:
        """End-to-end latency including queueing."""
        return self.delivered_at - self.injected_at


class NocSimulator:
    """Replays a batch of packet injections through the mesh."""

    def __init__(
        self,
        mesh: Mesh,
        instrumentation: Instrumentation = OFF,
        congestion_watermark_cycles: int = DEFAULT_CONGESTION_WATERMARK_CYCLES,
        vectorize: bool = True,
    ) -> None:
        if congestion_watermark_cycles <= 0:
            raise NocError("congestion watermark must be positive")
        self.mesh = mesh
        #: When True, contention-free batches take the numpy fast path;
        #: False forces the sequential per-flit loop (the reference the
        #: equivalence tests compare against).
        self.vectorize = vectorize
        self.obs = instrumentation
        self.congestion_watermark_cycles = congestion_watermark_cycles
        self._link_free: Dict[LinkKey, int] = {}
        self._pending: List[Tuple[int, int, Packet]] = []  # (inject_cycle, seq, pkt)
        self._seq = 0
        self.records: List[TransferRecord] = []
        #: Worst stall any routed packet has seen (the high watermark).
        self.max_stall_cycles = 0

    def inject(self, packet: Packet, at_cycle: int = 0) -> None:
        """Queue ``packet`` for injection at ``at_cycle``."""
        if at_cycle < 0:
            raise NocError("injection cycle must be non-negative")
        if packet.plane >= self.mesh.planes:
            raise NocError(
                f"packet plane {packet.plane} outside mesh planes {self.mesh.planes}"
            )
        self.mesh.check_position(packet.src)
        self.mesh.check_position(packet.dst)
        self._pending.append((at_cycle, self._seq, packet))
        self._seq += 1

    def run(self) -> List[TransferRecord]:
        """Route every injected packet; returns records in delivery order."""
        self._pending.sort()
        packets = self.obs.counter("noc.packets", "packets delivered")
        flits = self.obs.counter("noc.flits", "flits crossing the NoC")
        payload = self.obs.counter("noc.bytes", "payload bytes crossing the NoC")
        latency = self.obs.histogram(
            "noc.latency_cycles", "end-to-end packet latency"
        )
        profiler = self.obs.profiler
        cycle_s = 1.0 / self.mesh.clock_hz
        with self.obs.frame("noc.run"):
            new_records: Optional[List[TransferRecord]] = None
            if profiler is None and self.vectorize and not self._link_free:
                new_records = self._route_batch_vectorized()
            if new_records is None:
                new_records = []
                for inject_cycle, _seq, packet in self._pending:
                    if profiler is None:
                        record = self._route(packet, inject_cycle)
                    else:
                        # Per-packet flit-advancement frame; the packet's
                        # end-to-end latency is its simulated attribution.
                        with profiler.frame("noc.route"):
                            record = self._route(packet, inject_cycle)
                            profiler.add_sim(record.latency_cycles * cycle_s)
                    new_records.append(record)
            for record in new_records:
                packet = record.packet
                self.records.append(record)
                plane = str(packet.plane)
                packets.inc(plane=plane)
                flits.inc(packet.size_flits, plane=plane)
                payload.inc(packet.payload_bytes, plane=plane)
                latency.observe(record.latency_cycles, plane=plane)
        self._pending.clear()
        self.records.sort(key=lambda r: r.delivered_at)
        return list(self.records)

    def _route_batch_vectorized(self) -> Optional[List[TransferRecord]]:
        """Route the whole pending batch at once when no link is shared.

        On a fresh mesh with link-disjoint traffic every packet sees
        free links, so the per-flit bookkeeping collapses to the
        closed-form zero-load latency — computed here over numpy arrays
        for the entire batch. Returns None (caller falls back to the
        exact sequential loop) whenever any two packets share a
        directed link on the same plane, since those may contend.
        """
        if not self._pending:
            return []
        links_per_packet: List[Tuple[LinkKey, ...]] = []
        seen_links = set()
        total_links = 0
        for _inject, _seq, packet in self._pending:
            if packet.is_local:
                links_per_packet.append(())
                continue
            path = self.mesh.path(packet.src, packet.dst)
            links = tuple(
                (path[i], path[i + 1], packet.plane) for i in range(len(path) - 1)
            )
            links_per_packet.append(links)
            seen_links.update(links)
            total_links += len(links)
        if len(seen_links) != total_links:
            return None
        inject = np.fromiter(
            (entry[0] for entry in self._pending), dtype=np.int64
        )
        hops = np.fromiter((len(links) for links in links_per_packet), dtype=np.int64)
        size_flits = np.fromiter(
            (entry[2].size_flits for entry in self._pending), dtype=np.int64
        )
        pipeline = self.mesh.pipeline_cycles
        # Local packets (hops == 0) reduce to inject + pipeline + flits - 1,
        # the same closed form, so one expression covers the batch.
        delivered = inject + pipeline * (hops + 1) + size_flits - 1
        records = []
        for index, (inject_cycle, _seq, packet) in enumerate(self._pending):
            links = links_per_packet[index]
            head_time = inject_cycle + pipeline
            for link in links:
                self._link_free[link] = head_time + packet.size_flits
                head_time += pipeline
            records.append(
                TransferRecord(
                    packet=packet,
                    injected_at=inject_cycle,
                    delivered_at=int(delivered[index]),
                    links_used=links,
                )
            )
        return records

    # ------------------------------------------------------------------
    def _route(self, packet: Packet, inject_cycle: int) -> TransferRecord:
        pipeline = self.mesh.pipeline_cycles
        if packet.is_local:
            # Local delivery still pays one router traversal.
            delivered = inject_cycle + pipeline + packet.size_flits - 1
            return TransferRecord(
                packet=packet,
                injected_at=inject_cycle,
                delivered_at=delivered,
                links_used=(),
            )
        path = self.mesh.path(packet.src, packet.dst)
        links: List[LinkKey] = [
            (path[i], path[i + 1], packet.plane) for i in range(len(path) - 1)
        ]
        head_time = inject_cycle + pipeline  # injection stage
        stall_cycles = 0
        for link in links:
            free_at = self._link_free.get(link, 0)
            start = max(head_time, free_at)
            stall_cycles += start - head_time
            # The link carries the whole packet, one flit per cycle.
            self._link_free[link] = start + packet.size_flits
            head_time = start + pipeline
        delivered = head_time + packet.size_flits - 1
        if stall_cycles > self.max_stall_cycles:
            self.max_stall_cycles = stall_cycles
            self.obs.gauge(
                "noc.max_stall_cycles", "worst head-flit stall (high watermark)"
            ).set(stall_cycles)
        if stall_cycles >= self.congestion_watermark_cycles:
            self.obs.emit(
                ev.NOC_CONGESTION,
                time=float(inject_cycle),
                source=f"{packet.src}->{packet.dst}",
                plane=packet.plane,
                stall_cycles=stall_cycles,
                watermark_cycles=self.congestion_watermark_cycles,
            )
        return TransferRecord(
            packet=packet,
            injected_at=inject_cycle,
            delivered_at=delivered,
            links_used=tuple(links),
            stall_cycles=stall_cycles,
        )

    # ------------------------------------------------------------------
    def aggregate_throughput_bytes_per_cycle(self) -> float:
        """Delivered payload bytes per cycle over the simulated window."""
        if not self.records:
            return 0.0
        total_bytes = sum(r.packet.payload_bytes for r in self.records)
        start = min(r.injected_at for r in self.records)
        end = max(r.delivered_at for r in self.records)
        window = max(1, end - start)
        return total_bytes / window
