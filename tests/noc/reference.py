"""The flit-level NoC reference the closed-form model is checked against.

The product prices every NoC crossing with
:class:`~repro.noc.analytic.AnalyticNocModel`'s zero-load closed form.
This module keeps the executable spec that claim is tested against: a
multi-plane mesh of five-port XY routers (:class:`PlaneMesh`), a
wormhole simulator that walks each packet's links one at a time and
serializes packets sharing a link (:class:`NocSimulator`), the
single-burst replay :func:`cycle_transfer_latency_cycles`, a contention
fit over replayed records (:func:`fit_contention_factor`) and the
application-level per-link traffic analysis of the WAMI dataflow.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.errors import NocError
from repro.noc.analytic import FLIT_BYTES, AnalyticNocModel, flit_count
from repro.noc.mesh import Mesh
from repro.soc.config import SocConfig
from repro.soc.tiles import TileKind

#: Number of physical planes in the ESP NoC (coherence x3, DMA x2, IRQ).
DEFAULT_PLANES = 6

#: Relative tolerance a calibrated closed form is held to against the
#: replay of contended traffic (see tests/noc/test_analytic.py).
ANALYTIC_TOLERANCE = 0.02

#: A directed link on a plane: (from_pos, to_pos, plane).
LinkKey = Tuple[Tuple[int, int], Tuple[int, int], int]

#: A directed mesh link: (from_position, to_position).
Link = Tuple[Tuple[int, int], Tuple[int, int]]


# ----------------------------------------------------------------------
# packets and routers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Packet:
    """One NoC packet: a routed burst of flits on a physical plane."""

    packet_id: int
    src: Tuple[int, int]  # (row, col)
    dst: Tuple[int, int]
    plane: int
    payload_bytes: int

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise NocError(f"packet {self.packet_id}: negative payload")
        if self.plane < 0:
            raise NocError(f"packet {self.packet_id}: negative plane")

    @property
    def size_flits(self) -> int:
        """Total flits on the wire (header + payload)."""
        return flit_count(self.payload_bytes)

    @property
    def is_local(self) -> bool:
        """True when source and destination tiles coincide."""
        return self.src == self.dst


class Port(enum.Enum):
    """Router ports: four mesh directions plus the local tile port."""

    NORTH = "north"  # row - 1
    SOUTH = "south"  # row + 1
    EAST = "east"  # col + 1
    WEST = "west"  # col - 1
    LOCAL = "local"


def xy_route(src: Tuple[int, int], dst: Tuple[int, int]) -> List[Tuple[int, int]]:
    """XY route: move along columns (X) first, then rows (Y).

    Returns the list of grid positions visited, source and destination
    included. Dimension-order routing on a mesh is deadlock-free, which
    is why ESP uses it.
    """
    route = [src]
    row, col = src
    drow, dcol = dst
    step = 1 if dcol > col else -1
    while col != dcol:
        col += step
        route.append((row, col))
    step = 1 if drow > row else -1
    while row != drow:
        row += step
        route.append((row, col))
    return route


@dataclass(frozen=True)
class Router:
    """A router at one grid position of one physical plane."""

    row: int
    col: int
    plane: int
    #: Pipeline depth in cycles (route compute + VC alloc + switch + link).
    pipeline_cycles: int = 4

    def output_port(self, dst: Tuple[int, int]) -> Port:
        """Port a packet headed to ``dst`` leaves through (XY order)."""
        drow, dcol = dst
        if (drow, dcol) == (self.row, self.col):
            return Port.LOCAL
        if dcol > self.col:
            return Port.EAST
        if dcol < self.col:
            return Port.WEST
        if drow > self.row:
            return Port.SOUTH
        return Port.NORTH

    def next_position(self, dst: Tuple[int, int]) -> Tuple[int, int]:
        """Grid position of the next hop toward ``dst``."""
        port = self.output_port(dst)
        if port is Port.LOCAL:
            raise NocError("packet already at destination")
        deltas = {
            Port.NORTH: (-1, 0),
            Port.SOUTH: (1, 0),
            Port.EAST: (0, 1),
            Port.WEST: (0, -1),
        }
        drow, dcol = deltas[port]
        return (self.row + drow, self.col + dcol)


class PlaneMesh(Mesh):
    """The product mesh replicated over physical planes of XY routers."""

    def __init__(
        self,
        rows: int,
        cols: int,
        planes: int = DEFAULT_PLANES,
        clock_hz: float = 78e6,
        pipeline_cycles: int = 4,
    ) -> None:
        super().__init__(rows, cols, clock_hz=clock_hz, pipeline_cycles=pipeline_cycles)
        if planes <= 0:
            raise NocError("mesh needs at least one plane")
        self.planes = planes

    @classmethod
    def of(cls, mesh: Mesh) -> "PlaneMesh":
        """The planed mesh with ``mesh``'s dimensions, clock and pipeline."""
        return cls(
            mesh.rows,
            mesh.cols,
            clock_hz=mesh.clock_hz,
            pipeline_cycles=mesh.pipeline_cycles,
        )

    def router(self, row: int, col: int, plane: int = 0) -> Router:
        """Router at a position on a plane (routers are stateless values)."""
        if not (
            0 <= row < self.rows and 0 <= col < self.cols and 0 <= plane < self.planes
        ):
            raise NocError(f"no router at ({row}, {col}) plane {plane}")
        return Router(
            row=row, col=col, plane=plane, pipeline_cycles=self.pipeline_cycles
        )

    def path(self, src: Tuple[int, int], dst: Tuple[int, int]) -> List[Tuple[int, int]]:
        """XY path between two positions (both validated)."""
        self.check_position(src)
        self.check_position(dst)
        return xy_route(src, dst)


# ----------------------------------------------------------------------
# the flit-level simulator
# ----------------------------------------------------------------------
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
    """Replays a batch of packet injections through a wormhole mesh.

    Each directed link of each plane is a resource a packet holds for
    ``size_flits`` cycles while its head flit advances by the router
    pipeline per hop. Packets are processed in injection-time order
    (FIFO arbitration), which is deterministic and matches ESP's
    round-robin arbiters under the runtime evaluation's traffic.
    """

    def __init__(self, mesh: PlaneMesh, vectorize: bool = True) -> None:
        self.mesh = mesh
        #: When True, contention-free batches take the numpy fast path;
        #: False forces the sequential per-flit loop (the reference the
        #: equivalence tests compare against).
        self.vectorize = vectorize
        self._link_free: Dict[LinkKey, int] = {}
        self._pending: List[Tuple[int, int, Packet]] = []  # (inject_cycle, seq, pkt)
        self._seq = 0
        self.records: List[TransferRecord] = []

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
        new_records: Optional[List[TransferRecord]] = None
        if self.vectorize and not self._link_free:
            new_records = self._route_batch_vectorized()
        if new_records is None:
            new_records = [
                self._route(packet, inject_cycle)
                for inject_cycle, _seq, packet in self._pending
            ]
        self.records.extend(new_records)
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
        return TransferRecord(
            packet=packet,
            injected_at=inject_cycle,
            delivered_at=delivered,
            links_used=tuple(links),
            stall_cycles=stall_cycles,
        )

    def aggregate_throughput_bytes_per_cycle(self) -> float:
        """Delivered payload bytes per cycle over the simulated window."""
        if not self.records:
            return 0.0
        total_bytes = sum(r.packet.payload_bytes for r in self.records)
        start = min(r.injected_at for r in self.records)
        end = max(r.delivered_at for r in self.records)
        window = max(1, end - start)
        return total_bytes / window


def cycle_transfer_latency_cycles(
    mesh: Mesh,
    src: Tuple[int, int],
    dst: Tuple[int, int],
    num_bytes: int,
    plane: int = 0,
) -> int:
    """Cycle-accurate latency of one burst replayed on an idle mesh."""
    simulator = NocSimulator(PlaneMesh.of(mesh))
    simulator.inject(
        Packet(packet_id=0, src=src, dst=dst, plane=plane, payload_bytes=num_bytes)
    )
    (record,) = simulator.run()
    return record.latency_cycles


def fit_contention_factor(mesh: Mesh, records: Iterable[TransferRecord]) -> float:
    """Contention factor that scales the closed form onto replayed records.

    The factor is the latency-weighted excess of measured over zero-load
    latency (total measured / total zero-load - 1), so
    ``round(zero_load * (1 + factor))`` reproduces the replay's
    aggregate latency up to rounding. An empty or stall-free record set
    fits zero (the closed form is already exact there).
    """
    model = AnalyticNocModel(mesh)
    total_zero_load = 0
    total_actual = 0
    for record in records:
        packet = record.packet
        total_zero_load += model.latency_cycles(
            packet.src, packet.dst, packet.payload_bytes
        )
        total_actual += record.latency_cycles
    if not total_zero_load:
        return 0.0
    return max(0.0, total_actual / total_zero_load - 1.0)


# ----------------------------------------------------------------------
# application-level traffic analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TransferDemand:
    """One logical producer → consumer transfer per frame."""

    producer_task: str
    consumer_task: str
    payload_bytes: int

    def __post_init__(self) -> None:
        if self.payload_bytes < 0:
            raise NocError("transfer payload must be non-negative")


@dataclass
class TrafficReport:
    """Per-link bytes/frame plus aggregates."""

    link_bytes: Dict[Link, int] = field(default_factory=dict)
    total_bytes: int = 0
    ddr_bytes: int = 0  # bytes entering/leaving the MEM tile

    def hottest_links(self, count: int = 5) -> List[Tuple[Link, int]]:
        """The ``count`` busiest links (descending)."""
        ranked = sorted(self.link_bytes.items(), key=lambda kv: -kv[1])
        return ranked[:count]

    def max_link_bytes(self) -> int:
        """Bytes on the busiest link."""
        return max(self.link_bytes.values(), default=0)

    def utilization_at(self, frame_time_s: float, mesh: Mesh) -> float:
        """Peak link utilization for a given frame latency.

        A link carries one flit per cycle on one plane.
        """
        if frame_time_s <= 0:
            raise NocError("frame time must be positive")
        capacity = FLIT_BYTES * mesh.clock_hz * frame_time_s
        return self.max_link_bytes() / capacity


def analyze_traffic(
    config: SocConfig,
    demands: Sequence[TransferDemand],
    task_positions: Mapping[str, Optional[Tuple[int, int]]],
) -> TrafficReport:
    """Accumulate per-link traffic for one frame.

    ``task_positions`` maps each task to its tile's grid position (None
    for software tasks, which live at the CPU tile). All inter-tile
    transfers are staged through the MEM tile (DMA via DDR), matching
    ESP's accelerator communication model.
    """
    mem_tile = config.tiles_of_kind(TileKind.MEM)[0]
    mem_pos = config.position_of(mem_tile.name)
    cpu_tiles = config.tiles_of_kind(TileKind.CPU)
    cpu_pos = (
        config.position_of(cpu_tiles[0].name) if cpu_tiles else mem_pos
    )

    report = TrafficReport()

    def position_of(task: str) -> Tuple[int, int]:
        position = task_positions.get(task)
        return position if position is not None else cpu_pos

    def add_path(src: Tuple[int, int], dst: Tuple[int, int], nbytes: int) -> None:
        route = xy_route(src, dst)
        for a, b in zip(route, route[1:]):
            link = (a, b)
            report.link_bytes[link] = report.link_bytes.get(link, 0) + nbytes

    for demand in demands:
        src = position_of(demand.producer_task)
        dst = position_of(demand.consumer_task)
        # Producer writes its output to DDR; consumer reads it back.
        add_path(src, mem_pos, demand.payload_bytes)
        add_path(mem_pos, dst, demand.payload_bytes)
        report.total_bytes += 2 * demand.payload_bytes
        report.ddr_bytes += 2 * demand.payload_bytes

    return report


def wami_transfer_demands(frame_pixels: int = 512 * 512) -> List[TransferDemand]:
    """The WAMI dataflow's per-frame transfers (bytes scale with the
    frame; image-sized edges dominate, vector edges are negligible)."""
    from repro.wami.graph import WAMI_EDGES, WamiStage

    image_bytes = frame_pixels * 4  # fixed-point pixels
    small_edges = {
        # 6-vector / 6x6-matrix payloads.
        (WamiStage.SD_UPDATE, WamiStage.MATRIX_SOLVE),
        (WamiStage.HESSIAN, WamiStage.MATRIX_SOLVE),
        (WamiStage.MATRIX_SOLVE, WamiStage.LK_FLOW),
        (WamiStage.LK_FLOW, WamiStage.INTERP),
    }
    demands = []
    for src, dst in WAMI_EDGES:
        payload = 256 if (src, dst) in small_edges else image_bytes
        if src is WamiStage.STEEPEST_DESCENT:
            payload = 6 * image_bytes
        demands.append(
            TransferDemand(
                producer_task=src.kernel_name,
                consumer_task=dst.kernel_name,
                payload_bytes=payload,
            )
        )
    return demands


def wami_traffic_report(config: SocConfig, frame_pixels: int = 512 * 512) -> TrafficReport:
    """Traffic report for the WAMI app on a deployment SoC."""
    from repro.wami.app import WamiApplication

    placement = WamiApplication().tile_of_stage(config)
    task_positions = {
        stage.kernel_name: (
            config.position_of(tile) if tile is not None else None
        )
        for stage, tile in placement.items()
    }
    return analyze_traffic(
        config, wami_transfer_demands(frame_pixels), task_positions
    )
