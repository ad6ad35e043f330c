"""2D-mesh construction and analytic latency/bandwidth model."""

from __future__ import annotations

from typing import List, Tuple

from repro.errors import NocError
from repro.noc.packet import FLIT_BYTES, Packet
from repro.noc.router import Router, xy_route

#: Number of physical planes in the ESP NoC (coherence x3, DMA x2, IRQ).
DEFAULT_PLANES = 6


class Mesh:
    """A rows x cols mesh of routers replicated over physical planes."""

    def __init__(
        self,
        rows: int,
        cols: int,
        planes: int = DEFAULT_PLANES,
        clock_hz: float = 78e6,
        pipeline_cycles: int = 4,
    ) -> None:
        if rows <= 0 or cols <= 0:
            raise NocError("mesh dimensions must be positive")
        if planes <= 0:
            raise NocError("mesh needs at least one plane")
        self.rows = rows
        self.cols = cols
        self.planes = planes
        self.clock_hz = clock_hz
        self.pipeline_cycles = pipeline_cycles

    # ------------------------------------------------------------------
    def check_position(self, pos: Tuple[int, int]) -> None:
        """Raise unless ``pos`` is on the grid."""
        row, col = pos
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise NocError(f"position {pos} outside {self.rows}x{self.cols} mesh")

    def router(self, row: int, col: int, plane: int = 0) -> Router:
        """Router at a position on a plane.

        Built on demand: routers are stateless values, and no model
        walks the whole mesh, so a mesh keeps no router table.
        """
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

    def hops(self, src: Tuple[int, int], dst: Tuple[int, int]) -> int:
        """Number of links traversed (Manhattan distance)."""
        self.check_position(src)
        self.check_position(dst)
        return abs(src[0] - dst[0]) + abs(src[1] - dst[1])

    # ------------------------------------------------------------------
    # analytic models (no contention)
    # ------------------------------------------------------------------
    def zero_load_latency_cycles(self, packet: Packet) -> int:
        """Wormhole zero-load latency in cycles.

        Head flit pays the router pipeline at every hop (plus the
        injection/ejection stages); body flits stream behind at one
        flit per cycle.
        """
        hops = self.hops(packet.src, packet.dst)
        head = (hops + 1) * self.pipeline_cycles
        serialization = packet.size_flits - 1
        return head + serialization

    def zero_load_latency_s(self, packet: Packet) -> float:
        """Zero-load latency in seconds at the mesh clock."""
        return self.zero_load_latency_cycles(packet) / self.clock_hz

    def transfer_time_s(
        self, src: Tuple[int, int], dst: Tuple[int, int], num_bytes: int
    ) -> float:
        """Time to stream ``num_bytes`` from ``src`` to ``dst`` on one plane.

        Large transfers are dominated by the one-flit-per-cycle link
        bandwidth; the per-hop pipeline only shifts the head.
        """
        if num_bytes < 0:
            raise NocError("negative transfer size")
        packet = Packet(
            packet_id=-1, src=src, dst=dst, plane=0, payload_bytes=num_bytes
        )
        return self.zero_load_latency_cycles(packet) / self.clock_hz

    def link_bandwidth_bytes_per_s(self) -> float:
        """Peak per-plane link bandwidth."""
        return FLIT_BYTES * self.clock_hz
