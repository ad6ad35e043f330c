"""Closed-form NoC latency model.

A partial-bitstream fetch crosses the mesh from the memory tile to the
auxiliary tile's DFXC. Fetches are serialized on the single ICAP, so
the mesh is idle when one streams and the closed-form wormhole latency

    cycles(src, dst, bytes) = (hops + 1) * pipeline + flits - 1

is exact: the head flit pays the router pipeline at every hop (plus
the injection stage) and the body flits stream behind it at one flit
per cycle. This is the standard architecture-simulation pattern of an
analytic latency model checked against a cycle-accurate one (cf.
Nguyen & Hoe, arXiv:1710.08270); the flit-level replay it is checked
against lives with the tests (``tests/noc/reference.py``).
"""

from __future__ import annotations

import math
from typing import Dict, Tuple

from repro.errors import NocError
from repro.noc.mesh import Mesh

#: Flit payload width. ESP's NoC planes are 32/64-bit; the model uses
#: 8-byte flits (64-bit), matching the wide DMA planes.
FLIT_BYTES = 8

#: Flits consumed by the packet header.
HEADER_FLITS = 1


def flit_count(num_bytes: int) -> int:
    """Flits on the wire for a ``num_bytes`` burst (header + payload)."""
    return HEADER_FLITS + math.ceil(num_bytes / FLIT_BYTES)


class AnalyticNocModel:
    """Zero-load wormhole latency on one mesh.

    Hop distances are memoized per (src, dst) pair — the runtime asks
    for the same mem->aux window thousands of times per deployment.
    """

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh
        self._hops: Dict[Tuple[Tuple[int, int], Tuple[int, int]], int] = {}

    def hops(self, src: Tuple[int, int], dst: Tuple[int, int]) -> int:
        """Manhattan hop count, validated once then memoized."""
        key = (src, dst)
        hops = self._hops.get(key)
        if hops is None:
            self.mesh.check_position(src)
            self.mesh.check_position(dst)
            hops = abs(src[0] - dst[0]) + abs(src[1] - dst[1])
            self._hops[key] = hops
        return hops

    def latency_cycles(
        self, src: Tuple[int, int], dst: Tuple[int, int], num_bytes: int
    ) -> int:
        """End-to-end latency of one ``num_bytes`` burst on an idle mesh."""
        if num_bytes < 0:
            raise NocError("negative transfer size")
        return (
            (self.hops(src, dst) + 1) * self.mesh.pipeline_cycles
            + flit_count(num_bytes)
            - 1
        )

    def transfer_time_s(
        self, src: Tuple[int, int], dst: Tuple[int, int], num_bytes: int
    ) -> float:
        """Modelled transfer time in seconds at the mesh clock."""
        return self.latency_cycles(src, dst, num_bytes) / self.mesh.clock_hz
