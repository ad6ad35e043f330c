"""The NoC latency model of the runtime evaluation.

ESP tiles communicate over a packet-switched 2D mesh. The runtime
evaluation needs one NoC figure: how long a partial bitstream takes to
cross the mesh from the memory tile to the auxiliary tile's DFXC. The
fetches are serialized on the single ICAP, so the mesh is idle when
one streams, and :class:`AnalyticNocModel`'s closed-form zero-load
latency prices it exactly. The flit-level replay that checks that
claim is a test reference (``tests/noc/reference.py``).
"""

from repro.noc.analytic import FLIT_BYTES, HEADER_FLITS, AnalyticNocModel, flit_count
from repro.noc.mesh import Mesh

__all__ = [
    "AnalyticNocModel",
    "FLIT_BYTES",
    "HEADER_FLITS",
    "Mesh",
    "flit_count",
]
