"""Resource algebra: the four FPGA primitive kinds the flow reasons about.

The paper's size-driven model is expressed in LUTs, but floorplanning
must also satisfy FF/BRAM/DSP demands (FLORA does), so the whole
library carries a four-component :class:`ResourceVector`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Tuple

from repro.errors import ResourceError


class ResourceKind(enum.Enum):
    """The FPGA primitive kinds tracked by the platform."""

    LUT = "lut"
    FF = "ff"
    BRAM = "bram"  # counted in RAMB36-equivalents
    DSP = "dsp"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Each kind's field, in declaration order (``kind.value`` goes through
#: the Enum descriptor on every read).
_FIELD_OF: Dict[ResourceKind, str] = {kind: kind.value for kind in ResourceKind}


@dataclass(frozen=True, order=False)
class ResourceVector:
    """An immutable (LUT, FF, BRAM, DSP) bundle with vector arithmetic.

    Comparison semantics follow containment, not lexicographic order:
    ``a.fits_in(b)`` means every component of ``a`` is <= the matching
    component of ``b``. Python's ``<=`` is therefore *not* defined, to
    avoid silently picking a total order that does not exist.
    """

    lut: int = 0
    ff: int = 0
    bram: int = 0
    dsp: int = 0

    def __post_init__(self) -> None:
        # One fast test for the common case; the loop only names the
        # offending field.
        lut, ff, bram, dsp = self.lut, self.ff, self.bram, self.dsp
        if (
            type(lut) is int
            and type(ff) is int
            and type(bram) is int
            and type(dsp) is int
            and lut >= 0
            and ff >= 0
            and bram >= 0
            and dsp >= 0
        ):
            return
        for kind in ResourceKind:
            value = getattr(self, kind.value)
            if not isinstance(value, int):
                raise TypeError(f"{kind.value} count must be int, got {type(value).__name__}")
            if value < 0:
                raise ResourceError(f"negative {kind.value} count: {value}")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls) -> "ResourceVector":
        """The additive identity."""
        return cls()

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, int]) -> "ResourceVector":
        """Build from a dict with any subset of lut/ff/bram/dsp keys."""
        known = {kind.value for kind in ResourceKind}
        unknown = set(mapping) - known
        if unknown:
            raise ResourceError(f"unknown resource kinds: {sorted(unknown)}")
        return cls(**{key: int(value) for key, value in mapping.items()})

    @classmethod
    def luts(cls, count: int) -> "ResourceVector":
        """A LUT-only vector; convenient for the paper's LUT-centric math."""
        return cls(lut=count)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: "ResourceVector") -> "ResourceVector":
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return ResourceVector(
            lut=self.lut + other.lut,
            ff=self.ff + other.ff,
            bram=self.bram + other.bram,
            dsp=self.dsp + other.dsp,
        )

    def __sub__(self, other: "ResourceVector") -> "ResourceVector":
        if not isinstance(other, ResourceVector):
            return NotImplemented
        return ResourceVector(
            lut=self.lut - other.lut,
            ff=self.ff - other.ff,
            bram=self.bram - other.bram,
            dsp=self.dsp - other.dsp,
        )

    def __mul__(self, factor: int) -> "ResourceVector":
        if not isinstance(factor, int):
            return NotImplemented
        return ResourceVector(
            lut=self.lut * factor,
            ff=self.ff * factor,
            bram=self.bram * factor,
            dsp=self.dsp * factor,
        )

    __rmul__ = __mul__

    def scaled(self, factor: float) -> "ResourceVector":
        """Scale by a float, rounding each component up (conservative)."""
        if factor < 0:
            raise ResourceError(f"negative scale factor: {factor}")
        import math

        return ResourceVector(
            lut=math.ceil(self.lut * factor),
            ff=math.ceil(self.ff * factor),
            bram=math.ceil(self.bram * factor),
            dsp=math.ceil(self.dsp * factor),
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def get(self, kind: ResourceKind) -> int:
        """Component accessor by kind."""
        return int(getattr(self, _FIELD_OF[kind]))

    def fits_in(self, capacity: "ResourceVector") -> bool:
        """True if every component fits inside ``capacity``."""
        return (
            self.lut <= capacity.lut
            and self.ff <= capacity.ff
            and self.bram <= capacity.bram
            and self.dsp <= capacity.dsp
        )

    def dominates(self, other: "ResourceVector") -> bool:
        """True if every component is >= the matching one of ``other``."""
        return other.fits_in(self)

    def is_zero(self) -> bool:
        """True if all components are zero."""
        return self.lut == 0 and self.ff == 0 and self.bram == 0 and self.dsp == 0

    def utilization(self, capacity: "ResourceVector") -> Dict[ResourceKind, float]:
        """Per-kind utilization ratio against ``capacity``.

        Kinds with zero capacity report 0.0 when unused and raise when a
        demand exists that can never be satisfied.
        """
        ratios: Dict[ResourceKind, float] = {}
        for kind in ResourceKind:
            demand, avail = self.get(kind), capacity.get(kind)
            if avail == 0:
                if demand > 0:
                    raise ResourceError(f"demand for {kind.value} but capacity is zero")
                ratios[kind] = 0.0
            else:
                ratios[kind] = demand / avail
        return ratios

    def max_utilization(self, capacity: "ResourceVector") -> float:
        """The binding (largest) utilization ratio against ``capacity``."""
        ratios = self.utilization(capacity)
        return max(ratios.values()) if ratios else 0.0

    def shortfall(self, capacity: "ResourceVector") -> "ResourceVector":
        """Component-wise unmet demand (clamped at zero)."""
        return ResourceVector(
            lut=max(0, self.lut - capacity.lut),
            ff=max(0, self.ff - capacity.ff),
            bram=max(0, self.bram - capacity.bram),
            dsp=max(0, self.dsp - capacity.dsp),
        )

    def component_max(self, other: "ResourceVector") -> "ResourceVector":
        """Component-wise maximum (least upper bound)."""
        return ResourceVector(
            lut=max(self.lut, other.lut),
            ff=max(self.ff, other.ff),
            bram=max(self.bram, other.bram),
            dsp=max(self.dsp, other.dsp),
        )

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (for reports and serialization)."""
        return dict(zip(_FIELD_OF.values(), self._counts()))

    def items(self) -> Iterator[Tuple[ResourceKind, int]]:
        """Iterate (kind, count) pairs in canonical order."""
        return zip(_FIELD_OF, self._counts())

    def _counts(self) -> Iterator[int]:
        return map(int, (self.lut, self.ff, self.bram, self.dsp))

    def __str__(self) -> str:
        parts = [f"{kind.value}={self.get(kind)}" for kind in ResourceKind if self.get(kind)]
        return "ResourceVector(" + (", ".join(parts) if parts else "0") + ")"


def total_resources(vectors) -> ResourceVector:
    """Sum an iterable of :class:`ResourceVector` (empty sum is zero)."""
    acc = ResourceVector.zero()
    for vec in vectors:
        acc = acc + vec
    return acc
