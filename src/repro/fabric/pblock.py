"""Pblocks: rectangular physical placements for reconfigurable partitions.

A pblock is an inclusive rectangle of fabric columns x clock-region
rows. Following UG909, the model enforces the DFX legality rules the
paper's floorplanner must respect:

* a reconfigurable pblock may not contain clocking/configuration
  columns (the reconfigurable-tile redesign in Sec. III exists exactly
  because clock-modifying logic is illegal inside an RP);
* pblocks of distinct reconfigurable partitions may not overlap;
* the pblock must provide every resource its module demands.

Vertical clock-region alignment is guaranteed by construction because
rows are expressed in clock-region units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.errors import FabricError
from repro.fabric.device import Device
from repro.fabric.resources import ResourceVector


@dataclass(frozen=True)
class Pblock:
    """An inclusive column/region-row rectangle on a device."""

    name: str
    col_lo: int
    col_hi: int
    row_lo: int
    row_hi: int

    def __post_init__(self) -> None:
        if self.col_lo > self.col_hi or self.row_lo > self.row_hi:
            raise FabricError(f"pblock {self.name}: inverted bounds")
        if min(self.col_lo, self.row_lo) < 0:
            raise FabricError(f"pblock {self.name}: negative bounds")

    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        """Number of fabric columns spanned."""
        return self.col_hi - self.col_lo + 1

    @property
    def height(self) -> int:
        """Number of clock-region rows spanned."""
        return self.row_hi - self.row_lo + 1

    @property
    def area(self) -> int:
        """Column-segments covered (width x height)."""
        return self.width * self.height

    def overlaps(self, other: "Pblock") -> bool:
        """True if the two rectangles share any column segment."""
        return not (
            self.col_hi < other.col_lo
            or other.col_hi < self.col_lo
            or self.row_hi < other.row_lo
            or other.row_hi < self.row_lo
        )

    def resources(self, device: Device) -> ResourceVector:
        """Resources enclosed on ``device``."""
        return device.rect_resources(self.col_lo, self.col_hi, self.row_lo, self.row_hi)

    def xdc(self, device: Device) -> str:
        """Render the Xilinx-style constraint line this pblock stands for."""
        return (
            f"create_pblock {self.name}; "
            f"resize_pblock {self.name} -add "
            f"{{CLOCKREGION_X{device.region_col_of_column(self.col_lo)}"
            f"Y{self.row_lo}:COLS{self.col_lo}-{self.col_hi}"
            f"ROWS{self.row_lo}-{self.row_hi}}}"
        )

    def __str__(self) -> str:
        return (
            f"Pblock({self.name}: cols[{self.col_lo},{self.col_hi}] "
            f"rows[{self.row_lo},{self.row_hi}])"
        )


@dataclass
class PblockLegalityReport:
    """Outcome of checking one pblock against the DFX rules."""

    pblock: Pblock
    demand: ResourceVector
    provided: ResourceVector
    violations: List[str] = field(default_factory=list)

    @property
    def legal(self) -> bool:
        """True when no rule is violated."""
        return not self.violations


def check_pblock(
    device: Device,
    pblock: Pblock,
    demand: ResourceVector,
    others: Optional[List[Pblock]] = None,
) -> PblockLegalityReport:
    """Check ``pblock`` against geometry, DFX and resource rules.

    ``others`` are the already-placed reconfigurable pblocks it must not
    overlap.
    """
    violations: List[str] = []
    if pblock.col_hi >= device.num_columns:
        violations.append(
            f"column range exceeds device ({pblock.col_hi} >= {device.num_columns})"
        )
    if pblock.row_hi >= device.region_rows:
        violations.append(
            f"row range exceeds device ({pblock.row_hi} >= {device.region_rows})"
        )
    if violations:
        return PblockLegalityReport(
            pblock=pblock, demand=demand, provided=ResourceVector.zero(), violations=violations
        )

    for x in device.forbidden_columns():
        if pblock.col_lo <= x <= pblock.col_hi:
            violations.append(
                f"contains forbidden {device.columns[x].kind.value} column at x={x}"
            )

    provided = pblock.resources(device)
    if not demand.fits_in(provided):
        violations.append(
            f"insufficient resources: demand {demand}, provided {provided}, "
            f"shortfall {demand.shortfall(provided)}"
        )

    for other in others or []:
        if other.name != pblock.name and pblock.overlaps(other):
            violations.append(f"overlaps pblock {other.name}")

    return PblockLegalityReport(
        pblock=pblock, demand=demand, provided=provided, violations=violations
    )
