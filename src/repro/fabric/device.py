"""Column-organized FPGA device model.

Xilinx fabrics are organized as vertical columns of a single primitive
kind (CLB, BRAM, DSP, I/O, clocking), stacked into *clock regions*.
DPR floorplanning operates on this geometry: a pblock is a rectangle of
whole column segments, and the DFX rules (UG909) constrain which
columns it may contain and how it aligns to clock regions.

The model here keeps that structure while abstracting the per-family
details behind a handful of parameters (CLBs per clock region, LUTs per
CLB, ...). ``repro.fabric.parts`` instantiates the three boards the
paper targets.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.errors import FabricError
from repro.fabric.resources import ResourceKind, ResourceVector


class ColumnKind(enum.Enum):
    """Primitive kind hosted by a fabric column."""

    CLB = "clb"
    BRAM = "bram"
    DSP = "dsp"
    IO = "io"
    CLK = "clk"  # clocking/configuration column: illegal inside an RP

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: Column kinds that may not be enclosed by a reconfigurable pblock.
FORBIDDEN_IN_RP = frozenset({ColumnKind.CLK})


@dataclass(frozen=True)
class ClockRegion:
    """One clock region: a (row, col) cell of the region grid."""

    row: int
    col: int

    @property
    def name(self) -> str:
        """Xilinx-style region name, e.g. ``X1Y3``."""
        return f"X{self.col}Y{self.row}"


@dataclass(frozen=True)
class Column:
    """A full-height fabric column."""

    x: int
    kind: ColumnKind


@dataclass(frozen=True)
class LevelTable:
    """One resource kind's column prefix, inverted into a lookup table.

    Every prefix value ``P[x]`` is a multiple of ``step``, the gcd of the
    kind's per-column values, so ``P[x] >= v`` iff ``P[x] / step >=
    ceil(v / step)``. The first prefix index reaching ``v`` — what
    ``np.searchsorted(P, v, side="left")`` returns — is therefore
    ``first_column[ceil(v / step)]``: one gather instead of a binary
    search. Levels past the top of the table mean "off the fabric"
    (``num_columns + 1``). A kind no column provides has ``step`` 1 and
    a two-entry table.
    """

    step: int
    #: ``level[x] = P[x] / step`` for every anchor column ``x``.
    level: np.ndarray
    #: ``first_column[L]``: the first prefix index whose level is ``L``
    #: or more; the last entry is ``num_columns + 1``.
    first_column: np.ndarray

    @classmethod
    def of(cls, prefix: np.ndarray) -> "LevelTable":
        """The table of one non-decreasing prefix column (``P[0] == 0``)."""
        step = int(np.gcd.reduce(np.diff(prefix))) or 1
        levels = prefix // step
        first_column = np.searchsorted(levels, np.arange(levels[-1] + 2), side="left")
        for array in (levels, first_column):
            array.flags.writeable = False
        return cls(step=step, level=levels[:-1], first_column=first_column)

    def first_reaching(
        self, start_level: Union[int, np.ndarray], threshold: np.ndarray
    ) -> np.ndarray:
        """First prefix index ``x`` with ``P[x] >= start_level * step +
        threshold``, broadcast over both arguments (``threshold >= 0``)."""
        levels = start_level + -(-threshold // self.step)
        return self.first_column.take(levels, mode="clip")


class Device:
    """A rectangular fabric of columns split into clock regions.

    Parameters
    ----------
    name:
        Part name, e.g. ``"xc7vx485t"``.
    columns:
        Column kinds left to right. The same pattern spans every clock
        region row (true of real parts at this abstraction level).
    region_rows:
        Number of clock region rows.
    region_cols:
        Number of clock region columns. ``len(columns)`` must divide
        evenly into this many groups.
    segment_resources:
        Resources provided by *one column within one clock region*,
        keyed by column kind. Kinds absent from the mapping provide
        nothing (IO/CLK columns).
    """

    def __init__(
        self,
        name: str,
        columns: Sequence[ColumnKind],
        region_rows: int,
        region_cols: int,
        segment_resources: Dict[ColumnKind, ResourceVector],
    ) -> None:
        if region_rows <= 0 or region_cols <= 0:
            raise FabricError("device needs at least one clock region")
        if not columns:
            raise FabricError("device needs at least one column")
        if len(columns) % region_cols != 0:
            raise FabricError(
                f"{len(columns)} columns do not divide into {region_cols} region columns"
            )
        self.name = name
        self.columns: Tuple[Column, ...] = tuple(
            Column(x=i, kind=kind) for i, kind in enumerate(columns)
        )
        self.region_rows = region_rows
        self.region_cols = region_cols
        self._segment_resources = dict(segment_resources)
        # Per-resource column prefix sums: resource_prefix()[x][k] is
        # the per-region sum of ResourceKind k over columns [0, x).
        # Rectangle queries, capacity and the floorplanner's window
        # search all reduce to O(1) row differences on this matrix.
        kinds = list(ResourceKind)
        rows = {
            kind: np.array(
                [self._segment_resources.get(kind, ResourceVector.zero()).get(k) for k in kinds],
                dtype=np.int64,
            )
            for kind in ColumnKind
        }
        per_column = np.array([rows[c.kind] for c in self.columns], dtype=np.int64)
        self._prefix = np.vstack(
            [np.zeros((1, len(kinds)), dtype=np.int64), np.cumsum(per_column, axis=0)]
        )
        # The same rows as Python ints: rectangle queries build a
        # ResourceVector from them without numpy scalar conversions.
        self._prefix_rows: Tuple[Tuple[int, ...], ...] = tuple(
            map(tuple, self._prefix.tolist())
        )
        self._capacity = self._rect_vector(0, self.num_columns - 1, region_rows)
        # The floorplanner's window search gathers from these instead of
        # binary-searching the prefix columns; like the prefix matrix,
        # they are built once per device and shared by every planner.
        self._level_tables = tuple(
            LevelTable.of(self._prefix[:, k]) for k in range(len(kinds))
        )
        self._forbidden = [c.x for c in self.columns if c.kind in FORBIDDEN_IN_RP]
        self._forbidden_mask = np.zeros(self.num_columns, dtype=bool)
        self._forbidden_mask[self._forbidden] = True
        self._forbidden_mask.flags.writeable = False

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    @property
    def num_columns(self) -> int:
        """Total number of fabric columns."""
        return len(self.columns)

    @property
    def columns_per_region_col(self) -> int:
        """Number of fabric columns in one clock-region column."""
        return self.num_columns // self.region_cols

    def clock_regions(self) -> List[ClockRegion]:
        """All clock regions in row-major order."""
        return [
            ClockRegion(row=r, col=c)
            for r in range(self.region_rows)
            for c in range(self.region_cols)
        ]

    def region_col_of_column(self, x: int) -> int:
        """Clock-region column index containing fabric column ``x``."""
        self._check_column(x)
        return x // self.columns_per_region_col

    def column_kind(self, x: int) -> ColumnKind:
        """Kind of fabric column ``x``."""
        self._check_column(x)
        return self.columns[x].kind

    def _check_column(self, x: int) -> None:
        if not 0 <= x < self.num_columns:
            raise FabricError(f"column {x} out of range [0, {self.num_columns})")

    def _check_region_row(self, row: int) -> None:
        if not 0 <= row < self.region_rows:
            raise FabricError(f"region row {row} out of range [0, {self.region_rows})")

    # ------------------------------------------------------------------
    # resources
    # ------------------------------------------------------------------
    def segment_resources(self, kind: ColumnKind) -> ResourceVector:
        """Resources of one column of ``kind`` within one clock region."""
        return self._segment_resources.get(kind, ResourceVector.zero())

    def column_resources(self, x: int) -> ResourceVector:
        """Resources of full-height column ``x``."""
        return self.segment_resources(self.column_kind(x)) * self.region_rows

    def resource_prefix(self) -> np.ndarray:
        """The (num_columns + 1, len(ResourceKind)) prefix-sum matrix.

        Row ``x`` holds the per-region column sums over ``[0, x)`` in
        :class:`ResourceKind` declaration order. Treat as read-only.
        """
        return self._prefix

    def level_tables(self) -> Tuple[LevelTable, ...]:
        """One :class:`LevelTable` per resource kind, in
        :class:`ResourceKind` declaration order."""
        return self._level_tables

    def rect_resources(self, col_lo: int, col_hi: int, row_lo: int, row_hi: int) -> ResourceVector:
        """Resources inside the inclusive column/region-row rectangle."""
        self._check_column(col_lo)
        self._check_column(col_hi)
        self._check_region_row(row_lo)
        self._check_region_row(row_hi)
        if col_lo > col_hi or row_lo > row_hi:
            raise FabricError("rectangle bounds are inverted")
        return self._rect_vector(col_lo, col_hi, row_hi - row_lo + 1)

    def _rect_vector(self, col_lo: int, col_hi: int, height: int) -> ResourceVector:
        lut_hi, ff_hi, bram_hi, dsp_hi = self._prefix_rows[col_hi + 1]
        lut_lo, ff_lo, bram_lo, dsp_lo = self._prefix_rows[col_lo]
        return ResourceVector(
            lut=(lut_hi - lut_lo) * height,
            ff=(ff_hi - ff_lo) * height,
            bram=(bram_hi - bram_lo) * height,
            dsp=(dsp_hi - dsp_lo) * height,
        )

    def capacity(self) -> ResourceVector:
        """Total device resources."""
        return self._capacity

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def forbidden_columns(self) -> List[int]:
        """Fabric columns that no reconfigurable pblock may contain, in
        ascending order."""
        return list(self._forbidden)

    def forbidden_mask(self) -> np.ndarray:
        """Read-only boolean mask of :meth:`forbidden_columns`."""
        return self._forbidden_mask

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Device({self.name!r}, {self.num_columns} cols, "
            f"{self.region_rows}x{self.region_cols} regions, {self._capacity})"
        )


def repeat_pattern(pattern: Sequence[ColumnKind], times: int) -> List[ColumnKind]:
    """Tile a column-kind pattern ``times`` times (layout helper)."""
    if times <= 0:
        raise FabricError(f"pattern repetition must be positive, got {times}")
    return list(pattern) * times
