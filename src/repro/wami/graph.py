"""The WAMI-App dataflow graph (Fig. 3 of the paper).

Twelve accelerators: Debayer, Grayscale, nine Lucas-Kanade
sub-accelerators (the paper decomposed LK "to further parallelize its
execution"), and Change-Detection. Kernel indexes 1..12 are the ones
Tables IV and VI reference.
"""

from __future__ import annotations

import enum
import heapq
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError


class WamiStage(enum.Enum):
    """The twelve WAMI accelerators, numbered as in Fig. 3."""

    DEBAYER = 1
    GRAYSCALE = 2
    GRADIENT = 3
    WARP = 4
    SUBTRACT = 5
    STEEPEST_DESCENT = 6
    SD_UPDATE = 7
    HESSIAN = 8
    MATRIX_SOLVE = 9
    LK_FLOW = 10
    INTERP = 11
    CHANGE_DETECTION = 12

    @property
    def kernel_name(self) -> str:
        """Catalog identifier (lower-case)."""
        return self.name.lower()

    @classmethod
    def from_index(cls, index: int) -> "WamiStage":
        """Stage with Fig. 3 index ``index`` (1..12)."""
        for stage in cls:
            if stage.value == index:
                return stage
        raise ConfigurationError(f"no WAMI stage with index {index}")


#: Dataflow edges of Fig. 3 (producer -> consumer).
WAMI_EDGES: Tuple[Tuple[WamiStage, WamiStage], ...] = (
    (WamiStage.DEBAYER, WamiStage.GRAYSCALE),
    (WamiStage.GRAYSCALE, WamiStage.GRADIENT),
    (WamiStage.GRAYSCALE, WamiStage.WARP),
    (WamiStage.GRADIENT, WamiStage.STEEPEST_DESCENT),
    (WamiStage.WARP, WamiStage.SUBTRACT),
    (WamiStage.STEEPEST_DESCENT, WamiStage.SD_UPDATE),
    (WamiStage.SUBTRACT, WamiStage.SD_UPDATE),
    (WamiStage.STEEPEST_DESCENT, WamiStage.HESSIAN),
    (WamiStage.HESSIAN, WamiStage.MATRIX_SOLVE),
    (WamiStage.SD_UPDATE, WamiStage.MATRIX_SOLVE),
    (WamiStage.MATRIX_SOLVE, WamiStage.LK_FLOW),
    (WamiStage.LK_FLOW, WamiStage.INTERP),
    (WamiStage.GRAYSCALE, WamiStage.INTERP),
    (WamiStage.INTERP, WamiStage.CHANGE_DETECTION),
)


class WamiGraph:
    """The application DAG with scheduling queries."""

    def __init__(self, edges: Sequence[Tuple[WamiStage, WamiStage]] = WAMI_EDGES) -> None:
        # Adjacency as insertion-ordered dicts used as sets: a repeated
        # edge collapses to its first occurrence, and predecessors are
        # visited in edge order, which decides critical-path ties.
        self._preds: Dict[WamiStage, Dict[WamiStage, None]] = {s: {} for s in WamiStage}
        self._succs: Dict[WamiStage, Dict[WamiStage, None]] = {s: {} for s in WamiStage}
        for src, dst in edges:
            self._succs[src][dst] = None
            self._preds[dst][src] = None
        # Kahn's sort, always taking the lowest-index ready stage.
        indegree = {stage: len(p) for stage, p in self._preds.items()}
        ready = [stage.value for stage, count in indegree.items() if count == 0]
        heapq.heapify(ready)
        order: List[WamiStage] = []
        while ready:
            stage = WamiStage(heapq.heappop(ready))
            order.append(stage)
            for succ in self._succs[stage]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, succ.value)
        if len(order) < len(indegree):
            raise ConfigurationError("WAMI dataflow must be acyclic")
        self._order = tuple(order)

    def predecessors(self, stage: WamiStage) -> List[WamiStage]:
        """Stages whose outputs ``stage`` consumes."""
        return sorted(self._preds[stage], key=lambda s: s.value)

    def successors(self, stage: WamiStage) -> List[WamiStage]:
        """Stages consuming the output of ``stage``."""
        return sorted(self._succs[stage], key=lambda s: s.value)

    def topological_order(self) -> List[WamiStage]:
        """A deterministic topological order (ties broken by index)."""
        return list(self._order)

    def levels(self) -> List[List[WamiStage]]:
        """ASAP levels: stages in the same level can run concurrently."""
        depth: Dict[WamiStage, int] = {}
        for stage in self.topological_order():
            depth[stage] = 1 + max((depth[p] for p in self._preds[stage]), default=-1)
        num_levels = max(depth.values()) + 1
        result: List[List[WamiStage]] = [[] for _ in range(num_levels)]
        for stage, level in depth.items():
            result[level].append(stage)
        for level in result:
            level.sort(key=lambda s: s.value)
        return result

    def critical_path(self, weights: Dict[WamiStage, float]) -> Tuple[List[WamiStage], float]:
        """Longest path under per-stage ``weights`` (execution times)."""
        finish: Dict[WamiStage, float] = {}
        parent: Dict[WamiStage, WamiStage] = {}
        for stage in self.topological_order():
            best = 0.0
            for pred in self._preds[stage]:
                if finish[pred] > best:
                    best = finish[pred]
                    parent[stage] = pred
            finish[stage] = best + weights[stage]
        end = max(finish, key=lambda s: finish[s])
        path = [end]
        while path[-1] in parent:
            path.append(parent[path[-1]])
        path.reverse()
        return path, finish[end]

    def max_width(self) -> int:
        """Largest number of concurrently runnable stages."""
        return max(len(level) for level in self.levels())


#: The canonical application graph.
WAMI_GRAPH = WamiGraph()
