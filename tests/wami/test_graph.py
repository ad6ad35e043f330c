"""Tests for the WAMI dataflow graph."""

import hashlib
import random

import pytest

from repro.errors import ConfigurationError
from repro.wami.graph import WAMI_EDGES, WAMI_GRAPH, WamiGraph, WamiStage


class TestStages:
    def test_twelve_stages(self):
        assert len(WamiStage) == 12

    def test_indexes_are_1_to_12(self):
        assert sorted(s.value for s in WamiStage) == list(range(1, 13))

    def test_from_index(self):
        assert WamiStage.from_index(1) is WamiStage.DEBAYER
        assert WamiStage.from_index(12) is WamiStage.CHANGE_DETECTION

    def test_from_index_invalid(self):
        with pytest.raises(ConfigurationError):
            WamiStage.from_index(13)

    def test_kernel_names_are_lowercase(self):
        for stage in WamiStage:
            assert stage.kernel_name == stage.kernel_name.lower()


def index(stages):
    return [stage.value for stage in stages]


def describe(graph, weights):
    """Every query's answer on ``graph``, in stage indexes."""
    path, length = graph.critical_path(weights)
    return (
        index(graph.topological_order()),
        [index(level) for level in graph.levels()],
        [index(graph.predecessors(stage)) for stage in WamiStage],
        [index(graph.successors(stage)) for stage in WamiStage],
        index(path),
        length,
    )


def random_dag_sweep(cases=300):
    """Seeded random DAGs on the twelve stages with tie-heavy weights.

    Each DAG orders the stages by a random permutation and adds forward
    edges in a shuffled order, some of them twice; weights drawn from
    {0, 1, 2} make most critical-path choices a tie.
    """
    rows = []
    for seed in range(cases):
        rng = random.Random(seed)
        rank = list(WamiStage)
        rng.shuffle(rank)
        edges = [
            (rank[i], rank[j])
            for i in range(len(rank))
            for j in range(i + 1, len(rank))
            if rng.random() < 0.25
        ]
        edges += rng.sample(edges, len(edges) // 4)
        rng.shuffle(edges)
        weights = {stage: float(rng.choice((0, 1, 2))) for stage in WamiStage}
        rows.append(describe(WamiGraph(edges), weights))
    return rows


#: SHA-256 of ``repr(random_dag_sweep())``, recorded from the graph
#: library implementation that the dict adjacency replaced.
SWEEP_DIGEST = "b2fd958ab6200a222f94790f717c32699e0333ceb29924c9a85d01b2942550af"


class TestGraphStructure:
    def test_acyclic(self):
        """Every edge goes forward in the order, and no stage is left out."""
        order = WAMI_GRAPH.topological_order()
        assert sorted(index(order)) == list(range(1, 13))
        position = {stage: i for i, stage in enumerate(order)}
        for stage in WamiStage:
            for succ in WAMI_GRAPH.successors(stage):
                assert position[stage] < position[succ]

    def test_debayer_is_the_source(self):
        assert WAMI_GRAPH.predecessors(WamiStage.DEBAYER) == []

    def test_change_detection_is_the_sink(self):
        assert WAMI_GRAPH.successors(WamiStage.CHANGE_DETECTION) == []

    def test_all_stages_connected(self):
        """Weakly connected: every stage is reachable ignoring direction."""
        seen = {WamiStage.DEBAYER}
        frontier = [WamiStage.DEBAYER]
        while frontier:
            stage = frontier.pop()
            for other in WAMI_GRAPH.predecessors(stage) + WAMI_GRAPH.successors(stage):
                if other not in seen:
                    seen.add(other)
                    frontier.append(other)
        assert seen == set(WamiStage)

    def test_topological_order_respects_edges(self):
        order = WAMI_GRAPH.topological_order()
        position = {stage: i for i, stage in enumerate(order)}
        for src, dst in WAMI_EDGES:
            assert position[src] < position[dst]

    @pytest.mark.parametrize(
        "extra",
        [
            (WamiStage.CHANGE_DETECTION, WamiStage.DEBAYER),
            (WamiStage.HESSIAN, WamiStage.HESSIAN),
        ],
        ids=["back-edge", "self-loop"],
    )
    def test_cycle_rejected(self, extra):
        edges = list(WAMI_EDGES) + [extra]
        with pytest.raises(ConfigurationError, match="acyclic"):
            WamiGraph(edges)

    def test_pinned_fig3_answers(self):
        """Order, levels and neighbours of Fig. 3, as first recorded."""
        order, levels, preds, succs, _, _ = describe(
            WAMI_GRAPH, {stage: 1.0 for stage in WamiStage}
        )
        assert order == list(range(1, 13))
        assert levels == [[1], [2], [3, 4], [5, 6], [7, 8], [9], [10], [11], [12]]
        assert preds == [
            [], [1], [2], [2], [4], [3], [5, 6], [6], [7, 8], [9], [2, 10], [11]
        ]
        assert succs == [
            [2], [3, 4, 11], [6], [5], [7], [7, 8], [9], [9], [10], [11], [12], []
        ]

    def test_duplicate_edges_collapse(self):
        weights = {stage: 1.0 for stage in WamiStage}
        doubled = WamiGraph(list(WAMI_EDGES) + list(reversed(WAMI_EDGES)))
        assert describe(doubled, weights) == describe(WAMI_GRAPH, weights)

    def test_random_dags_match_the_recorded_answers(self):
        assert hashlib.sha256(repr(random_dag_sweep()).encode()).hexdigest() == (
            SWEEP_DIGEST
        )


class TestScheduling:
    def test_levels_partition_all_stages(self):
        levels = WAMI_GRAPH.levels()
        flattened = [s for level in levels for s in level]
        assert sorted(flattened, key=lambda s: s.value) == sorted(
            WamiStage, key=lambda s: s.value
        )

    def test_level_zero_is_debayer(self):
        assert WAMI_GRAPH.levels()[0] == [WamiStage.DEBAYER]

    def test_max_width_is_two(self):
        """The LK decomposition yields a width-2 DAG — the structural
        reason SoC_Z's four tiles do not scale linearly (Fig. 4)."""
        assert WAMI_GRAPH.max_width() == 2

    def test_critical_path_under_unit_weights(self):
        """Ties go to the predecessor whose edge was listed first."""
        path, length = WAMI_GRAPH.critical_path({s: 1.0 for s in WamiStage})
        assert index(path) == [1, 2, 3, 6, 8, 9, 10, 11, 12]
        assert length == len(path)

    def test_critical_path_under_tie_heavy_weights(self):
        """Weights of 1 or 2 on Fig. 3, seeded; values as first recorded."""
        paths = []
        for seed in range(200):
            rng = random.Random(seed)
            weights = {stage: float(rng.choice((1, 2))) for stage in WamiStage}
            path, length = WAMI_GRAPH.critical_path(weights)
            paths.append((index(path), length))
        assert paths[:6] == [
            ([1, 2, 4, 5, 7, 9, 10, 11, 12], 16.0),
            ([1, 2, 3, 6, 8, 9, 10, 11, 12], 13.0),
            ([1, 2, 3, 6, 7, 9, 10, 11, 12], 13.0),
            ([1, 2, 3, 6, 8, 9, 10, 11, 12], 13.0),
            ([1, 2, 4, 5, 7, 9, 10, 11, 12], 14.0),
            ([1, 2, 4, 5, 7, 9, 10, 11, 12], 15.0),
        ]
        assert hashlib.sha256(repr(paths).encode()).hexdigest() == (
            "33da8e1ae2d385a5227c9f4087630e812c7868f4a6570f19535ce984dc770d28"
        )

    def test_critical_path_tracks_weights(self):
        weights = {s: 1.0 for s in WamiStage}
        weights[WamiStage.HESSIAN] = 100.0
        path, length = WAMI_GRAPH.critical_path(weights)
        assert WamiStage.HESSIAN in path
        assert length > 100.0
