"""Tests for the count-preserving reductions (ablF's graph cleanup)."""

import numpy as np

from repro.core import count_butterflies
from repro.graphs import (
    BipartiteGraph,
    drop_isolated,
    planted_bicliques,
    power_law_bipartite,
    two_two_core,
)


# ------------------------------------------------------------- reductions
def test_two_two_core_preserves_count(corpus):
    for name, g in corpus:
        red = two_two_core(g)
        assert count_butterflies(red.graph) == count_butterflies(g), name


def test_two_two_core_min_degrees():
    g = power_law_bipartite(60, 80, 300, seed=4)
    red = two_two_core(g)
    if red.graph.n_edges:
        assert red.graph.degrees_left().min() >= 2
        assert red.graph.degrees_right().min() >= 2


def test_two_two_core_butterfly_free_graph_empties():
    g = BipartiteGraph([(0, 0), (1, 0), (1, 1), (2, 1)], n_left=3, n_right=2)
    red = two_two_core(g)
    assert red.graph.n_edges == 0


def test_two_two_core_id_maps():
    g = planted_bicliques(10, 10, 1, 3, 3, background_edges=0, seed=0)
    red = two_two_core(g)
    assert red.left_ids.tolist() == [0, 1, 2]
    assert red.lift_left(np.array([0, 2])).tolist() == [0, 2]
    assert red.lift_right(np.array([1])).tolist() == [1]


def test_drop_isolated():
    g = BipartiteGraph([(1, 1), (3, 2)], n_left=5, n_right=4)
    red = drop_isolated(g)
    assert red.graph.shape == (2, 2)
    assert red.left_ids.tolist() == [1, 3]
    assert red.right_ids.tolist() == [1, 2]
    assert count_butterflies(red.graph) == count_butterflies(g)


def test_drop_isolated_no_op():
    g = BipartiteGraph.complete(3, 3)
    red = drop_isolated(g)
    assert red.graph == g
