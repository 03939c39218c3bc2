"""Unit tests for the BipartiteGraph container."""

import numpy as np
import pytest

from repro.graphs import BipartiteGraph
from repro.sparsela import PatternCOO


def test_construct_from_pairs():
    g = BipartiteGraph([(0, 1), (1, 0)], n_left=2, n_right=2)
    assert g.n_left == 2 and g.n_right == 2 and g.n_edges == 2


def test_construct_infers_sizes():
    g = BipartiteGraph([(3, 5)])
    assert g.n_left == 4 and g.n_right == 6


def test_construct_from_array():
    edges = np.array([[0, 0], [1, 1]])
    g = BipartiteGraph(edges)
    assert g.n_edges == 2


def test_construct_merges_parallel_edges():
    g = BipartiteGraph([(0, 0), (0, 0)], n_left=1, n_right=1)
    assert g.n_edges == 1


def test_partial_size_spec_rejected():
    with pytest.raises(ValueError, match="both"):
        BipartiteGraph([(0, 0)], n_left=2)


def test_coo_input_with_shape_rejected():
    coo = PatternCOO.from_pairs([(0, 0)], shape=(1, 1))
    with pytest.raises(ValueError, match="fixed"):
        BipartiteGraph(coo, n_left=1, n_right=1)


def test_from_biadjacency(rng):
    dense = (rng.random((6, 8)) < 0.4).astype(int)
    g = BipartiteGraph.from_biadjacency(dense)
    assert np.array_equal(g.biadjacency_dense(), dense)


def test_empty_and_complete():
    e = BipartiteGraph.empty(3, 4)
    assert e.n_edges == 0
    c = BipartiteGraph.complete(3, 4)
    assert c.n_edges == 12
    assert (c.biadjacency_dense() == 1).all()


def test_csr_csc_cached_and_consistent(rng):
    dense = (rng.random((5, 7)) < 0.5).astype(int)
    g = BipartiteGraph.from_biadjacency(dense)
    assert g.csr is g.csr  # cached
    assert g.csc is g.csc
    assert np.array_equal(g.csr.to_dense(), dense)
    assert np.array_equal(g.csc.to_dense(), dense)


@pytest.mark.parametrize("density", [0.0, 0.3, 1.0])
def test_from_view_graph_matches_the_eager_graph(rng, density):
    """A graph wrapped around one view builds its COO only when read, and
    reads the same sizes, edges and COO as a graph built from pairs."""
    dense = (rng.random((6, 9)) < density).astype(int)
    eager = BipartiteGraph.from_biadjacency(dense)
    wrapped = BipartiteGraph.from_csr(eager.csr)
    assert wrapped._coo is None
    assert wrapped.n_edges == eager.n_edges
    assert wrapped.shape == eager.shape
    assert (wrapped.n_left, wrapped.n_right) == (6, 9)
    assert wrapped._coo is None  # sizes came from the view
    assert wrapped == eager and eager == wrapped
    assert wrapped.coo == eager.coo
    assert wrapped.coo.is_canonical()
    assert np.array_equal(wrapped.edges(), eager.edges())
    assert np.array_equal(wrapped.csr.indices, eager.csr.indices)
    assert np.array_equal(wrapped.csc.indices, eager.csc.indices)


def test_stream_to_graph_and_plan_build_no_coo():
    """The stream path hands its views to the planner without a COO."""
    from repro import engine
    from repro.core.stream import StreamingButterflyCounter
    from repro.graphs import power_law_bipartite

    counter = StreamingButterflyCounter(power_law_bipartite(40, 50, 250, seed=3))
    counter.apply(insert=[(0, 1), (2, 3)], delete=[(5, 5)])
    graph = counter.to_graph()
    plan = engine.plan(graph, "stream_apply", batch=([(1, 1)], [(0, 1)]))
    assert plan.strategy in ("incremental", "recount")
    assert graph._coo is None
    assert graph.n_edges == counter.n_edges


def test_neighbors():
    g = BipartiteGraph([(0, 1), (0, 2), (1, 2)], n_left=2, n_right=3)
    assert g.neighbors_left(0).tolist() == [1, 2]
    assert g.neighbors_right(2).tolist() == [0, 1]
    assert g.neighbors_right(0).tolist() == []


def test_degrees():
    g = BipartiteGraph([(0, 1), (0, 2), (1, 2)], n_left=2, n_right=3)
    assert g.degrees_left().tolist() == [2, 1]
    assert g.degrees_right().tolist() == [0, 1, 2]


def test_swap_sides(rng):
    dense = (rng.random((4, 6)) < 0.5).astype(int)
    g = BipartiteGraph.from_biadjacency(dense)
    s = g.swap_sides()
    assert s.n_left == 6 and s.n_right == 4
    assert np.array_equal(s.biadjacency_dense(), dense.T)


def test_relabel_left():
    g = BipartiteGraph([(0, 0), (1, 1)], n_left=2, n_right=2)
    r = g.relabel(left_perm=np.array([1, 0]))
    assert r.biadjacency_dense().tolist() == [[0, 1], [1, 0]]


def test_relabel_rejects_non_permutation():
    g = BipartiteGraph.empty(3, 3)
    with pytest.raises(ValueError, match="permutation"):
        g.relabel(left_perm=np.array([0, 0, 1]))
    with pytest.raises(ValueError, match="permutation"):
        g.relabel(right_perm=np.array([0, 1, 3]))


def test_subgraph_from_mask_keeps_ids():
    g = BipartiteGraph([(0, 0), (1, 1), (2, 0)], n_left=3, n_right=2)
    sub = g.subgraph_from_mask(
        np.array([True, False, True]), np.array([True, True])
    )
    assert sub.shape == g.shape  # ids preserved
    assert sub.n_edges == 2
    assert sub.neighbors_left(1).size == 0


def test_subgraph_from_mask_shape_check():
    g = BipartiteGraph.empty(2, 2)
    with pytest.raises(ValueError, match="masks"):
        g.subgraph_from_mask(np.array([True]), np.array([True, True]))


def test_edges_sorted_row_major():
    g = BipartiteGraph([(1, 0), (0, 1), (0, 0)], n_left=2, n_right=2)
    assert g.edges().tolist() == [[0, 0], [0, 1], [1, 0]]


def test_equality_and_repr():
    a = BipartiteGraph([(0, 0)], n_left=1, n_right=1)
    b = BipartiteGraph([(0, 0)], n_left=1, n_right=1)
    assert a == b
    assert "|V1|=1" in repr(a)
    with pytest.raises(TypeError):
        hash(a)
