"""Tests for the incremental (dynamic) butterfly counter."""

import numpy as np
import pytest

from repro.core import (
    DynamicButterflyCounter,
    StreamingButterflyCounter,
    count_butterflies,
    vertex_butterfly_counts,
)
from repro.graphs import BipartiteGraph, gnm_bipartite, power_law_bipartite


def _assert_state_matches(dc: DynamicButterflyCounter):
    """Full cross-check of the counter's state against recounting."""
    g = dc.to_graph()
    assert dc.count == count_butterflies(g)
    assert dc.n_edges == g.n_edges
    vl = vertex_butterfly_counts(g, "left")
    vr = vertex_butterfly_counts(g, "right")
    for u in range(g.n_left):
        assert dc.vertex_count(u, "left") == vl[u]
    for v in range(g.n_right):
        assert dc.vertex_count(v, "right") == vr[v]


def test_initial_state_from_graph():
    g = gnm_bipartite(15, 20, 80, seed=1)
    dc = DynamicButterflyCounter(g)
    _assert_state_matches(dc)


def test_initial_state_empty():
    dc = DynamicButterflyCounter(BipartiteGraph.empty(5, 5))
    assert dc.count == 0 and dc.n_edges == 0


def test_build_up_one_butterfly():
    dc = DynamicButterflyCounter(BipartiteGraph.empty(2, 2))
    assert dc.add_edge(0, 0) == 0
    assert dc.add_edge(0, 1) == 0
    assert dc.add_edge(1, 0) == 0
    assert dc.add_edge(1, 1) == 1  # closes the butterfly
    assert dc.count == 1
    assert dc.vertex_count(0, "left") == 1
    assert dc.vertex_count(1, "right") == 1


def test_insertion_order_invariance(rng):
    g = gnm_bipartite(12, 12, 60, seed=3)
    expected = count_butterflies(g)
    edges = [tuple(map(int, e)) for e in g.edges()]
    for seed in range(3):
        order = list(edges)
        np.random.default_rng(seed).shuffle(order)
        dc = DynamicButterflyCounter(BipartiteGraph.empty(12, 12))
        created = dc.add_edges(order)
        assert dc.count == expected
        assert created == expected


def test_remove_inverts_add():
    g = gnm_bipartite(10, 10, 50, seed=4)
    dc = DynamicButterflyCounter(g)
    before = dc.count
    destroyed = dc.remove_edge(*map(int, g.edges()[0]))
    created = dc.add_edge(*map(int, g.edges()[0]))
    assert created == destroyed
    assert dc.count == before


def test_interleaved_random_updates():
    """Random add/remove walk, state fully validated at every 10th step."""
    rng = np.random.default_rng(99)
    m, n = 10, 12
    dc = DynamicButterflyCounter(BipartiteGraph.empty(m, n))
    present: set[tuple[int, int]] = set()
    for step in range(120):
        u = int(rng.integers(m))
        v = int(rng.integers(n))
        if (u, v) in present:
            dc.remove_edge(u, v)
            present.discard((u, v))
        else:
            dc.add_edge(u, v)
            present.add((u, v))
        if step % 10 == 9:
            _assert_state_matches(dc)
    _assert_state_matches(dc)


def test_duplicate_add_rejected():
    dc = DynamicButterflyCounter(BipartiteGraph.empty(2, 2))
    dc.add_edge(0, 0)
    with pytest.raises(ValueError, match="already present"):
        dc.add_edge(0, 0)


def test_remove_absent_rejected():
    dc = DynamicButterflyCounter(BipartiteGraph.empty(2, 2))
    with pytest.raises(ValueError, match="not present"):
        dc.remove_edge(0, 0)


def test_out_of_range_rejected():
    dc = DynamicButterflyCounter(BipartiteGraph.empty(2, 2))
    with pytest.raises(IndexError):
        dc.add_edge(5, 0)
    with pytest.raises(IndexError):
        dc.add_edge(0, 9)
    with pytest.raises(IndexError):
        dc.add_edge(0, -1)
    assert dc.n_edges == 0


def _counter(kind, graph):
    return (
        DynamicButterflyCounter(graph)
        if kind == "dynamic"
        else StreamingButterflyCounter(graph)
    )


_BAD_IDS = pytest.mark.parametrize(
    ("vertex", "error"),
    [(-1, IndexError), (3, IndexError), (1.5, ValueError), (True, ValueError),
     (np.bool_(True), ValueError), ("1", ValueError)],
    ids=["minus-one", "n", "fraction", "bool", "numpy-bool", "text"],
)


@pytest.mark.parametrize("kind", ["dynamic", "streaming"])
@_BAD_IDS
def test_scalar_ids_are_checked(kind, vertex, error):
    """No negative wrap, no bool-as-1, no truncated fraction: every scalar
    entry point of both counters rejects the id and changes nothing."""
    g = BipartiteGraph([(1, 1), (0, 0)], n_left=3, n_right=3)
    counter = _counter(kind, g)
    with pytest.raises(error):
        counter.has_edge(vertex, 1)
    with pytest.raises(error):
        counter.has_edge(1, vertex)
    for side in ("left", "right"):
        with pytest.raises(error):
            counter.vertex_count(vertex, side)
    if kind == "dynamic":
        with pytest.raises(error):
            counter.add_edge(vertex, 1)
        with pytest.raises(error):
            counter.remove_edge(1, vertex)
        with pytest.raises(error):
            counter.add_edges([(vertex, 1)])
    assert counter.n_edges == 2 and counter.count == 0


@pytest.mark.parametrize("kind", ["dynamic", "streaming"])
def test_integral_scalar_ids_accepted(kind):
    g = BipartiteGraph([(1, 1)], n_left=3, n_right=3)
    counter = _counter(kind, g)
    assert counter.has_edge(np.int64(1), 1.0)
    assert not counter.has_edge(2, np.int32(1))
    assert counter.vertex_count(np.int64(2), "right") == 0


def test_batch_operations_skip_gracefully():
    dc = DynamicButterflyCounter(BipartiteGraph.empty(3, 3))
    created = dc.add_edges([(0, 0), (0, 0), (1, 1)])  # duplicate ignored
    assert dc.n_edges == 2
    removed = dc.remove_edges([(0, 0), (2, 2)])  # absent ignored
    assert dc.n_edges == 1
    assert created == 0 and removed == 0


def test_deltas_match_edge_support():
    """The insertion delta equals the edge's support after insertion
    (eq. 23 evaluated dynamically)."""
    from repro.core import edge_butterfly_support

    g = power_law_bipartite(25, 30, 150, seed=8)
    dc = DynamicButterflyCounter(g)
    edges = [tuple(map(int, e)) for e in g.edges()]
    support = edge_butterfly_support(g)
    for k in range(0, len(edges), 17):
        u, v = edges[k]
        destroyed = dc.remove_edge(u, v)
        assert destroyed == support[k]
        dc.add_edge(u, v)


def test_repr():
    dc = DynamicButterflyCounter(BipartiteGraph.complete(2, 2))
    assert "butterflies=1" in repr(dc)


def test_matches_family_on_larger_graph():
    g = power_law_bipartite(60, 70, 400, seed=5)
    dc = DynamicButterflyCounter(BipartiteGraph.empty(60, 70))
    dc.add_edges(map(tuple, g.edges()))
    assert dc.count == count_butterflies(g)
    assert dc.to_graph() == g


def test_n_edges_is_constant_time_and_consistent():
    # n_edges is a maintained counter (O(1)), not a per-row sum — it must
    # stay consistent through every mutation path, including skipped ones
    dc = DynamicButterflyCounter(power_law_bipartite(20, 25, 120, seed=6))
    start = dc.n_edges
    dc.add_edge(0, 0) if not dc.has_edge(0, 0) else None
    expected = start + (0 if dc.n_edges == start else 1)
    assert dc.n_edges == expected
    dc.add_edges([(1, 1), (1, 1), (2, 2)])  # intra-batch duplicate
    dc.remove_edges([(1, 1), (19, 24), (19, 24)])  # absent / duplicate
    _assert_state_matches(dc)


def test_add_edges_duplicate_in_batch_reports_correct_created():
    # the duplicate (0, 0) must contribute exactly once to the butterfly
    # delta: 4 distinct edges form one butterfly
    dc = DynamicButterflyCounter(BipartiteGraph.empty(3, 3))
    created = dc.add_edges([(0, 0), (0, 1), (0, 0), (1, 0), (1, 1)])
    assert created == 1
    assert dc.count == 1
    assert dc.n_edges == 4
    _assert_state_matches(dc)

