"""Tests for per-vertex butterfly counts and per-edge support."""

import numpy as np
import pytest

from repro.baselines import (
    edge_support_bruteforce,
    vertex_counts_bruteforce,
    vertex_counts_scipy,
)
from repro.core import (
    count_butterflies,
    edge_butterfly_support,
    edge_butterfly_support_priority,
    edge_support_dense,
    paper_tip_vector,
    vertex_butterfly_counts,
    vertex_counts_dense,
)
from tests.conftest import tiny_named_graphs


# ------------------------------------------------------------ per-vertex
@pytest.mark.parametrize("side", ["left", "right"])
def test_vertex_counts_match_dense_oracle(side, corpus):
    for name, g in corpus:
        sparse = vertex_butterfly_counts(g, side)
        dense = vertex_counts_dense(g, side)
        assert np.array_equal(sparse, dense), (name, side)


@pytest.mark.parametrize("side", ["left", "right"])
def test_vertex_counts_match_bruteforce(side, tiny_graphs):
    for name, g in tiny_graphs.items():
        got = vertex_butterfly_counts(g, side)
        expected = vertex_counts_bruteforce(g, side)
        assert got.tolist() == expected, (name, side)


def test_vertex_counts_match_scipy(medium_graph):
    for side in ("left", "right"):
        assert np.array_equal(
            vertex_butterfly_counts(medium_graph, side),
            vertex_counts_scipy(medium_graph, side),
        )


def test_vertex_counts_sum_is_twice_total(corpus):
    """Each butterfly has exactly 2 vertices on each side."""
    for name, g in corpus:
        total = count_butterflies(g)
        assert vertex_butterfly_counts(g, "left").sum() == 2 * total, name
        assert vertex_butterfly_counts(g, "right").sum() == 2 * total, name


def test_vertex_counts_k33():
    g = tiny_named_graphs()["k33"]
    # every vertex of K_{3,3} lies in C(2,1)... by symmetry: 2Ξ/3 = 6
    assert vertex_butterfly_counts(g, "left").tolist() == [6, 6, 6]
    assert vertex_butterfly_counts(g, "right").tolist() == [6, 6, 6]


def test_vertex_counts_bad_side():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(ValueError, match="side"):
        vertex_butterfly_counts(g, "top")
    with pytest.raises(ValueError, match="side"):
        vertex_counts_dense(g, "top")


def test_paper_tip_vector_is_half(corpus):
    """Documents the paper's eq. (19) ¼-factor: the literal formula yields
    ⌊count/2⌋, not the count."""
    for name, g in corpus:
        if g.n_left > 80:
            continue
        s = paper_tip_vector(g)
        full = vertex_butterfly_counts(g, "left")
        assert np.array_equal(s, full // 2), name


# -------------------------------------------------------------- per-edge
@pytest.mark.parametrize("budget", [1, 5, 64, 10_000])
def test_edge_support_blocked_matches_plain(budget, corpus, monkeypatch):
    """The ranked-wedge support kernel, tiled into top panels of at most
    ``budget`` wedges, against the fixed-side eq. (23) loop, which shares
    no code with it."""
    from repro.core import priority

    monkeypatch.setattr(priority, "PRIORITY_PANEL_BUDGET", budget)
    for name, g in corpus:
        for h in (g, g.swap_sides()):
            assert np.array_equal(
                edge_butterfly_support_priority(h), edge_butterfly_support(h)
            ), (name, budget)


def test_edge_support_priority_medium(medium_graph):
    assert np.array_equal(
        edge_butterfly_support_priority(medium_graph),
        edge_butterfly_support(medium_graph),
    )


def test_edge_support_matches_bruteforce(tiny_graphs):
    for name, g in tiny_graphs.items():
        support = edge_butterfly_support(g)
        expected = edge_support_bruteforce(g)
        edges = [tuple(map(int, e)) for e in g.edges()]
        for s, e in zip(support, edges):
            assert int(s) == expected[e], (name, e)


def test_edge_support_matches_dense_oracle(corpus):
    for name, g in corpus:
        support = edge_butterfly_support(g)
        dense = edge_support_dense(g)
        edges = g.edges()
        for s, (u, v) in zip(support, edges):
            assert int(s) == dense[u, v], (name, u, v)


def test_edge_support_sums_to_four_times_total(corpus):
    """Each butterfly contains exactly 4 edges."""
    for name, g in corpus:
        assert edge_butterfly_support(g).sum() == 4 * count_butterflies(g), name


def test_edge_support_k33():
    g = tiny_named_graphs()["k33"]
    # every edge of K_{3,3} is in (3-1)·(3-1) = 4 butterflies
    assert (edge_butterfly_support(g) == 4).all()


def test_edge_support_butterfly_free_graph():
    g = tiny_named_graphs()["path"]
    assert (edge_butterfly_support(g) == 0).all()


def test_edge_support_empty_graph():
    from repro.graphs import BipartiteGraph

    assert edge_butterfly_support(BipartiteGraph.empty(3, 3)).size == 0


def test_edge_support_dense_off_pattern_zero(corpus):
    name, g = corpus[0]
    dense = edge_support_dense(g)
    a = g.biadjacency_dense()
    assert (dense[a == 0] == 0).all()
