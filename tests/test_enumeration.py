"""Tests for butterfly enumeration and per-pair counting."""

import pytest

from repro.baselines import enumerate_butterflies
from repro.core import (
    butterflies_at_edge,
    butterflies_at_vertex,
    count_butterflies,
    edge_butterfly_support,
    iter_butterflies,
    pairwise_butterfly_counts,
    pairwise_wedge_counts,
    top_butterfly_pairs,
    vertex_butterfly_counts,
)
from repro.core.spec import pairwise_butterfly_matrix
from repro.graphs import BipartiteGraph, planted_bicliques, power_law_bipartite
from tests.conftest import tiny_named_graphs


def test_iter_matches_bruteforce_enumeration(tiny_graphs):
    for name, g in tiny_graphs.items():
        fast = list(iter_butterflies(g))
        slow = list(enumerate_butterflies(g))
        assert sorted(fast) == sorted(slow), name


def test_iter_is_lexicographic(corpus):
    name, g = corpus[0]
    bfs = list(iter_butterflies(g))
    assert bfs == sorted(bfs)


def test_iter_canonical_tuples(corpus):
    for name, g in corpus[:4]:
        for u, w, v, y in iter_butterflies(g, limit=200):
            assert u < w and v < y, name


def test_iter_count_matches_counting(corpus):
    for name, g in corpus:
        if count_butterflies(g) > 50_000:
            continue
        assert len(list(iter_butterflies(g))) == count_butterflies(g), name


def test_iter_limit():
    g = BipartiteGraph.complete(5, 5)
    assert len(list(iter_butterflies(g, limit=7))) == 7
    assert len(list(iter_butterflies(g, limit=0))) == 0


def test_pairwise_wedge_counts_match_dense(corpus):
    for name, g in corpus[:6]:
        a = g.biadjacency_dense()
        b = a @ a.T
        pairs = pairwise_wedge_counts(g, "left")
        for i in range(g.n_left):
            for j in range(i + 1, g.n_left):
                expected = int(b[i, j])
                assert pairs.get((i, j), 0) == expected, (name, i, j)


def test_pairwise_wedge_counts_right_side(corpus):
    name, g = corpus[1]
    swapped = g.swap_sides()
    assert pairwise_wedge_counts(g, "right") == pairwise_wedge_counts(
        swapped, "left"
    )


def test_pairwise_wedge_counts_bad_side():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(ValueError, match="side"):
        pairwise_wedge_counts(g, "both")


def test_pairwise_butterfly_counts_match_spec_matrix(corpus):
    for name, g in corpus[:5]:
        c = pairwise_butterfly_matrix(g)
        pairs = pairwise_butterfly_counts(g, "left")
        # only pairs with >= 1 butterfly appear
        assert all(v >= 1 for v in pairs.values())
        for (i, j), v in pairs.items():
            assert v == c[i, j], (name, i, j)
        assert sum(pairs.values()) == count_butterflies(g), name


def test_butterflies_at_vertex_matches_counts(corpus):
    for name, g in corpus[:4]:
        vl = vertex_butterfly_counts(g, "left")
        for u in range(min(g.n_left, 10)):
            bfs = butterflies_at_vertex(g, u, "left")
            assert len(bfs) == vl[u], (name, u)
            assert all(u in (b[0], b[1]) for b in bfs)


def test_butterflies_at_vertex_right_side():
    g = tiny_named_graphs()["k23"]
    vr = vertex_butterfly_counts(g, "right")
    for v in range(g.n_right):
        bfs = butterflies_at_vertex(g, v, "right")
        assert len(bfs) == vr[v]
        assert all(v in (b[2], b[3]) for b in bfs)


def test_butterflies_at_vertex_bad_args():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(IndexError):
        butterflies_at_vertex(g, 99, "left")
    with pytest.raises(ValueError, match="side"):
        butterflies_at_vertex(g, 0, "middle")


def test_butterflies_at_edge_matches_support(corpus):
    for name, g in corpus[:4]:
        support = edge_butterfly_support(g)
        edges = [tuple(map(int, e)) for e in g.edges()]
        for k in range(0, len(edges), max(1, len(edges) // 8)):
            u, v = edges[k]
            bfs = butterflies_at_edge(g, u, v)
            assert len(bfs) == support[k], (name, u, v)


def test_butterflies_at_edge_absent_edge():
    g = BipartiteGraph([(0, 0)], n_left=2, n_right=2)
    with pytest.raises(ValueError, match="not present"):
        butterflies_at_edge(g, 0, 1)
    with pytest.raises(IndexError):
        butterflies_at_edge(g, 5, 0)


def test_enumeration_on_empty_graph():
    g = BipartiteGraph.empty(4, 4)
    assert list(iter_butterflies(g)) == []
    assert pairwise_wedge_counts(g) == {}
    assert pairwise_butterfly_counts(g) == {}


# ------------------------------------------------------- top pairs
def test_top_pairs_on_planted():
    g = planted_bicliques(20, 20, 2, 3, 4, background_edges=0, seed=1)
    top = top_butterfly_pairs(g, 10, side="left")
    # within each K_{3,4}, every left pair closes C(4,2) = 6 butterflies;
    # 2 cliques × C(3,2) pairs = 6 pairs total, all with count 6
    assert len(top) == 6
    assert all(c == 6 for _, c in top)


def test_top_pairs_sorted_and_capped():
    g = power_law_bipartite(40, 50, 250, seed=2)
    top = top_butterfly_pairs(g, 5)
    assert len(top) <= 5
    counts = [c for _, c in top]
    assert counts == sorted(counts, reverse=True)
    assert all(c >= 1 for c in counts)


def test_top_pairs_right_side():
    g = tiny_named_graphs()["k23"]
    top = top_butterfly_pairs(g, 10, side="right")
    # right pairs of K_{2,3}: C(3,2)=3 pairs, each closing C(2,2)=1
    assert len(top) == 3 and all(c == 1 for _, c in top)


def test_top_pairs_validation_and_empty():
    g = BipartiteGraph.empty(3, 3)
    assert top_butterfly_pairs(g, 4) == []
    with pytest.raises(ValueError, match="non-negative"):
        top_butterfly_pairs(g, -1)
