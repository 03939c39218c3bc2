"""Tests for k-tip and k-wing peeling."""

import numpy as np
import pytest

from repro import engine
from repro.core import (
    count_butterflies,
    edge_butterfly_support,
    k_tip,
    k_tip_lookahead,
    k_wing,
    tip_numbers,
    tip_numbers_bucket_parallel,
    vertex_butterfly_counts,
)
from repro.engine import CalibrationTable
from repro.graphs import BipartiteGraph, planted_bicliques, power_law_bipartite
from repro.reference import k_tip_reference
from tests.conftest import tiny_named_graphs


@pytest.fixture(scope="module", autouse=True)
def _retire_shared_executors():
    """Leave no warm default executor (and no published /dev/shm segment)
    behind — the sharedmem suite asserts segment-leak-freedom globally."""
    yield
    from repro.parallel import shutdown_default_executors

    shutdown_default_executors()


@pytest.fixture(scope="module")
def community_graph():
    """3 planted K_{4,5} communities over light background noise."""
    return planted_bicliques(30, 30, 3, 4, 5, background_edges=25, seed=21)


# ---------------------------------------------------------------- k-tip
def test_k0_tip_keeps_everything(corpus):
    for name, g in corpus:
        res = k_tip(g, 0)
        assert res.kept.all(), name
        assert res.subgraph == g, name


def test_tip_fixpoint_property(corpus):
    """Every kept vertex has >= k butterflies in the peeled subgraph."""
    for name, g in corpus:
        for k in (1, 3, 10):
            res = k_tip(g, k, side="left")
            counts = vertex_butterfly_counts(res.subgraph, "left")
            assert (counts[res.kept] >= k).all(), (name, k)


def test_tip_maximality_on_planted(community_graph):
    """The planted K_{4,5} members each lie in C(3,1)·... : within one
    K_{4,5}, a left vertex pairs with 3 others × C(5,2) wedges... exactly
    3·10 = 30 butterflies; so they all survive k=30 peeling."""
    res = k_tip(community_graph, 30, side="left")
    planted_members = np.zeros(30, dtype=bool)
    planted_members[: 3 * 4] = True
    assert res.kept[planted_members].all()


def test_tip_monotone_in_k(community_graph):
    prev = None
    for k in (0, 1, 5, 20, 50, 200):
        kept = k_tip(community_graph, k).kept
        if prev is not None:
            assert (kept <= prev).all(), k  # k-tips are nested
        prev = kept


def test_tip_right_side(community_graph):
    res = k_tip(community_graph, 10, side="right")
    counts = vertex_butterfly_counts(res.subgraph, "right")
    assert (counts[res.kept] >= 10).all()


def test_tip_huge_k_empties_graph(community_graph):
    res = k_tip(community_graph, 10**9)
    assert not res.kept.any()
    assert res.subgraph.n_edges == 0


def test_tip_requires_multiple_rounds():
    """A chain of overlapping bicliques where removing the weakest vertex
    drops its neighbour below threshold — forces cascading rounds."""
    # K_{2,2} butterfly + a tail vertex attached through one extra column
    g = BipartiteGraph(
        [(0, 0), (0, 1), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)],
        n_left=3,
        n_right=3,
    )
    res = k_tip(g, 1, side="left")
    assert res.rounds >= 1
    counts = vertex_butterfly_counts(res.subgraph, "left")
    assert (counts[res.kept] >= 1).all()


def test_tip_negative_k_rejected(community_graph):
    with pytest.raises(ValueError, match="non-negative"):
        k_tip(community_graph, -1)
    with pytest.raises(ValueError, match="non-negative"):
        k_tip_lookahead(community_graph, -1)


def test_tip_bad_side(community_graph):
    with pytest.raises(ValueError, match="side"):
        k_tip(community_graph, 1, side="up")


def test_lookahead_tip_equals_batch_tip(corpus):
    for name, g in corpus:
        for k in (1, 4, 25):
            a = k_tip(g, k)
            b = k_tip_lookahead(g, k)
            assert np.array_equal(a.kept, b.kept), (name, k)
            assert a.subgraph == b.subgraph, (name, k)


def test_lookahead_tip_on_planted(community_graph):
    a = k_tip(community_graph, 30)
    b = k_tip_lookahead(community_graph, 30)
    assert np.array_equal(a.kept, b.kept)


def test_tip_result_metadata(community_graph):
    res = k_tip(community_graph, 2, side="left")
    assert res.k == 2 and res.side == "left"
    assert res.n_kept == int(res.kept.sum())


@pytest.fixture(scope="module")
def skewed_graph():
    return power_law_bipartite(200, 250, 3000, seed=23)


@pytest.mark.parametrize("side", ["left", "right"])
def test_auto_tip_plan_is_priority_and_matches_reference(skewed_graph, side):
    """Every fixpoint round of the auto plan is one priority pass; the
    peel still lands on the pure-Python reference fixpoint."""
    g = skewed_graph
    for k in (1, 20, 300):
        the_plan = engine.plan(
            g, "tip", side=side, k=k, calibration=CalibrationTable()
        )
        assert the_plan.strategy == "priority"
        expected = k_tip_reference(g, k, side=side)
        assert the_plan.execute(g).kept.tolist() == expected
        assert k_tip(g, k, side=side).kept.tolist() == expected


@pytest.mark.parametrize("n_workers", [1, 2])
@pytest.mark.parametrize("side", ["left", "right"])
def test_bucket_tip_numbers_match_heap_reference(
    skewed_graph, community_graph, corpus, side, n_workers
):
    """Initial counts from the priority pass, rounds in-process or pooled:
    identical to the heap-based peel."""
    graphs = [skewed_graph, community_graph] + [g for _, g in corpus]
    for g in graphs:
        np.testing.assert_array_equal(
            tip_numbers_bucket_parallel(g, side=side, n_workers=n_workers),
            tip_numbers(g, side=side),
        )


# --------------------------------------------------------------- k-wing
def test_k0_wing_keeps_everything(corpus):
    for name, g in corpus:
        res = k_wing(g, 0)
        assert res.subgraph == g, name


def test_wing_fixpoint_property(corpus):
    for name, g in corpus:
        for k in (1, 2, 8):
            res = k_wing(g, k)
            if res.subgraph.n_edges:
                support = edge_butterfly_support(res.subgraph)
                assert (support >= k).all(), (name, k)


def test_wing_on_single_butterfly():
    g = tiny_named_graphs()["one_butterfly"]
    assert k_wing(g, 1).n_edges == 4
    assert k_wing(g, 2).n_edges == 0


def test_wing_k33():
    g = tiny_named_graphs()["k33"]
    # every edge in 4 butterflies: survives k=4, dies at k=5
    assert k_wing(g, 4).n_edges == 9
    assert k_wing(g, 5).n_edges == 0


def test_wing_peels_background_keeps_cliques(community_graph):
    """Edges inside a K_{4,5} have support (4−1)(5−1)... = 12 within the
    clique; sparse background edges have near-zero support."""
    res = k_wing(community_graph, 12)
    assert res.n_edges >= 3 * 4 * 5  # all clique edges survive
    counts = count_butterflies(res.subgraph)
    assert counts > 0


def test_wing_monotone_in_k(community_graph):
    prev = None
    for k in (0, 1, 5, 12, 40):
        edges = {tuple(e) for e in map(tuple, k_wing(community_graph, k).subgraph.edges())}
        if prev is not None:
            assert edges <= prev, k
        prev = edges


def test_wing_negative_k_rejected(community_graph):
    with pytest.raises(ValueError, match="non-negative"):
        k_wing(community_graph, -3)


def test_wing_empty_graph():
    res = k_wing(BipartiteGraph.empty(4, 4), 3)
    assert res.n_edges == 0 and res.rounds == 1


def test_wing_medium_graph_consistency():
    g = power_law_bipartite(120, 150, 900, seed=33)
    res = k_wing(g, 2)
    if res.subgraph.n_edges:
        assert (edge_butterfly_support(res.subgraph) >= 2).all()
