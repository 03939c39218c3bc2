"""Tests for the random graph generators."""

import numpy as np
import pytest

from repro.graphs import (
    BipartiteGraph,
    chung_lu_bipartite,
    erdos_renyi_bipartite,
    gnm_bipartite,
    planted_bicliques,
    power_law_bipartite,
)
from repro.core import butterflies_spec, count_butterflies


def test_er_determinism():
    a = erdos_renyi_bipartite(30, 40, 0.1, seed=5)
    b = erdos_renyi_bipartite(30, 40, 0.1, seed=5)
    assert a == b


def test_er_seed_changes_graph():
    a = erdos_renyi_bipartite(30, 40, 0.1, seed=5)
    b = erdos_renyi_bipartite(30, 40, 0.1, seed=6)
    assert a != b


def test_er_extreme_p():
    assert erdos_renyi_bipartite(5, 5, 0.0, seed=0).n_edges == 0
    assert erdos_renyi_bipartite(5, 5, 1.0, seed=0).n_edges == 25


def test_er_rejects_bad_p():
    with pytest.raises(ValueError, match="p must be"):
        erdos_renyi_bipartite(5, 5, 1.5)


def test_er_sparse_path_edge_count_reasonable():
    # sparse regime uses geometric skipping; expected edges = m·n·p
    g = erdos_renyi_bipartite(200, 200, 0.01, seed=1)
    expected = 200 * 200 * 0.01
    assert 0.5 * expected < g.n_edges < 1.5 * expected


def test_er_dense_path_edge_count_reasonable():
    g = erdos_renyi_bipartite(100, 100, 0.5, seed=1)
    assert 4000 < g.n_edges < 6000


def test_er_zero_sized_side():
    g = erdos_renyi_bipartite(0, 10, 0.5, seed=0)
    assert g.n_edges == 0 and g.n_left == 0


def test_gnm_exact_edge_count():
    for m_edges in (0, 1, 50, 200):
        g = gnm_bipartite(20, 30, m_edges, seed=3)
        assert g.n_edges == m_edges


def test_gnm_dense_request():
    g = gnm_bipartite(5, 5, 25, seed=0)
    assert g.n_edges == 25  # the complete graph


def test_gnm_rejects_too_many_edges():
    with pytest.raises(ValueError, match="n_edges"):
        gnm_bipartite(3, 3, 10)


def test_gnm_determinism():
    assert gnm_bipartite(20, 30, 100, seed=9) == gnm_bipartite(20, 30, 100, seed=9)


def test_chung_lu_respects_target_edges():
    lw = np.full(50, 4.0)
    rw = np.full(80, 2.5)
    g = chung_lu_bipartite(lw, rw, seed=1)
    assert abs(g.n_edges - 200) <= 10  # target = sum(lw) = 200, dedup slack


def test_chung_lu_zero_weights():
    g = chung_lu_bipartite(np.zeros(5), np.ones(5), seed=0)
    assert g.n_edges == 0


def test_chung_lu_rejects_negative_weights():
    with pytest.raises(ValueError, match="non-negative"):
        chung_lu_bipartite(np.array([-1.0]), np.array([1.0]))


def test_chung_lu_rejects_2d_weights():
    with pytest.raises(ValueError, match="1-D"):
        chung_lu_bipartite(np.ones((2, 2)), np.ones(2))


def test_power_law_shapes_and_determinism():
    g = power_law_bipartite(100, 150, 500, seed=11)
    assert g.n_left == 100 and g.n_right == 150
    assert g.n_edges > 400
    assert g == power_law_bipartite(100, 150, 500, seed=11)


def test_power_law_has_degree_skew():
    g = power_law_bipartite(200, 200, 2000, gamma_left=2.0, seed=13)
    d = np.sort(g.degrees_left())[::-1]
    # hub degree well above the mean in a heavy-tailed draw
    assert d[0] > 3 * d.mean()


def test_power_law_rejects_bad_gamma():
    with pytest.raises(ValueError, match="exceed 1"):
        power_law_bipartite(10, 10, 20, gamma_left=1.0)


def test_planted_bicliques_known_butterflies():
    # 2 disjoint K_{3,4}: each contributes C(3,2)*C(4,2) = 3*6 = 18
    g = planted_bicliques(10, 10, 2, 3, 4, background_edges=0, seed=0)
    assert count_butterflies(g) == 36
    assert butterflies_spec(g) == 36


def test_planted_bicliques_with_background_superset():
    base = planted_bicliques(20, 20, 2, 3, 3, background_edges=0, seed=1)
    noisy = planted_bicliques(20, 20, 2, 3, 3, background_edges=30, seed=1)
    assert noisy.n_edges >= base.n_edges
    assert count_butterflies(noisy) >= count_butterflies(base)


def test_planted_bicliques_overflow_rejected():
    with pytest.raises(ValueError, match="do not fit"):
        planted_bicliques(5, 10, 3, 2, 2)


def test_all_generators_produce_valid_structures():
    graphs = [
        erdos_renyi_bipartite(15, 25, 0.2, seed=2),
        gnm_bipartite(15, 25, 80, seed=2),
        power_law_bipartite(15, 25, 80, seed=2),
        planted_bicliques(15, 25, 2, 3, 3, background_edges=10, seed=2),
    ]
    for g in graphs:
        g.csr.validate()
        g.csc.validate()
        assert isinstance(g, BipartiteGraph)
