"""Tests for the distributional metrics and the blocked counts fast path."""

import numpy as np
import pytest

from repro.core import (
    count_butterflies,
    vertex_butterfly_counts_blocked,
    vertex_counts_dense,
)
from repro.graphs import BipartiteGraph, planted_bicliques, power_law_bipartite
from repro.metrics import (
    butterfly_concentration,
    butterfly_degree_histogram,
    wedge_multiplicity_histogram,
)
from tests.conftest import tiny_named_graphs


# ------------------------------------------------------ blocked fast path
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("block_size", [1, 3, 64, 10_000])
def test_blocked_counts_match_plain(side, block_size, corpus):
    # the dense B = AAᵀ oracle: vertex_butterfly_counts runs the same
    # panel kernel, so comparing against it would prove nothing
    for name, g in corpus:
        plain = vertex_counts_dense(g, side)
        blocked = vertex_butterfly_counts_blocked(g, side, block_size)
        assert np.array_equal(plain, blocked), (name, side, block_size)


def test_blocked_counts_validation():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(ValueError, match="block_size"):
        vertex_butterfly_counts_blocked(g, "left", 0)
    with pytest.raises(ValueError, match="side"):
        vertex_butterfly_counts_blocked(g, "up")


def test_blocked_counts_medium(medium_graph):
    for side in ("left", "right"):
        assert np.array_equal(
            vertex_counts_dense(medium_graph, side),
            vertex_butterfly_counts_blocked(medium_graph, side),
        )


# -------------------------------------------------------------- histograms
def test_butterfly_degree_histogram_k33():
    g = tiny_named_graphs()["k33"]
    assert butterfly_degree_histogram(g, "left") == {6: 3}
    assert butterfly_degree_histogram(g, "right") == {6: 3}


def test_butterfly_degree_histogram_accounts_everyone(corpus):
    for name, g in corpus:
        hist = butterfly_degree_histogram(g, "left")
        assert sum(hist.values()) == g.n_left, name
        total = sum(k * v for k, v in hist.items())
        assert total == 2 * count_butterflies(g), name


def test_wedge_histogram_recovers_count(corpus):
    for name, g in corpus:
        hist = wedge_multiplicity_histogram(g, "left")
        recovered = sum(w * (w - 1) // 2 * freq for w, freq in hist.items())
        assert recovered == count_butterflies(g), name


def test_wedge_histogram_k23():
    g = tiny_named_graphs()["k23"]
    # single left pair with 3 common neighbours
    assert wedge_multiplicity_histogram(g, "left") == {3: 1}


def test_wedge_histogram_empty():
    assert wedge_multiplicity_histogram(BipartiteGraph.empty(4, 4)) == {}


# ----------------------------------------------------------- concentration
def test_concentration_uniform_graph():
    g = BipartiteGraph.complete(4, 4)
    c = butterfly_concentration(g, "left")
    assert c.participation_rate == 1.0
    assert c.hub_ratio == pytest.approx(1.0)
    assert c.half_mass_fraction == pytest.approx(0.5)


def test_concentration_empty_graph():
    c = butterfly_concentration(BipartiteGraph.empty(5, 5))
    assert c.participation_rate == 0.0
    assert c.half_mass_fraction == 0.0
    assert c.hub_ratio == 0.0


def test_concentration_skewed_vs_planted():
    """A hub-heavy power-law graph concentrates butterfly mass on fewer
    vertices than a uniform planted-clique graph."""
    skewed = power_law_bipartite(200, 200, 1600, gamma_left=2.0, seed=3)
    uniform = planted_bicliques(200, 200, 10, 4, 4, background_edges=0, seed=3)
    cs = butterfly_concentration(skewed)
    cu = butterfly_concentration(uniform)
    assert cs.half_mass_fraction < cu.half_mass_fraction
    assert cs.hub_ratio > cu.hub_ratio


def test_concentration_bounds(corpus):
    for name, g in corpus:
        c = butterfly_concentration(g, "left")
        assert 0.0 <= c.participation_rate <= 1.0, name
        assert 0.0 <= c.half_mass_fraction <= 1.0, name
        assert c.hub_ratio >= 0.0, name
