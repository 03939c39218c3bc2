"""Tests for one-mode projection, sparsification estimators, bucket
peeling, and counting on degree-ordered relabels."""

import numpy as np
import pytest

from repro import engine
from repro.baselines import (
    estimate_butterflies_cspar,
    estimate_butterflies_espar,
    sparsify_bernoulli,
    sparsify_colorful,
)
from repro.core import count_butterflies, tip_numbers, tip_numbers_bucket_parallel
from repro.graphs import (
    BipartiteGraph,
    count_from_projection,
    gnm_bipartite,
    is_butterfly_free,
    order_by_degree,
    order_side_by_degree,
    planted_bicliques,
    power_law_bipartite,
    project,
)
from tests.conftest import TINY_EXPECTED, tiny_named_graphs


# -------------------------------------------------------------- projection
def test_projection_weights_are_common_neighbours():
    g = tiny_named_graphs()["k23"]
    proj = project(g, "left")
    assert proj == {(0, 1): 3}


def test_projection_min_weight_filter(corpus):
    name, g = corpus[0]
    all_pairs = project(g, "left", min_weight=1)
    heavy = project(g, "left", min_weight=2)
    assert set(heavy) <= set(all_pairs)
    assert all(w >= 2 for w in heavy.values())


def test_projection_min_weight_validation():
    g = tiny_named_graphs()["k23"]
    with pytest.raises(ValueError, match="min_weight"):
        project(g, "left", min_weight=0)


def test_count_from_projection_both_sides(corpus):
    for name, g in corpus:
        expected = count_butterflies(g)
        assert count_from_projection(g, "left") == expected, name
        assert count_from_projection(g, "right") == expected, name


def test_count_from_projection_tiny(tiny_graphs):
    for name, g in tiny_graphs.items():
        assert count_from_projection(g) == TINY_EXPECTED[name], name


def test_is_butterfly_free(tiny_graphs):
    for name, g in tiny_graphs.items():
        assert is_butterfly_free(g) == (TINY_EXPECTED[name] == 0), name


def test_is_butterfly_free_on_corpus(corpus):
    for name, g in corpus:
        assert is_butterfly_free(g) == (count_butterflies(g) == 0), name


# ------------------------------------------------------------ sparsifiers
def test_bernoulli_sparsify_extremes():
    g = gnm_bipartite(10, 10, 40, seed=1)
    assert sparsify_bernoulli(g, 1.0, seed=0) == g
    assert sparsify_bernoulli(g, 0.0, seed=0).n_edges == 0


def test_bernoulli_sparsify_subset():
    g = gnm_bipartite(20, 20, 150, seed=2)
    sub = sparsify_bernoulli(g, 0.5, seed=3)
    edges_g = {tuple(e) for e in map(tuple, g.edges())}
    edges_s = {tuple(e) for e in map(tuple, sub.edges())}
    assert edges_s <= edges_g
    assert sub.shape == g.shape


def test_colorful_sparsify_one_color_is_identity():
    g = gnm_bipartite(10, 10, 40, seed=1)
    assert sparsify_colorful(g, 1, seed=0) == g


def test_colorful_sparsify_keeps_monochromatic_edges_only():
    g = gnm_bipartite(15, 15, 80, seed=4)
    n_colors = 3
    seed = 7
    sub = sparsify_colorful(g, n_colors, seed=seed)
    rng = np.random.default_rng(seed)
    cl = rng.integers(0, n_colors, size=g.n_left)
    cr = rng.integers(0, n_colors, size=g.n_right)
    expected = {
        (int(u), int(v)) for u, v in g.edges() if cl[u] == cr[v]
    }
    assert {tuple(map(int, e)) for e in sub.edges()} == expected


def test_espar_exact_at_p1():
    g = gnm_bipartite(15, 15, 90, seed=5)
    est = estimate_butterflies_espar(g, 1.0, seed=0)
    assert est.estimate == count_butterflies(g)


def test_cspar_exact_at_one_color():
    g = gnm_bipartite(15, 15, 90, seed=5)
    est = estimate_butterflies_cspar(g, 1, seed=0)
    assert est.estimate == count_butterflies(g)


def test_espar_unbiased_over_seeds():
    g = power_law_bipartite(40, 50, 300, seed=6)
    exact = count_butterflies(g)
    mean = np.mean(
        [estimate_butterflies_espar(g, 0.7, seed=s).estimate for s in range(60)]
    )
    assert abs(mean - exact) / exact < 0.2


def test_cspar_unbiased_over_seeds():
    g = power_law_bipartite(40, 50, 300, seed=6)
    exact = count_butterflies(g)
    mean = np.mean(
        [estimate_butterflies_cspar(g, 2, seed=s).estimate for s in range(80)]
    )
    assert abs(mean - exact) / exact < 0.35  # higher variance estimator


def test_sparsifier_validation():
    g = gnm_bipartite(5, 5, 10, seed=0)
    with pytest.raises(ValueError, match="p must"):
        sparsify_bernoulli(g, 1.5)
    with pytest.raises(ValueError, match="p must"):
        estimate_butterflies_espar(g, 0.0)
    with pytest.raises(ValueError, match="n_colors"):
        sparsify_colorful(g, 0)
    with pytest.raises(ValueError, match="n_colors"):
        estimate_butterflies_cspar(g, 0)


# ---------------------------------------------------------- bucket peeling
def test_bucket_tip_numbers_match_heap(corpus):
    for name, g in corpus:
        for side in ("left", "right"):
            assert np.array_equal(
                tip_numbers_bucket_parallel(g, side, n_workers=1),
                tip_numbers(g, side),
            ), (name, side)


def test_bucket_tip_numbers_right_side():
    g = planted_bicliques(12, 12, 2, 3, 4, background_edges=10, seed=2)
    assert np.array_equal(
        tip_numbers_bucket_parallel(g, "right", n_workers=1),
        tip_numbers(g, "right"),
    )


def test_bucket_tip_numbers_bad_side():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(ValueError, match="side"):
        tip_numbers_bucket_parallel(g, "diagonal", n_workers=1)


def test_bucket_tip_numbers_empty_graph():
    got = tip_numbers_bucket_parallel(BipartiteGraph.empty(4, 4), n_workers=1)
    assert got.tolist() == [0] * 4


# ------------------------------------------------ degree-ordered relabels
def test_count_with_degree_ordering(corpus):
    for name, g in corpus[:6]:
        expected = count_butterflies(g)
        for descending in (False, True):
            relabeled = order_by_degree(g, descending=descending)
            assert count_butterflies(relabeled) == expected, (name, descending)


def test_count_ordering_with_explicit_invariant():
    g = power_law_bipartite(30, 40, 180, seed=9)
    expected = count_butterflies(g)
    for inv in (1, 4, 5, 8):  # both traversed sides, both references
        pinned = engine.plan(
            g, "count", invariant=inv, strategy="scratch", executor="serial"
        )
        # relabel the side this member traverses (columns for 1-4)
        side = "right" if inv <= 4 else "left"
        relabeled = order_side_by_degree(g, side)
        assert count_butterflies(relabeled, plan=pinned) == expected, inv
