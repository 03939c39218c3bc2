"""Property-based tests for the extension subsystems.

Same graph strategy as :mod:`tests.test_properties`, applied to the
semiring layer, enumeration, the dynamic counter, projections,
sparsification, and the blocked local-count kernel.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    count_butterflies_graphblas,
    sparsify_bernoulli,
    sparsify_colorful,
)
from repro.core import (
    DynamicButterflyCounter,
    butterflies_spec,
    count_butterflies,
    iter_butterflies,
    vertex_butterfly_counts_blocked,
    vertex_counts_dense,
)
from repro.graphs import BipartiteGraph, count_from_projection, is_butterfly_free
from repro.reference import butterflies_reference
from repro.sparsela import PatternCSR
from repro.sparsela.semiring import PLUS_PAIR, PLUS_TIMES, gram, mxm

SETTINGS = dict(max_examples=30, deadline=None)


@st.composite
def bipartite_graphs(draw, max_left=10, max_right=10):
    m = draw(st.integers(0, max_left))
    n = draw(st.integers(0, max_right))
    if m == 0 or n == 0:
        return BipartiteGraph.empty(m, n)
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return BipartiteGraph.from_biadjacency(
        (rng.random((m, n)) < density).astype(int)
    )


@given(g=bipartite_graphs())
@settings(**SETTINGS)
def test_gram_equals_dense_product(g):
    a = g.biadjacency_dense()
    if a.size == 0:
        return
    assert np.array_equal(gram(PatternCSR.from_dense(a)).to_dense(), a @ a.T)


@given(g=bipartite_graphs(), seed=st.integers(0, 10**6))
@settings(**SETTINGS)
def test_mxm_matches_dense_for_random_pairs(g, seed):
    a = g.biadjacency_dense()
    if a.size == 0:
        return
    rng = np.random.default_rng(seed)
    b = (rng.random((g.n_right, 7)) < 0.5).astype(int)
    got = mxm(PatternCSR.from_dense(a), PatternCSR.from_dense(b), PLUS_TIMES)
    assert np.array_equal(got.to_dense(), a @ b)


@given(g=bipartite_graphs())
@settings(**SETTINGS)
def test_graphblas_pipeline_equals_spec(g):
    assert count_butterflies_graphblas(g) == butterflies_spec(g)


@given(g=bipartite_graphs(), invariant=st.integers(1, 8))
@settings(**SETTINGS)
def test_pure_python_reference_equals_spec(g, invariant):
    assert butterflies_reference(g, invariant) == butterflies_spec(g)


@given(g=bipartite_graphs())
@settings(**SETTINGS)
def test_enumeration_count_and_uniqueness(g):
    bfs = list(iter_butterflies(g))
    assert len(bfs) == butterflies_spec(g)
    assert len(set(bfs)) == len(bfs)
    for u, w, v, y in bfs:
        assert u < w and v < y
        a = g.biadjacency_dense()
        assert a[u, v] and a[u, y] and a[w, v] and a[w, y]


@given(g=bipartite_graphs(), seed=st.integers(0, 10**6))
@settings(**SETTINGS)
def test_dynamic_replay_reaches_same_state(g, seed):
    rng = np.random.default_rng(seed)
    edges = [tuple(map(int, e)) for e in g.edges()]
    rng.shuffle(edges)
    dc = DynamicButterflyCounter(BipartiteGraph.empty(g.n_left, g.n_right))
    dc.add_edges(edges)
    assert dc.count == butterflies_spec(g)
    # tear half down, cross-check against recount
    dc.remove_edges(edges[: len(edges) // 2])
    assert dc.count == count_butterflies(dc.to_graph())


@given(g=bipartite_graphs())
@settings(**SETTINGS)
def test_projection_recovers_count(g):
    assert count_from_projection(g, "left") == butterflies_spec(g)
    assert count_from_projection(g, "right") == butterflies_spec(g)


@given(g=bipartite_graphs())
@settings(**SETTINGS)
def test_butterfly_free_agrees_with_count(g):
    assert is_butterfly_free(g) == (butterflies_spec(g) == 0)


@given(g=bipartite_graphs(), block=st.integers(1, 16),
       side=st.sampled_from(["left", "right"]))
@settings(**SETTINGS)
def test_blocked_vertex_counts_property(g, block, side):
    assert np.array_equal(
        vertex_butterfly_counts_blocked(g, side, block),
        vertex_counts_dense(g, side),
    )


@given(g=bipartite_graphs(), p=st.floats(0.1, 1.0), seed=st.integers(0, 10**6))
@settings(**SETTINGS)
def test_bernoulli_sparsifier_is_subgraph(g, p, seed):
    sub = sparsify_bernoulli(g, p, seed)
    edges_g = {tuple(map(int, e)) for e in g.edges()}
    edges_s = {tuple(map(int, e)) for e in sub.edges()}
    assert edges_s <= edges_g
    assert butterflies_spec(sub) <= butterflies_spec(g)


@given(g=bipartite_graphs(), colors=st.integers(1, 4), seed=st.integers(0, 10**6))
@settings(**SETTINGS)
def test_colorful_sparsifier_is_subgraph(g, colors, seed):
    sub = sparsify_colorful(g, colors, seed)
    edges_g = {tuple(map(int, e)) for e in g.edges()}
    edges_s = {tuple(map(int, e)) for e in sub.edges()}
    assert edges_s <= edges_g
