"""Property-based tests (hypothesis) over random bipartite graphs.

These encode the paper's invariants as universally-quantified properties:
agreement of every algorithm with the specification, invariance under
relabeling/transposition, the category-sum decompositions, and the
structural identities tying total, per-vertex and per-edge counts together.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    butterflies_spec,
    count_butterflies_blocked,
    count_butterflies_unblocked,
    edge_butterfly_support,
    k_tip,
    k_wing,
    vertex_butterfly_counts,
)
from repro.core.spec import partitioned_spec_columns, partitioned_spec_rows
from repro.graphs import BipartiteGraph
from repro.sparsela import PatternCSC, PatternCSR, gather_slices

SETTINGS = dict(max_examples=40, deadline=None)


@st.composite
def bipartite_graphs(draw, max_left=12, max_right=12):
    """Random small bipartite graphs, including empty and dense corners."""
    m = draw(st.integers(0, max_left))
    n = draw(st.integers(0, max_right))
    if m == 0 or n == 0:
        return BipartiteGraph.empty(m, n)
    density = draw(st.floats(0.0, 1.0))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    dense = rng.random((m, n)) < density
    return BipartiteGraph.from_biadjacency(dense.astype(int))


@given(g=bipartite_graphs(), number=st.integers(1, 8),
       strategy=st.sampled_from(["scratch", "spmv"]))
@settings(**SETTINGS)
def test_every_member_equals_spec(g, number, strategy):
    assert count_butterflies_unblocked(g, number, strategy=strategy) == (
        butterflies_spec(g)
    )


@given(g=bipartite_graphs(), number=st.integers(1, 8),
       block=st.integers(1, 20))
@settings(**SETTINGS)
def test_blocked_equals_spec(g, number, block):
    assert count_butterflies_blocked(g, number, block_size=block) == (
        butterflies_spec(g)
    )


@given(g=bipartite_graphs(), seed=st.integers(0, 10**6))
@settings(**SETTINGS)
def test_label_invariance(g, seed):
    rng = np.random.default_rng(seed)
    relabeled = g.relabel(
        left_perm=rng.permutation(g.n_left),
        right_perm=rng.permutation(g.n_right),
    )
    assert butterflies_spec(relabeled) == butterflies_spec(g)


@given(g=bipartite_graphs())
@settings(**SETTINGS)
def test_transpose_invariance(g):
    assert butterflies_spec(g.swap_sides()) == butterflies_spec(g)


@given(g=bipartite_graphs(), data=st.data())
@settings(**SETTINGS)
def test_partition_category_sums(g, data):
    total = butterflies_spec(g)
    cs = data.draw(st.integers(0, g.n_right))
    rs = data.draw(st.integers(0, g.n_left))
    assert sum(partitioned_spec_columns(g, cs)) == total
    assert sum(partitioned_spec_rows(g, rs)) == total


@given(g=bipartite_graphs())
@settings(**SETTINGS)
def test_vertex_counts_sum_identity(g):
    total = butterflies_spec(g)
    assert int(vertex_butterfly_counts(g, "left").sum()) == 2 * total
    assert int(vertex_butterfly_counts(g, "right").sum()) == 2 * total


@given(g=bipartite_graphs())
@settings(**SETTINGS)
def test_edge_support_sum_identity(g):
    assert int(edge_butterfly_support(g).sum()) == 4 * butterflies_spec(g)


@given(g=bipartite_graphs(), data=st.data())
@settings(**SETTINGS)
def test_adding_edge_is_monotone(g, data):
    if g.n_left == 0 or g.n_right == 0:
        return
    u = data.draw(st.integers(0, g.n_left - 1))
    v = data.draw(st.integers(0, g.n_right - 1))
    edges = [tuple(e) for e in g.edges()] + [(u, v)]
    bigger = BipartiteGraph(edges, n_left=g.n_left, n_right=g.n_right)
    assert butterflies_spec(bigger) >= butterflies_spec(g)


@given(g=bipartite_graphs(), k=st.integers(0, 12))
@settings(**SETTINGS)
def test_tip_fixpoint_and_nesting(g, k):
    res = k_tip(g, k)
    counts = vertex_butterfly_counts(res.subgraph, "left")
    assert (counts[res.kept] >= k).all()
    inner = k_tip(g, k + 1)
    assert (inner.kept <= res.kept).all()


@given(g=bipartite_graphs(), k=st.integers(0, 6))
@settings(**SETTINGS)
def test_wing_fixpoint(g, k):
    res = k_wing(g, k)
    if res.subgraph.n_edges:
        assert (edge_butterfly_support(res.subgraph) >= k).all()


@given(g=bipartite_graphs())
@settings(**SETTINGS)
def test_format_roundtrips(g):
    dense = g.biadjacency_dense()
    csr = PatternCSR.from_dense(dense)
    csc = PatternCSC.from_dense(dense)
    assert np.array_equal(csr.to_csc().to_dense(), dense)
    assert np.array_equal(csc.to_csr().to_dense(), dense)
    assert csr.to_coo() == csc.to_coo()


@given(g=bipartite_graphs(), data=st.data())
@settings(**SETTINGS)
def test_gather_slices_property(g, data):
    csr = g.csr
    if g.n_left == 0:
        return
    ids = data.draw(
        st.lists(st.integers(0, g.n_left - 1), min_size=0, max_size=20)
    )
    got = gather_slices(csr.indptr, csr.indices, np.array(ids, dtype=np.int64))
    expected = []
    for i in ids:
        expected.extend(csr.row(i).tolist())
    assert got.tolist() == expected


@given(g=bipartite_graphs())
@settings(**SETTINGS)
def test_wedge_pair_identity(g):
    """Ξ = Σ_{i<j} C(B_ij, 2) computed straight from the dense wedge matrix
    must match the family — the definitional anchor of everything."""
    a = g.biadjacency_dense()
    b = a @ a.T
    total = 0
    for i in range(g.n_left):
        for j in range(i + 1, g.n_left):
            total += int(b[i, j]) * (int(b[i, j]) - 1) // 2
    assert count_butterflies_unblocked(g, 2) == total
