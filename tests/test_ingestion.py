"""Edge arrays reach CSR/CSC in vectorised O(E) passes, sorting only when needed.

The property test pins the fast path to two independent references: the
pure-Python tuple route into :class:`BipartiteGraph` and a ``scipy.sparse``
build of the same edges.  The guard tests pin that the fast path is
structural: a canonical int64 edge array gets to CSR without any sort and
without materialising the edges as Python objects.
"""

import builtins

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs import BipartiteGraph, gnm_bipartite
from repro.sparsela import PatternCOO, compress_pairs

ARRANGEMENTS = ("shuffled", "duplicated", "sorted", "sorted_dups", "empty", "single")


@st.composite
def edge_arrays(draw):
    """``(edges, m, n)``: an int64 ``(e, 2)`` array in one of six arrangements."""
    m = draw(st.integers(1, 40))
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(ARRANGEMENTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    e = {"empty": 0, "single": 1}.get(kind, draw(st.integers(1, 2 * m * n)))
    edges = np.stack(
        [rng.integers(0, m, size=e), rng.integers(0, n, size=e)], axis=1
    ).astype(np.int64)
    if kind == "duplicated":
        edges = edges[rng.integers(0, e, size=2 * e)]
    elif kind == "sorted":
        edges = np.unique(edges, axis=0)
    elif kind == "sorted_dups":
        edges = np.repeat(np.unique(edges, axis=0), rng.integers(1, 4), axis=0)
    return edges.reshape(-1, 2), m, n


def _scipy_pattern(edges, m, n, fmt):
    ref = sp.coo_matrix(
        (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(m, n)
    ).asformat(fmt)
    ref.sum_duplicates()
    ref.sort_indices()
    return ref


@given(case=edge_arrays())
@settings(max_examples=150, deadline=None)
def test_array_route_matches_tuple_route_and_scipy(case):
    edges, m, n = case
    g = BipartiteGraph(edges, n_left=m, n_right=n)
    assert g == BipartiteGraph([tuple(r) for r in edges.tolist()], n_left=m, n_right=n)
    assert g.coo.is_canonical()
    for view, fmt in ((g.csr, "csr"), (g.csc, "csc")):
        ref = _scipy_pattern(edges, m, n, fmt)
        assert view.shape == (m, n)
        np.testing.assert_array_equal(view.indptr, ref.indptr)
        np.testing.assert_array_equal(view.indices, ref.indices)
        view.validate()


@given(case=edge_arrays())
@settings(max_examples=60, deadline=None)
def test_inferred_shape_matches_tuple_route(case):
    edges, _, _ = case
    assert BipartiteGraph(edges) == BipartiteGraph([tuple(r) for r in edges.tolist()])


# ------------------------------------------------------------ structural guards
def _forbid_sorts_and_lists(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("sorted input must not be sorted or listed")

    for name in ("argsort", "sort", "lexsort"):
        monkeypatch.setattr(np, name, forbidden)
    monkeypatch.setattr(builtins, "list", forbidden)


def test_canonical_array_reaches_csr_without_sort_or_list(monkeypatch):
    g0 = gnm_bipartite(40, 50, 600, seed=1)
    edges = g0.edges()
    assert edges.dtype == np.int64
    _forbid_sorts_and_lists(monkeypatch)
    g = BipartiteGraph(edges, n_left=40, n_right=50)
    csr = g.csr
    monkeypatch.undo()
    np.testing.assert_array_equal(csr.indptr, g0.csr.indptr)
    np.testing.assert_array_equal(csr.indices, g0.csr.indices)


def test_sorted_input_with_repeats_merges_without_sort(monkeypatch):
    edges = np.array([[0, 1], [0, 1], [0, 3], [2, 0], [2, 0], [2, 0]])
    _forbid_sorts_and_lists(monkeypatch)
    g = BipartiteGraph(edges, n_left=3, n_right=4)
    indptr, indices = compress_pairs(edges[:, 0], edges[:, 1], 3, 4)
    monkeypatch.undo()
    assert g.edges().tolist() == [[0, 1], [0, 3], [2, 0]]
    assert indptr.tolist() == [0, 2, 2, 3] and indices.tolist() == [1, 3, 0]


def test_canonical_coo_is_returned_as_is():
    coo = gnm_bipartite(10, 12, 40, seed=2).coo
    assert coo.canonicalize() is coo
    shuffled = PatternCOO(coo.rows[::-1], coo.cols[::-1], coo.shape)
    assert shuffled.canonicalize() == coo


def test_oversized_shape_is_rejected_not_overflowed():
    rows = np.array([1, 0], dtype=np.int64)
    with pytest.raises(ValueError, match="int64"):
        PatternCOO(rows, rows, (2**32, 2**32)).canonicalize()


# ------------------------------------------------------------- integral ids
@pytest.mark.parametrize(
    "edges, bad_row",
    [
        (np.array([[0.7, 1.9], [1.2, 0.4]]), 0),
        (np.array([[0.0, 1.0], [1.0, 0.5]]), 1),
        (np.array([[0.0, np.nan]]), 0),
        (np.array([[0.0, np.inf]]), 0),
        (np.array([[0.0, 1e19]]), 0),
        (np.array([[True, False]]), 0),
        ([(0.7, 1.9)], 0),
        ([(0, 1), (2, 3.5)], 1),
        ([(True, False)], 0),
        ([("a", "b")], 0),
    ],
    ids=["float-array", "second-row", "nan", "inf", "too-big", "bool-array",
         "float-tuple", "mixed-tuples", "bool-tuple", "text"],
)
def test_non_integral_ids_rejected_naming_the_row(edges, bad_row):
    with pytest.raises(ValueError, match=f"must be integers.*row {bad_row}"):
        BipartiteGraph(edges)


@pytest.mark.parametrize(
    "edges",
    [
        np.array([[0.0, 1.0], [2.0, 0.0]]),
        [(0.0, 1.0), (2, 0)],
        np.array([[0, 1], [2, 0]], dtype=np.uint8),
    ],
    ids=["float-array", "float-tuples", "uint8"],
)
def test_integral_ids_of_any_numeric_dtype_accepted(edges):
    g = BipartiteGraph(edges)
    assert g.edges().tolist() == [[0, 1], [2, 0]]
    assert g.edges().dtype == np.int64


def test_relabel_rejects_wrong_length():
    g = BipartiteGraph([(0, 0), (1, 1)])
    with pytest.raises(ValueError, match="permutation"):
        g.relabel(left_perm=np.array([1, 0, 2]))
    with pytest.raises(ValueError, match="permutation"):
        g.relabel(right_perm=np.array([0]))
