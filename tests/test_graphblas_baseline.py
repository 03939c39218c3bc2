"""Tests for the GraphBLAS-style counting pipeline."""

import numpy as np

from repro.baselines import (
    count_butterflies_graphblas,
    count_butterflies_scipy,
    wedge_matrix_graphblas,
)
from repro.core import count_butterflies
from tests.conftest import TINY_EXPECTED


def test_graphblas_on_hand_verified(tiny_graphs):
    for name, g in tiny_graphs.items():
        assert count_butterflies_graphblas(g) == TINY_EXPECTED[name], name


def test_graphblas_matches_family_on_corpus(corpus):
    for name, g in corpus:
        assert count_butterflies_graphblas(g) == count_butterflies(g), name


def test_graphblas_wedge_matrix_matches_dense(corpus):
    for name, g in corpus[:5]:
        a = g.biadjacency_dense()
        b = wedge_matrix_graphblas(g)
        assert np.array_equal(b.to_dense(), a @ a.T), name


def test_graphblas_matches_scipy_on_medium(medium_graph):
    assert count_butterflies_graphblas(medium_graph) == (
        count_butterflies_scipy(medium_graph)
    )


def test_graphblas_empty_graph():
    from repro.graphs import BipartiteGraph

    assert count_butterflies_graphblas(BipartiteGraph.empty(3, 7)) == 0
