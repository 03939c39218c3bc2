"""Tests for the independent baselines (oracle cross-checks)."""

import numpy as np

from repro.baselines import (
    count_butterflies_bruteforce,
    count_butterflies_degree_ordered,
    count_butterflies_networkx,
    count_butterflies_scipy,
    enumerate_butterflies,
    wedge_matrix_scipy,
)
from repro.core import count_butterflies, priority_ranks
from tests.conftest import TINY_EXPECTED, tiny_named_graphs


# ------------------------------------------------------------ brute force
def test_bruteforce_on_hand_verified(tiny_graphs):
    for name, g in tiny_graphs.items():
        assert count_butterflies_bruteforce(g) == TINY_EXPECTED[name], name


def test_networkx_on_hand_verified(tiny_graphs):
    for name, g in tiny_graphs.items():
        assert count_butterflies_networkx(g) == TINY_EXPECTED[name], name


def test_enumerate_butterflies_k23():
    g = tiny_named_graphs()["k23"]
    bfs = list(enumerate_butterflies(g))
    assert len(bfs) == 3
    # canonical ordering within each tuple
    for u, w, v, y in bfs:
        assert u < w and v < y


def test_enumeration_consistent_with_count(tiny_graphs):
    for name, g in tiny_graphs.items():
        assert len(list(enumerate_butterflies(g))) == TINY_EXPECTED[name], name


# ------------------------------------------------------------------ scipy
def test_scipy_counter_on_corpus(corpus):
    for name, g in corpus:
        assert count_butterflies_scipy(g) == count_butterflies(g), name


def test_wedge_matrix_symmetry(medium_graph):
    b = wedge_matrix_scipy(medium_graph)
    assert (b != b.T).nnz == 0


def test_wedge_matrix_diagonal_is_degree(medium_graph):
    b = wedge_matrix_scipy(medium_graph)
    assert np.array_equal(b.diagonal(), medium_graph.degrees_left())


# -------------------------------------------------------- vertex priority
def test_priority_ranks_are_a_permutation(medium_graph):
    rl, rr = priority_ranks(medium_graph)
    allr = np.concatenate([rl, rr])
    assert sorted(allr.tolist()) == list(range(len(allr)))


def test_priority_ranks_respect_degree(medium_graph):
    rl, _ = priority_ranks(medium_graph)
    dl = medium_graph.degrees_left()
    hub = int(np.argmax(dl))
    leaf = int(np.argmin(dl))
    assert rl[hub] > rl[leaf]


# --------------------------------------------------------- degree ordered
def test_degree_ordered_on_tiny(tiny_graphs):
    for name, g in tiny_graphs.items():
        for side in ("left", "right", None):
            assert count_butterflies_degree_ordered(g, side) == (
                TINY_EXPECTED[name]
            ), (name, side)


