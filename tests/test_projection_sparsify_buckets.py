"""Tests for bucket peeling and counting on degree-ordered relabels."""

import numpy as np
import pytest

from repro import engine
from repro.core import count_butterflies, tip_numbers, tip_numbers_bucket_parallel
from repro.graphs import (
    BipartiteGraph,
    order_by_degree,
    order_side_by_degree,
    planted_bicliques,
    power_law_bipartite,
)
from tests.conftest import tiny_named_graphs


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
