"""Tests for the blocked per-vertex counts fast path."""

import numpy as np
import pytest

from repro.core import (
    vertex_butterfly_counts_blocked,
    vertex_counts_dense,
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
