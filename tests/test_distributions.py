"""Tests for the panelised fixed-side per-vertex counts.

``vertex_butterfly_counts`` is the per-vertex oracle the tip
decomposition and the priority kernel's tests read, so it is checked
here against the dense B = AAᵀ oracle, at several panel widths.
"""

import numpy as np
import pytest

from repro.core import local_counts, vertex_butterfly_counts, vertex_counts_dense
from tests.conftest import tiny_named_graphs


# ------------------------------------------------------ panel splits
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("block_size", [1, 3, 64, 10_000])
def test_blocked_counts_match_plain(side, block_size, corpus, monkeypatch):
    # block_size caps the pivots of one panel (128 unpatched)
    monkeypatch.setattr(local_counts, "_PANEL_PIVOTS", block_size)
    for name, g in corpus:
        plain = vertex_counts_dense(g, side)
        blocked = vertex_butterfly_counts(g, side)
        assert np.array_equal(plain, blocked), (name, side, block_size)


def test_blocked_counts_validation():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(ValueError, match="side"):
        vertex_butterfly_counts(g, "up")


def test_blocked_counts_medium(medium_graph):
    # 400 x 600 pivots: several 128-pivot panels on either side
    assert local_counts._PANEL_PIVOTS < min(medium_graph.shape)
    for side in ("left", "right"):
        assert np.array_equal(
            vertex_counts_dense(medium_graph, side),
            vertex_butterfly_counts(medium_graph, side),
        )
