"""Property-based tests for the extension subsystems.

Same graph strategy as :mod:`tests.test_properties`, applied to the
loop reference, the dynamic counter and the panelised local-count kernel.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DynamicButterflyCounter,
    butterflies_spec,
    count_butterflies,
    local_counts,
    vertex_butterfly_counts,
    vertex_counts_dense,
)
from repro.graphs import BipartiteGraph
from repro.reference import butterflies_reference

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


@given(g=bipartite_graphs(), invariant=st.integers(1, 8))
@settings(**SETTINGS)
def test_pure_python_reference_equals_spec(g, invariant):
    assert butterflies_reference(g, invariant) == butterflies_spec(g)


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


@given(g=bipartite_graphs(), block=st.integers(1, 16),
       side=st.sampled_from(["left", "right"]))
@settings(**SETTINGS)
def test_blocked_vertex_counts_property(g, block, side):
    # block caps the pivots of one panel
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(local_counts, "_PANEL_PIVOTS", block)
        assert np.array_equal(
            vertex_butterfly_counts(g, side), vertex_counts_dense(g, side)
        )
