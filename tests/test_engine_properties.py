"""Property test: every pin combination ``engine.plan`` accepts executes.

For small random graphs — including an empty side and stars — and random
pins over workload, invariant, strategy, executor, layout, block size,
workers and side, :func:`repro.engine.plan` either rejects the pins with
``ValueError`` or returns a plan that :func:`repro.engine.execute` runs
to the brute-force answer.  The oracles work from the dense biadjacency
matrix alone, so they share no code with the planner or the kernels.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.engine.plan import COUNT_STRATEGIES, LAYOUTS
from repro.graphs import BipartiteGraph
from repro.reference import k_tip_reference


@st.composite
def dense_graphs(draw) -> np.ndarray:
    """0/1 biadjacency matrices: random, one empty side, or a star."""
    kind = draw(st.sampled_from(["random", "empty-side", "star"]))
    if kind == "empty-side":
        n = draw(st.integers(0, 5))
        return np.zeros((0, n) if draw(st.booleans()) else (n, 0), dtype=int)
    if kind == "star":
        leaves = draw(st.integers(1, 8))
        star = np.ones((1, leaves), dtype=int)
        return star if draw(st.booleans()) else star.T
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    density = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    return (rng.random((m, n)) < density).astype(int)


def _vertex_counts(dense: np.ndarray, side: str) -> list[int]:
    """Butterflies through each vertex of ``side``, by pairwise overlap."""
    rows = dense if side == "left" else dense.T
    neighbours = [set(np.flatnonzero(row)) for row in rows]
    counts = [0] * len(neighbours)
    for u, v in combinations(range(len(neighbours)), 2):
        common = len(neighbours[u] & neighbours[v])
        shared = common * (common - 1) // 2
        counts[u] += shared
        counts[v] += shared
    return counts


pins = st.fixed_dictionaries({
    "invariant": st.sampled_from([None, *range(1, 9)]),
    "strategy": st.sampled_from([None, *COUNT_STRATEGIES]),
    "executor": st.sampled_from([None, "serial", "shared"]),
    "layout": st.sampled_from([None, *LAYOUTS]),
    "block_size": st.sampled_from([None, 1, 3, 64]),
    "workers": st.sampled_from([None, 1, 2]),
})


@given(
    dense=dense_graphs(),
    workload=st.sampled_from(["count", "vertex-counts", "tip"]),
    pinned=pins,
    side=st.sampled_from(["left", "right"]),
    k=st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_accepted_pins_execute_to_the_oracle(dense, workload, pinned, side, k):
    g = (
        BipartiteGraph.from_biadjacency(dense)
        if dense.size
        else BipartiteGraph.empty(*dense.shape)
    )
    extra = {} if workload == "count" else {"side": side}
    if workload == "tip":
        extra["k"] = k
    try:
        the_plan = engine.plan(g, workload, **pinned, **extra)
    except ValueError:
        return  # the planner refused the pins up front: also a valid answer
    result = engine.execute(the_plan, g)
    if workload == "count":
        assert result == sum(_vertex_counts(dense, "left")) // 2
    elif workload == "vertex-counts":
        assert the_plan.side == side
        assert list(result) == _vertex_counts(dense, side)
    else:
        assert list(result.kept) == k_tip_reference(g, k, side=side)
