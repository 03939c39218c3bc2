"""Differential conformance matrix: every algorithm family cell agrees.

The matrix crosses

- all 8 loop invariants (paper Fig. 5 / Fig. 6),
- two storage layouts ("csr" runs the graph as given; "csc" runs the
  side-swapped graph with the transpose-mapped invariant i <-> i±4, which
  exercises the opposite compressed axis for the same logical graph),
- three executor cells: the serial in-process decomposition, a cold
  process pool (a cell-owned :class:`~repro.parallel.ButterflyExecutor`
  that starts, publishes and tears down per cell) and the warm
  process-wide shared-memory pool behind ``executor="shared"``, and
- six structurally distinct graph shapes, including the degenerate ones
  (empty, star) that historically break boundary arithmetic.

Every cell must produce the *identical* global count, and the per-edge
support sweep (the kernel of ``k_wing``'s rounds and of the wing peel's
supports and recounts, in-process) must
match the reference element-wise at two panel widths.  8 x 2 x 3 x 6 = 288 global cells plus the
per-vertex and per-edge blocks: > 250 parametrized cases.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import engine
from repro.core import (
    count_butterflies,
    count_butterflies_parallel,
    edge_butterfly_support,
    edge_butterfly_support_blocked,
    vertex_butterfly_counts,
)
from repro.graphs import (
    BipartiteGraph,
    erdos_renyi_bipartite,
    planted_bicliques,
    power_law_bipartite,
)
from repro.parallel import ButterflyExecutor

@pytest.fixture(scope="module", autouse=True)
def _retire_shared_executors():
    """Leave no warm default executor (and no published /dev/shm segment)
    behind — the sharedmem suite asserts segment-leak-freedom globally."""
    yield
    from repro.parallel import shutdown_default_executors

    shutdown_default_executors()


INVARIANTS = list(range(1, 9))
LAYOUTS = ("csr", "csc")
EXECUTORS = ("serial", "process", "shared")
N_WORKERS = 2


def _graphs() -> dict[str, BipartiteGraph]:
    return {
        "empty": BipartiteGraph.empty(6, 8),
        "star": BipartiteGraph([(0, j) for j in range(8)], n_left=1, n_right=8),
        "complete": BipartiteGraph.complete(4, 5),
        "er": erdos_renyi_bipartite(25, 30, 0.15, seed=101),
        "powerlaw": power_law_bipartite(40, 50, 250, seed=102),
        "planted": planted_bicliques(
            24, 24, 2, 4, 4, background_edges=30, seed=103
        ),
    }


GRAPHS = _graphs()

#: Reference counts, computed once with the default sequential counter
#: (itself pinned against brute force by tests/test_counting.py).
REFERENCE = {name: count_butterflies(g) for name, g in GRAPHS.items()}

#: invariant i on G  ==  invariant i±4 on G with sides swapped
TRANSPOSE_MAP = {i: ((i + 3) % 8) + 1 for i in INVARIANTS}


def _count(g: BipartiteGraph, executor: str, **kwargs) -> int:
    """One global count through an executor cell; ``"process"`` is a
    cold pool owned by the cell, the others are the public executors."""
    if executor == "process":
        with ButterflyExecutor(n_workers=N_WORKERS) as ex:
            return ex.count(g, **kwargs)
    return count_butterflies_parallel(
        g, n_workers=N_WORKERS, executor=executor, **kwargs
    )


def _cell(graph_name: str, invariant: int, layout: str, executor: str) -> int:
    g = GRAPHS[graph_name]
    if layout == "csc":
        g = g.swap_sides()
        invariant = TRANSPOSE_MAP[invariant]
    return _count(g, executor, invariant=invariant)


def test_transpose_map_is_an_involution():
    assert sorted(TRANSPOSE_MAP.values()) == INVARIANTS
    for i in INVARIANTS:
        assert TRANSPOSE_MAP[TRANSPOSE_MAP[i]] == i
        assert (i <= 4) != (TRANSPOSE_MAP[i] <= 4)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("invariant", INVARIANTS)
@pytest.mark.parametrize("executor", EXECUTORS)
def test_global_count_conformance(graph_name, layout, invariant, executor):
    got = _cell(graph_name, invariant, layout, executor)
    assert got == REFERENCE[graph_name], (
        f"cell (graph={graph_name}, inv={invariant}, layout={layout}, "
        f"executor={executor}) = {got}, reference = {REFERENCE[graph_name]}"
    )


# ----------------------------------------------------------------------
# wedge-partitioned backend: same matrix, strategy="wedge"
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("invariant", INVARIANTS)
@pytest.mark.parametrize("executor", ("serial", "shared"))
def test_wedge_strategy_conformance(graph_name, layout, invariant, executor):
    g = GRAPHS[graph_name]
    if layout == "csc":
        g = g.swap_sides()
        invariant = TRANSPOSE_MAP[invariant]
    got = count_butterflies_parallel(
        g,
        n_workers=N_WORKERS,
        executor=executor,
        invariant=invariant,
        strategy="wedge",
    )
    assert got == REFERENCE[graph_name], (
        f"wedge cell (graph={graph_name}, inv={invariant}, layout={layout}, "
        f"executor={executor}) = {got}, reference = {REFERENCE[graph_name]}"
    )


@pytest.mark.parametrize("graph_name", ("powerlaw", "planted"))
@pytest.mark.parametrize("invariant", (2, 6))
def test_wedge_strategy_process_executor(graph_name, invariant):
    """The cold process pool on the two non-trivial graphs (sampled, as
    in the per-vertex block, rather than crossed with the full matrix)."""
    got = _count(
        GRAPHS[graph_name], "process", invariant=invariant, strategy="wedge"
    )
    assert got == REFERENCE[graph_name]


# ----------------------------------------------------------------------
# vertex-priority kernel: side-free and serial, so one cell per layout
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("layout", LAYOUTS)
def test_priority_strategy_conformance(graph_name, layout):
    g = GRAPHS[graph_name]
    if layout == "csc":
        g = g.swap_sides()
    the_plan = engine.plan(g, "count", strategy="priority")
    assert the_plan.label == "priority-serial"
    assert engine.execute(the_plan, g) == REFERENCE[graph_name]


# ----------------------------------------------------------------------
# per-vertex conformance (serial-only) and per-edge support across
# executors
# ----------------------------------------------------------------------
VERTEX_REFERENCE = {
    (name, side): vertex_butterfly_counts(g, side=side)
    for name, g in GRAPHS.items()
    for side in ("left", "right")
}


def _oriented(graph_name: str, side: str) -> BipartiteGraph:
    """The corpus graph, side-swapped for ``side="right"`` so the support
    sweep pivots on the other vertex set."""
    g = GRAPHS[graph_name]
    return g if side == "left" else g.swap_sides()


EDGE_REFERENCE = {
    (name, side): edge_butterfly_support(_oriented(name, side))
    for name in GRAPHS
    for side in ("left", "right")
}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("side", ("left", "right"))
@pytest.mark.parametrize("executor", ("serial", "shared"))
def test_edge_support_conformance(graph_name, side, executor):
    """The per-edge support wing peeling recounts with: the blocked
    kernel, always in-process, at a one-row panel and at its default
    panel width.  Each butterfly has four edges, so the support sums to
    four times the global count of the executor cell (the serial tiling,
    or the warm pool of Fig. 11's sweep)."""
    g = _oriented(graph_name, side)
    for block_size in (1, 64):
        got = edge_butterfly_support_blocked(g, block_size=block_size)
        np.testing.assert_array_equal(got, EDGE_REFERENCE[(graph_name, side)])
    assert int(got.sum()) == 4 * _count(g, executor)


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("side", ("left", "right"))
@pytest.mark.parametrize("layout", LAYOUTS)
def test_priority_vertex_counts_conformance(graph_name, side, layout):
    """The serial one-pass priority kernel, through its planner row; the
    ``csc`` layout runs the side-swapped graph and reads the other side."""
    g = GRAPHS[graph_name]
    expected_side = side
    if layout == "csc":
        g = g.swap_sides()
        expected_side = "right" if side == "left" else "left"
    the_plan = engine.plan(g, "vertex-counts", side=side, strategy="priority")
    assert the_plan.label == f"{side}-priority-serial"
    np.testing.assert_array_equal(
        engine.execute(the_plan, g),
        VERTEX_REFERENCE[(graph_name, expected_side)],
    )


# ----------------------------------------------------------------------
# cross-checks that tie the matrix to independent ground truth
# ----------------------------------------------------------------------
def test_reference_against_brute_force_on_small_graphs():
    from itertools import combinations

    for name in ("empty", "star", "complete", "er"):
        g = GRAPHS[name]
        dense = g.biadjacency_dense()
        brute = 0
        for u, v in combinations(range(g.n_left), 2):
            shared = int(np.sum((dense[u] > 0) & (dense[v] > 0)))
            brute += shared * (shared - 1) // 2
        assert REFERENCE[name] == brute, name

    # the complete graph has the closed form C(m,2)·C(n,2)
    assert REFERENCE["complete"] == 6 * 10


def test_per_vertex_totals_match_global():
    # every butterfly touches exactly two vertices on each side
    for name, g in GRAPHS.items():
        for side in ("left", "right"):
            total = int(VERTEX_REFERENCE[(name, side)].sum())
            assert total == 2 * REFERENCE[name], (name, side)
