"""Differential conformance matrix: every pinned count member agrees.

The members are :func:`repro.engine.count_members` — every
invariant × strategy × executor pin set the planner accepts — and each
runs through ``engine.plan``/``engine.execute`` (a ``shared`` member on
an ``N_WORKERS`` pool).  The matrix crosses each member with

- two storage orientations ("csr" runs the graph as given; "csc" runs
  the side-swapped graph with the transpose-mapped invariant i <-> i±4,
  which exercises the opposite compressed axis for the same logical
  graph), and
- six structurally distinct graph shapes, including the degenerate ones
  (empty, star) that historically break boundary arithmetic.

Each strategy's cells live in one test (:data:`CELL_TESTS`), and
``test_every_member_has_a_cell`` fails when the planner accepts a
strategy or executor no test covers.  The ``scratch`` cells add a cold
process pool (a cell-owned :class:`~repro.parallel.ButterflyExecutor`
that starts, publishes and tears down per cell) beside every ``shared``
member.  Every cell must produce the *identical* global count, and the
per-edge support sweep (the kernel of ``k_wing``'s rounds and of the
wing peel's supports and recounts, in-process) must match the reference
element-wise at two panel widths.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import engine
from repro.core import (
    count_butterflies,
    count_butterflies_parallel,
    edge_butterfly_support,
    edge_butterfly_support_priority,
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
N_WORKERS = 2

#: every pinned count member the planner accepts
MEMBERS = tuple(engine.count_members())


def _cells(strategy: str) -> list[tuple[str, int | None]]:
    """(executor, invariant) of every member running ``strategy``."""
    return [
        (m["executor"], m["invariant"]) for m in MEMBERS
        if m["strategy"] == strategy
    ]


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


def _cell(graph_name, layout, executor, invariant, strategy) -> int:
    """One member's count through ``engine.plan``/``engine.execute``
    (``"process"``: the cell-owned cold pool)."""
    g = GRAPHS[graph_name]
    if layout == "csc":
        g = g.swap_sides()
        invariant = TRANSPOSE_MAP.get(invariant)
    if executor == "process":
        return _count(g, executor, invariant=invariant, strategy=strategy)
    the_plan = engine.plan(
        g, "count", invariant=invariant, strategy=strategy,
        executor=executor, workers=N_WORKERS if executor == "shared" else None,
    )
    assert (the_plan.strategy, the_plan.executor) == (strategy, executor)
    return engine.execute(the_plan, g)


def _check(graph_name, layout, executor, invariant, strategy) -> None:
    got = _cell(graph_name, layout, executor, invariant, strategy)
    assert got == REFERENCE[graph_name], (
        f"{strategy} cell (graph={graph_name}, inv={invariant}, "
        f"layout={layout}, executor={executor}) = {got}, "
        f"reference = {REFERENCE[graph_name]}"
    )


def test_transpose_map_is_an_involution():
    assert sorted(TRANSPOSE_MAP.values()) == INVARIANTS
    for i in INVARIANTS:
        assert TRANSPOSE_MAP[TRANSPOSE_MAP[i]] == i
        assert (i <= 4) != (TRANSPOSE_MAP[i] <= 4)


# ----------------------------------------------------------------------
# the family's per-pivot updates: scratch (plus a cold pool beside every
# shared member) and the paper-literal spmv scan
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("executor,invariant", _cells("scratch") + [
    ("process", invariant) for executor, invariant in _cells("scratch")
    if executor == "shared"
])
def test_global_count_conformance(graph_name, layout, executor, invariant):
    _check(graph_name, layout, executor, invariant, "scratch")


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("executor,invariant", _cells("spmv"))
def test_spmv_strategy_conformance(graph_name, layout, executor, invariant):
    _check(graph_name, layout, executor, invariant, "spmv")


# ----------------------------------------------------------------------
# the panel derivation (serial-only) and the wedge-partitioned backend
# ----------------------------------------------------------------------
@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("executor,invariant", _cells("blocked"))
def test_blocked_strategy_conformance(graph_name, layout, executor, invariant):
    _check(graph_name, layout, executor, invariant, "blocked")


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("executor,invariant", _cells("wedge"))
def test_wedge_strategy_conformance(graph_name, layout, executor, invariant):
    _check(graph_name, layout, executor, invariant, "wedge")


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
    (executor, invariant), = _cells("priority")
    _check(graph_name, layout, executor, invariant, "priority")


#: the test holding each strategy's cells
CELL_TESTS = {
    "scratch": test_global_count_conformance,
    "spmv": test_spmv_strategy_conformance,
    "blocked": test_blocked_strategy_conformance,
    "wedge": test_wedge_strategy_conformance,
    "priority": test_priority_strategy_conformance,
}


def test_every_member_has_a_cell():
    """Every strategy and executor the planner accepts is an enumerated
    member, and every member's strategy has a conformance test: a count
    path the planner can reach cannot go unchecked."""
    g = GRAPHS["complete"]
    accepted = set()
    for strategy in engine.COUNT_STRATEGIES:
        for executor in engine.EXECUTORS:
            for invariant in (None, *INVARIANTS):
                try:
                    engine.plan(g, "count", invariant=invariant,
                                strategy=strategy, executor=executor)
                except ValueError:
                    continue
                accepted.add((strategy, executor, invariant))
    members = {(m["strategy"], m["executor"], m["invariant"]) for m in MEMBERS}
    # an unnumbered pin set that the rule numbers is not a second member
    assert members == {
        (s, e, i) for s, e, i in accepted
        if i is not None or not any(
            (s, e, k) in accepted for k in INVARIANTS
        )
    }
    assert {s for s, _, _ in members} == set(engine.COUNT_STRATEGIES)
    assert set(CELL_TESTS) == set(engine.COUNT_STRATEGIES)


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
    """The per-edge support the wing peels count with: the ranked-wedge
    kernel, always in-process.  Each butterfly has four edges, so the
    support sums to four times the global count of the executor cell
    (the serial tiling, or the warm pool of Fig. 11's sweep)."""
    g = _oriented(graph_name, side)
    got = edge_butterfly_support_priority(g)
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
