"""The vertex-priority count kernel and its place in the planner.

The kernel (:mod:`repro.core.priority`) charges each butterfly to its
highest-ranked vertex.  Its oracle here is pairwise overlap counting on
the dense biadjacency matrix, which shares no code with it.  The planner
scores it as one more ``count`` row, with :func:`priority_wedge_work` as
the exact work model.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine, obs
from repro.core import priority
from repro.core.priority import (
    count_butterflies_priority,
    priority_ranks,
    priority_wedge_work,
)
from repro.engine import CalibrationTable
from repro.graphs import (
    BipartiteGraph,
    erdos_renyi_bipartite,
    gnm_bipartite,
    planted_bicliques,
    power_law_bipartite,
)

DEFAULTS = CalibrationTable()

SHAPES = {
    "empty": BipartiteGraph.empty(6, 8),
    "star": BipartiteGraph([(0, j) for j in range(8)], n_left=1, n_right=8),
    "complete": BipartiteGraph.complete(4, 5),
    "er": erdos_renyi_bipartite(25, 30, 0.15, seed=101),
    "powerlaw": power_law_bipartite(40, 50, 250, seed=102),
    "planted": planted_bicliques(24, 24, 2, 4, 4, background_edges=30, seed=103),
}


def _pairwise(dense: np.ndarray) -> int:
    """Σ over left pairs of C(common neighbours, 2)."""
    rows = [set(np.flatnonzero(row)) for row in dense]
    total = 0
    for u, v in combinations(range(len(rows)), 2):
        common = len(rows[u] & rows[v])
        total += common * (common - 1) // 2
    return total


def _graph(dense: np.ndarray) -> BipartiteGraph:
    if dense.size:
        return BipartiteGraph.from_biadjacency(dense)
    return BipartiteGraph.empty(*dense.shape)


@pytest.mark.parametrize("swap", [False, True], ids=["as-given", "swapped"])
@pytest.mark.parametrize("name", sorted(SHAPES))
def test_kernel_matches_brute_force(name, swap):
    g = SHAPES[name].swap_sides() if swap else SHAPES[name]
    expected = _pairwise(g.biadjacency_dense())
    assert count_butterflies_priority(g) == expected


@st.composite
def tie_heavy_graphs(draw) -> np.ndarray:
    """Small 0/1 matrices: regular blocks (all degrees tied), isolated
    vertices, empty sides, or random fill."""
    kind = draw(st.sampled_from(["random", "regular", "isolated", "empty"]))
    if kind == "empty":
        n = draw(st.integers(0, 6))
        return np.zeros((0, n) if draw(st.booleans()) else (n, 0), dtype=int)
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    if kind == "regular":
        # circulant: every left vertex has degree k, right degrees tie too
        k = draw(st.integers(0, n))
        dense = np.zeros((m, n), dtype=int)
        for i in range(m):
            dense[i, [(i + j) % n for j in range(k)]] = 1
        return dense
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dense = (rng.random((m, n)) < draw(st.floats(0.0, 1.0))).astype(int)
    if kind == "isolated":
        dense[rng.random(m) < 0.4, :] = 0
        dense[:, rng.random(n) < 0.4] = 0
    return dense


@given(dense=tie_heavy_graphs())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_brute_force_on_ties_and_isolated_vertices(dense):
    g = _graph(dense)
    assert count_butterflies_priority(g) == _pairwise(dense)
    assert count_butterflies_priority(g.swap_sides()) == _pairwise(dense)


@pytest.mark.parametrize("budget", [1, priority.PRIORITY_PANEL_BUDGET, 1 << 40])
@pytest.mark.parametrize("name", ["complete", "powerlaw", "planted"])
def test_panel_budget_does_not_change_the_count(monkeypatch, name, budget):
    g = SHAPES[name]
    monkeypatch.setattr(priority, "PRIORITY_PANEL_BUDGET", budget)
    assert count_butterflies_priority(g) == _pairwise(g.biadjacency_dense())


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_wedge_work_equals_the_wedges_the_kernel_expands(name):
    g = SHAPES[name]
    with obs.capture() as metrics:
        count_butterflies_priority(g)
    assert metrics.value("priority.wedges") == priority_wedge_work(g)


def test_wedge_work_undercuts_the_fixed_side_expansion():
    g = power_law_bipartite(300, 400, 8000, seed=13)
    fixed = min(
        engine.plan(g, "count", invariant=i, strategy="blocked").modeled_ops
        for i in (2, 6)
    )
    assert priority_wedge_work(g) * 3 < fixed


def test_ranks_order_both_sides_by_degree_then_id():
    g = BipartiteGraph([(0, 0), (0, 1), (1, 1)], n_left=3, n_right=2)
    rank_l, rank_r = priority_ranks(g)
    # degrees: left (2, 1, 0), right (1, 2); ids: left 0..2, right 3..4
    assert rank_l.tolist() == [3, 1, 0]
    assert rank_r.tolist() == [2, 4]


# ----------------------------------------------------------------------
# planner
# ----------------------------------------------------------------------
def test_auto_count_picks_priority_on_a_dense_power_law_graph():
    g = power_law_bipartite(300, 400, 8000, seed=13)
    chosen = engine.plan(g, "count", calibration=DEFAULTS)
    assert chosen.strategy == "priority"
    assert chosen.label == "priority-serial"
    assert chosen.modeled_ops == priority_wedge_work(g)
    assert chosen.execute(g) == _pairwise(g.biadjacency_dense())


def test_auto_count_keeps_blocked_on_a_small_sparse_graph():
    g = gnm_bipartite(4000, 4000, 8000, seed=14)
    chosen = engine.plan(g, "count", calibration=DEFAULTS)
    assert chosen.strategy == "blocked"
    assert any(c.strategy == "priority" for c in chosen.candidates)


def test_explain_shows_the_priority_row_with_its_wedges():
    g = power_law_bipartite(60, 80, 600, seed=4)
    text = engine.explain(
        engine.plan(g, "count", calibration=DEFAULTS), g, calibration=DEFAULTS
    )
    row = next(ln for ln in text.splitlines() if "priority-serial" in ln)
    assert f"{priority_wedge_work(g):,}" in row


def test_priority_rows_are_raw_serial_and_unpinned_only():
    g = power_law_bipartite(60, 80, 600, seed=4)

    def rows(**pins):
        cands = engine.candidate_plans(g, "count", calibration=DEFAULTS, **pins)
        return [c for c in cands if c.strategy == "priority"]

    (row,) = rows()
    assert (row.invariant, row.executor, row.workers, row.layout) == (
        None, "serial", 1, "raw",
    )
    assert rows(layout="raw")
    for pins in (
        {"invariant": 2}, {"workers": 2}, {"executor": "shared"},
        {"layout": "reorder"}, {"family_only": True}, {"strategy": "blocked"},
    ):
        assert rows(**pins) == [], pins


@pytest.mark.parametrize(
    "pins", [{"invariant": 6}, {"executor": "shared"}, {"workers": 2},
             {"layout": "mmap"}],
)
def test_pinning_priority_with_a_member_pool_or_layout_is_an_error(pins):
    g = power_law_bipartite(60, 80, 600, seed=4)
    with pytest.raises(ValueError, match="priority"):
        engine.plan(g, "count", strategy="priority", calibration=DEFAULTS, **pins)


def test_pinned_priority_plans_serially_on_any_machine():
    g = power_law_bipartite(60, 80, 600, seed=4)
    for pins in ({}, {"executor": "serial"}, {"workers": 1}, {"layout": "raw"}):
        chosen = engine.plan(
            g, "count", strategy="priority", calibration=DEFAULTS, **pins
        )
        assert chosen.label == "priority-serial", pins
        assert chosen.execute(g) == _pairwise(g.biadjacency_dense())
