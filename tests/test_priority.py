"""The vertex-priority kernels and their place in the planner.

The count kernel (:mod:`repro.core.priority`) charges each butterfly to
its highest-ranked vertex; the per-vertex kernel walks the same ranked
wedges and credits both sides at once.  Their oracle here is pairwise
overlap counting on the dense biadjacency matrix, which shares no code
with them, plus brute-force enumeration and the fixed-side per-vertex
kernel.  The planner scores them as one more ``count`` row and one more
``vertex-counts``/``tip`` row, with :func:`priority_wedge_work` as the
exact work model.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine, obs
from repro.baselines import vertex_counts_bruteforce
from repro.core import priority
from repro.core.local_counts import vertex_butterfly_counts
from repro.core.priority import (
    count_butterflies_priority,
    priority_ranks,
    priority_wedge_work,
    vertex_butterfly_counts_priority,
)
from repro.engine import CalibrationTable
from repro.graphs import (
    BipartiteGraph,
    erdos_renyi_bipartite,
    planted_bicliques,
    power_law_bipartite,
)
from repro.reference import k_tip_reference
from repro.sparsela import kernels
from tests.conftest import random_graph_corpus, tiny_named_graphs

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
        {"layout": "mmap"}, {"strategy": "scratch"}, {"strategy": "blocked"},
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


# ----------------------------------------------------------------------
# per-vertex kernel
# ----------------------------------------------------------------------
#: the shapes above, the hand-built tiny graphs and the random corpus
CORPUS = {
    **SHAPES,
    **{f"tiny-{k}": g for k, g in tiny_named_graphs().items()},
    **{f"corpus-{k}": g for k, g in random_graph_corpus()},
}


def _pairwise_per_vertex(dense: np.ndarray) -> list[int]:
    """Per row: Σ over the other rows of C(common neighbours, 2)."""
    rows = [set(np.flatnonzero(row)) for row in dense]
    out = [0] * len(rows)
    for u, v in combinations(range(len(rows)), 2):
        common = len(rows[u] & rows[v])
        out[u] += common * (common - 1) // 2
        out[v] += common * (common - 1) // 2
    return out


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_vertex_counts_match_fixed_side_kernel_and_brute_force(name):
    g = CORPUS[name]
    left, right = vertex_butterfly_counts_priority(g)
    assert left.dtype == right.dtype == np.int64
    np.testing.assert_array_equal(left, vertex_butterfly_counts(g, "left"))
    np.testing.assert_array_equal(right, vertex_butterfly_counts(g, "right"))
    assert left.tolist() == vertex_counts_bruteforce(g, "left")
    assert right.tolist() == vertex_counts_bruteforce(g, "right")


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_vertex_counts_sum_to_twice_the_count(name):
    g = CORPUS[name]
    left, right = vertex_butterfly_counts_priority(g)
    total = 2 * count_butterflies_priority(g)
    assert int(left.sum()) == int(right.sum()) == total


@given(dense=tie_heavy_graphs())
@settings(max_examples=150, deadline=None)
def test_vertex_counts_on_ties_isolated_vertices_and_empty_sides(dense):
    g = _graph(dense)
    left, right = vertex_butterfly_counts_priority(g)
    assert (left.size, right.size) == dense.shape
    assert left.tolist() == _pairwise_per_vertex(dense)
    assert right.tolist() == _pairwise_per_vertex(dense.T)
    swapped_left, swapped_right = vertex_butterfly_counts_priority(g.swap_sides())
    np.testing.assert_array_equal(swapped_left, right)
    np.testing.assert_array_equal(swapped_right, left)


#: big enough that one whole-graph panel takes the sorted reduction
#: (key space beyond both the dense cap and half the wedges), while
#: singleton panels take the dense histogram
MEDIUM = power_law_bipartite(300, 400, 3000, seed=21)


@pytest.mark.parametrize("packed_limit", ["default", 0], ids=["packed", "argsort"])
@pytest.mark.parametrize("budget", [1, priority.PRIORITY_PANEL_BUDGET, 1 << 40])
def test_panel_budget_and_sort_path_do_not_change_vertex_counts(
    monkeypatch, budget, packed_limit
):
    monkeypatch.setattr(priority, "PRIORITY_PANEL_BUDGET", budget)
    if packed_limit != "default":
        monkeypatch.setattr(priority, "_PACKED_KEY_LIMIT", packed_limit)
    left, right = vertex_butterfly_counts_priority(MEDIUM)
    np.testing.assert_array_equal(left, vertex_butterfly_counts(MEDIUM, "left"))
    np.testing.assert_array_equal(right, vertex_butterfly_counts(MEDIUM, "right"))


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_vertex_kernel_expands_the_modeled_wedges(name):
    g = SHAPES[name]
    with obs.capture() as metrics:
        vertex_butterfly_counts_priority(g)
    assert metrics.value("priority.wedges") == priority_wedge_work(g)


def _force_reduction(monkeypatch, branch):
    """Send every panel of ``vertex_butterfly_counts_priority`` to ``branch``.

    The small graphs below fit the dense histogram by default.  With
    ``DEFAULT_KEYSPACE_CAP`` at 0 each panel is sorted instead: shift
    packed under the default ``_PACKED_KEY_LIMIT``, argsorted with it at
    0.  ``per-top`` sorts with ``PRIORITY_PANEL_BUDGET`` at 1, so every top
    gets its own panel and some panels hold repeated pairs, others none.
    """
    if branch != "histogram":
        monkeypatch.setattr(kernels, "DEFAULT_KEYSPACE_CAP", 0)
    if branch == "argsort":
        monkeypatch.setattr(priority, "_PACKED_KEY_LIMIT", 0)
    if branch == "per-top":
        monkeypatch.setattr(priority, "PRIORITY_PANEL_BUDGET", 1)


def _repeats_per_panel(g) -> list[bool]:
    """Whether each panel of ``g`` holds some (top, endpoint) pair twice."""
    wedges = priority._RankedWedges(g, *priority_ranks(g))
    return [
        bool(np.unique(wedges.keys(lo, hi), return_counts=True)[1].max() > 1)
        for lo, hi in wedges.panels()
    ]


def _assert_vertex_counts_match(g) -> None:
    left, right = vertex_butterfly_counts_priority(g)
    np.testing.assert_array_equal(left, vertex_butterfly_counts(g, "left"))
    np.testing.assert_array_equal(right, vertex_butterfly_counts(g, "right"))


@pytest.mark.parametrize("branch", ["histogram", "packed", "argsort", "per-top"])
@given(dense=tie_heavy_graphs())
@settings(max_examples=80, deadline=None)
def test_vertex_counts_match_on_every_reduction_branch(branch, dense):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _force_reduction(monkeypatch, branch)
        _assert_vertex_counts_match(_graph(dense))


@st.composite
def star_forests(draw) -> np.ndarray:
    """0/1 matrices with at most one 1 per column, either way round."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    dense = np.zeros((m, n), dtype=int)
    for j in range(n):
        i = draw(st.integers(-1, m - 1))
        if i >= 0:
            dense[i, j] = 1
    return dense if draw(st.booleans()) else dense.T


@pytest.mark.parametrize("branch", ["packed", "argsort"])
@given(dense=star_forests())
@settings(max_examples=60, deadline=None)
def test_vertex_counts_on_panels_with_no_repeated_pair(branch, dense):
    g = _graph(dense)
    assert not any(_repeats_per_panel(g))
    with pytest.MonkeyPatch.context() as monkeypatch:
        _force_reduction(monkeypatch, branch)
        left, right = vertex_butterfly_counts_priority(g)
    assert (left.size, right.size) == dense.shape
    assert not left.any() and not right.any()


@pytest.mark.parametrize("branch", ["packed", "argsort"])
def test_per_top_panels_with_and_without_repeats(monkeypatch, branch):
    _force_reduction(monkeypatch, "per-top")
    _force_reduction(monkeypatch, branch)
    g = SHAPES["planted"]
    assert {True, False} <= set(_repeats_per_panel(g))
    _assert_vertex_counts_match(g)


def _ranked_wedges_by_argsort(g):
    """``_RankedWedges``' five arrays by the formula it used to build them:
    a lexsort for the adjacency, then an argsort of the lower entries'
    (centre, top) keys to line them up with their upper twins."""
    rank_l, rank_r = priority_ranks(g)
    n_all = g.n_left + g.n_right
    a = rank_l[g.csr.expand_major()]
    b = rank_r[g.csr.panel_indices(0, g.n_left)]
    owner, nbr = np.concatenate([a, b]), np.concatenate([b, a])
    order = np.lexsort((nbr, owner))
    owner, adj = owner[order], nbr[order]
    offsets = np.zeros(n_all + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n_all), out=offsets[1:])
    is_lower = adj < owner
    top, centre = owner[is_lower], adj[is_lower]
    first = np.zeros(n_all + 1, dtype=np.int64)
    np.cumsum(np.bincount(top, minlength=n_all), out=first[1:])
    twin = np.empty(centre.size, dtype=np.int64)
    twin[np.argsort(centre * n_all + top)] = np.flatnonzero(~is_lower)
    shift = offsets[centre]
    ends = np.zeros(centre.size + 1, dtype=np.int64)
    np.cumsum(twin - shift, out=ends[1:])
    return adj, centre, shift - ends[:-1], ends, first


def _assert_same_ranked_wedges(g) -> None:
    wedges = priority._RankedWedges(g, *priority_ranks(g))
    built = (wedges.adj, wedges.centre, wedges.shift, wedges.ends, wedges.first)
    for mine, oracle in zip(built, _ranked_wedges_by_argsort(g)):
        np.testing.assert_array_equal(mine, oracle)


@pytest.mark.parametrize("name", sorted(set(CORPUS) - {"empty"}))
def test_ranked_wedges_match_the_argsort_build(name):
    _assert_same_ranked_wedges(CORPUS[name])
    _assert_same_ranked_wedges(CORPUS[name].swap_sides())


@pytest.mark.parametrize("name", sorted(set(CORPUS) - {"empty"}))
def test_wide_ranked_wedges_match_the_argsort_build(monkeypatch, name):
    _force_width(monkeypatch, "wide")
    _assert_same_ranked_wedges(CORPUS[name])
    _assert_same_ranked_wedges(CORPUS[name].swap_sides())


@given(dense=tie_heavy_graphs())
@settings(max_examples=80, deadline=None)
def test_ranked_wedges_match_the_argsort_build_on_ties(dense):
    _assert_same_ranked_wedges(_graph(dense))


# ----------------------------------------------------------------------
# key widths: int32 where the values fit, int64 past that
# ----------------------------------------------------------------------
def _force_width(monkeypatch, width: str) -> None:
    """``wide`` sends every rank-space array and panel key to int64."""
    if width == "wide":
        monkeypatch.setattr(priority, "_NARROW_KEY_LIMIT", 0)


@pytest.mark.parametrize("width", ["narrow", "wide"])
def test_rank_space_arrays_are_int32_while_they_fit(monkeypatch, width):
    _force_width(monkeypatch, width)
    g = SHAPES["powerlaw"]
    ids = np.int32 if width == "narrow" else np.int64
    wedges = priority._RankedWedges(g, *priority_ranks(g))
    assert wedges.adj.dtype == wedges.centre.dtype == ids
    # gather offsets and wedge counts index arrays: always int64
    for offsets in (wedges.shift, wedges.ends, wedges.first, wedges.work):
        assert offsets.dtype == np.int64
    for lo, hi in wedges.panels():
        assert wedges.keys(lo, hi).dtype == ids
        assert wedges.keys(lo, hi, hi.bit_length()).dtype == ids


@pytest.mark.parametrize("width", ["narrow", "wide"])
@pytest.mark.parametrize("budget", [1, priority.PRIORITY_PANEL_BUDGET])
@given(dense=st.one_of(tie_heavy_graphs(), star_forests()))
@settings(max_examples=60, deadline=None)
def test_both_key_widths_count_exactly(budget, width, dense):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _force_width(monkeypatch, width)
        monkeypatch.setattr(priority, "PRIORITY_PANEL_BUDGET", budget)
        g = _graph(dense)
        assert count_butterflies_priority(g) == _pairwise(dense)
        _assert_vertex_counts_match(g)


@given(dense=tie_heavy_graphs())
@settings(max_examples=60, deadline=None)
def test_wedge_work_is_the_ranked_wedges_and_a_brute_force_count(dense):
    g = _graph(dense)
    work = priority_wedge_work(g)
    if g.n_edges:
        assert work == int(priority._RankedWedges(g, *priority_ranks(g)).work.sum())
    assert work == _ranked_wedges_by_enumeration(g)


def _ranked_wedges_by_enumeration(g) -> int:
    """Wedges (u, v, w) with u outranking both v and w, one at a time."""
    rank_l, rank_r = priority_ranks(g)
    dense = g.biadjacency_dense()
    total = 0
    for side, ranks, other in ((dense, rank_l, rank_r), (dense.T, rank_r, rank_l)):
        for v, row in enumerate(side.T):  # centre v on the other side
            ends = ranks[np.flatnonzero(row)]
            total += sum(
                1 for u in ends for w in ends if w < u and other[v] < u
            )
    return total


# ----------------------------------------------------------------------
# per-vertex planner rows
# ----------------------------------------------------------------------
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("workload", ["vertex-counts", "tip"])
def test_auto_per_vertex_plans_pick_priority_on_a_skewed_graph(workload, side):
    g = power_law_bipartite(300, 400, 8000, seed=13)
    chosen = engine.plan(g, workload, side=side, k=2, calibration=DEFAULTS)
    assert chosen.strategy == "priority"
    assert chosen.label == f"{side}-priority-serial"
    text = engine.explain(chosen, g, calibration=DEFAULTS)
    (starred,) = [ln for ln in text.splitlines() if ln.startswith("*")]
    assert f"{side}-priority-serial" in starred
    result = chosen.execute(g)
    if workload == "tip":
        assert result.kept.tolist() == k_tip_reference(g, 2, side=side)
    else:
        np.testing.assert_array_equal(result, vertex_butterfly_counts(g, side))


def test_per_vertex_priority_row_is_raw_serial_and_unpinned_only():
    g = power_law_bipartite(60, 80, 600, seed=4)

    def rows(workload, **pins):
        cands = engine.candidate_plans(
            g, workload, side="left", calibration=DEFAULTS, **pins
        )
        return [c for c in cands if c.strategy == "priority"]

    for workload in ("vertex-counts", "tip"):
        (row,) = rows(workload)
        assert (row.executor, row.workers, row.layout, row.side) == (
            "serial", 1, "raw", "left",
        )
        for pins in ({"strategy": "blocked"}, {"block_size": 64},
                     {"layout": "mmap"}):
            with pytest.raises(ValueError, match="vertex-priority kernel"):
                rows(workload, **pins)


@pytest.mark.parametrize(
    "pins", [{"executor": "shared"}, {"workers": 2}, {"layout": "mmap"}],
)
def test_pinning_per_vertex_priority_with_a_pool_or_layout_is_an_error(pins):
    g = power_law_bipartite(60, 80, 600, seed=4)
    with pytest.raises(ValueError, match="priority"):
        engine.plan(
            g, "vertex-counts", strategy="priority", calibration=DEFAULTS,
            **pins,
        )


def test_tip_row_models_one_priority_pass_per_round():
    g = power_law_bipartite(60, 80, 600, seed=4)
    (vc,) = engine.candidate_plans(
        g, "vertex-counts", strategy="priority", calibration=DEFAULTS
    )
    (tip,) = engine.candidate_plans(
        g, "tip", strategy="priority", k=1, calibration=DEFAULTS
    )
    assert vc.modeled_ops == priority_wedge_work(g)
    assert tip.modeled_ops == 3 * vc.modeled_ops
    assert tip.est_seconds == pytest.approx(3 * vc.est_seconds)


def test_tip_row_prices_the_pair_table_a_decomposition_left(monkeypatch):
    """After a tip decomposition the auto tip plan peels from its table,
    so the row prices the table's entries and counts no wedge; the reuse
    is counted by the k-tip that peels, not by the plan.  Under a cap the
    table was not built under, the row prices recount rounds again."""
    from repro.core.peeling import buckets, tip_numbers_bucket_parallel

    g = power_law_bipartite(60, 80, 600, seed=4)
    (recount,) = engine.candidate_plans(g, "tip", k=1, calibration=DEFAULTS)
    tip_numbers_bucket_parallel(g)
    (_, partner, _), _, _ = buckets.cached_pair_table(g, "left")

    def no_wedges(graph):
        raise AssertionError("a table-priced tip plan counted wedges")

    with monkeypatch.context() as patched:
        patched.setattr(priority, "priority_wedge_work", no_wedges)
        with obs.capture() as metrics:
            (row,) = engine.candidate_plans(
                g, "tip", k=1, calibration=DEFAULTS
            )
        assert "peel.tip.pair_table_reused" not in metrics
    assert row.strategy == "priority" and row.modeled_ops == partner.size > 0
    assert 0 < row.est_seconds < recount.est_seconds
    assert "pair-table peel" in row.reason
    (right,) = engine.candidate_plans(
        g, "tip", side="right", k=1, calibration=DEFAULTS
    )
    assert right.modeled_ops == recount.modeled_ops
    monkeypatch.setattr(buckets, "PAIR_TABLE_MAX_BYTES", 0)
    (capped,) = engine.candidate_plans(g, "tip", k=1, calibration=DEFAULTS)
    assert capped.modeled_ops == recount.modeled_ops
    assert capped.est_seconds == pytest.approx(recount.est_seconds)
