"""Round-based bucket peeling must match the reference fixpoints bitwise.

The round loops extract the whole minimum bucket per round.  Tips take
their losses from a one-time same-side pair table, or — past the table's
byte cap — re-expand each round's wedges; wings enumerate the butterflies
through each round's peeled edges, or recount the survivor graph's
support when enumerating would cost far more.  Every round runs
in-process: no decomposition resolves a pool.  The contract is *bitwise
identity* with the heap ``tip_numbers`` and ``wing_numbers`` — on every
corpus shape, both sides, for the pair table and the wedge fallback, and
for both wing round branches.  The auto ``k_tip``
peels from the table a tip decomposition left on the graph; it must
agree with the recount rounds, the look-ahead sweep and
``tip_numbers >= k``, and a lowered cap must force its recount rounds.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import (
    k_tip,
    k_tip_lookahead,
    tip_decrement_batch,
    tip_numbers,
    tip_numbers_bucket_parallel,
    wing_numbers,
    wing_numbers_bucket,
)
from repro.core.peeling import buckets
from repro.graphs import (
    BipartiteGraph,
    erdos_renyi_bipartite,
    planted_bicliques,
    power_law_bipartite,
)
from repro.sparsela import choose2


@pytest.fixture(scope="module", autouse=True)
def _retire_shared_executors():
    """Leave no warm default executor (and no published /dev/shm segment)
    behind — the sharedmem suite asserts segment-leak-freedom globally."""
    yield
    from repro.parallel import shutdown_default_executors

    shutdown_default_executors()


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

TIP_REFERENCE = {
    (name, side): tip_numbers(g, side=side)
    for name, g in GRAPHS.items()
    for side in ("left", "right")
}
WING_REFERENCE = {name: wing_numbers(g) for name, g in GRAPHS.items()}


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("side", ("left", "right"))
@pytest.mark.parametrize("n_workers", (1, 2))
def test_tip_parallel_matches_serial_bucket(graph_name, side, n_workers):
    got = tip_numbers_bucket_parallel(
        GRAPHS[graph_name], side=side, n_workers=n_workers
    )
    np.testing.assert_array_equal(got, TIP_REFERENCE[(graph_name, side)])


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("n_workers", (1, 2))
def test_wing_parallel_matches_serial_bucket(graph_name, n_workers):
    """The wing peel runs in-process: a warm default executor of
    ``n_workers`` changes neither its numbers (the heap's) nor its
    dispatch count."""
    from repro.parallel import get_default_executor

    executor = get_default_executor(n_workers)
    before = executor.dispatch_count
    got = wing_numbers_bucket(GRAPHS[graph_name])
    assert got == WING_REFERENCE[graph_name]
    assert executor.dispatch_count == before


@pytest.mark.parametrize("graph_name", sorted(GRAPHS))
@pytest.mark.parametrize("side", ("left", "right"))
def test_tip_parallel_pooled_rounds_match_serial_bucket(
    graph_name, side, monkeypatch
):
    """With the pair-table cap at 0 every graph takes the wedge fallback;
    ``n_workers=2`` still runs its rounds in-process."""
    monkeypatch.setattr(buckets, "PAIR_TABLE_MAX_BYTES", 0)
    got = tip_numbers_bucket_parallel(
        GRAPHS[graph_name], side=side, n_workers=2
    )
    np.testing.assert_array_equal(got, TIP_REFERENCE[(graph_name, side)])


def _dispatches_per_call(g) -> list[int]:
    from repro.parallel import get_default_executor

    executor = get_default_executor(2)
    per_call = []
    for _ in range(2):
        before = executor.dispatch_count
        tip_numbers_bucket_parallel(g, side="left", n_workers=2)
        per_call.append(executor.dispatch_count - before)
    return per_call


def test_tip_parallel_light_rounds_skip_the_pool():
    """Corpus graphs take the pair table: a call makes no dispatch."""
    assert _dispatches_per_call(GRAPHS["powerlaw"]) == [0, 0]


def test_tip_fallback_light_rounds_skip_the_pool(monkeypatch):
    """Forced onto the wedge fallback, a call still makes no dispatch."""
    monkeypatch.setattr(buckets, "PAIR_TABLE_MAX_BYTES", 0)
    assert _dispatches_per_call(GRAPHS["powerlaw"]) == [0, 0]


def _forbid_pools(monkeypatch) -> None:
    """Make resolving or building any executor fail the test."""
    import repro.parallel
    import repro.parallel.executor

    def no_pool(*args, **kwargs):
        raise AssertionError("a decomposition resolved a pool")

    for module in (repro.parallel, repro.parallel.executor):
        monkeypatch.setattr(module, "get_default_executor", no_pool)
    monkeypatch.setattr(repro.parallel.ButterflyExecutor, "__init__", no_pool)


def test_tip_pair_table_never_resolves_a_pool(monkeypatch):
    """Neither tip path touches a pool, even asked for two workers: the
    pair table, and the wedge fallback forced by a zero cap."""
    _forbid_pools(monkeypatch)
    for cap in (buckets.PAIR_TABLE_MAX_BYTES, 0):
        monkeypatch.setattr(buckets, "PAIR_TABLE_MAX_BYTES", cap)
        with obs.capture() as metrics:
            got = tip_numbers_bucket_parallel(GRAPHS["planted"], n_workers=2)
        np.testing.assert_array_equal(got, TIP_REFERENCE[("planted", "left")])
        assert ("peel.tip.pair_table_fallback" in metrics) == (cap == 0)


def test_wing_recount_never_resolves_a_pool(monkeypatch):
    """Neither wing round branch touches a pool: the tailed biclique
    recounts and enumerates, the corpus graphs cover the rest."""
    _forbid_pools(monkeypatch)
    g = _tailed_biclique()
    assert wing_numbers_bucket(g) == wing_numbers(g)
    for name, h in GRAPHS.items():
        assert wing_numbers_bucket(h) == WING_REFERENCE[name]


@st.composite
def tip_graphs(draw) -> BipartiteGraph:
    """Small graphs of the shapes the peel must get right: random (with
    isolated vertices), an empty side, butterfly-free and complete."""
    kind = draw(
        st.sampled_from(["random", "empty-side", "butterfly-free", "complete"])
    )
    m, n = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    if kind == "empty-side":
        return BipartiteGraph.empty(*((0, n) if draw(st.booleans()) else (m, 0)))
    if kind == "complete":
        return BipartiteGraph.complete(m, n)
    if kind == "butterfly-free":
        # a forest of stars on the left: no two left vertices share a
        # neighbour, so every c(u, w) is 0 on the left and <= 1 on the right
        owner = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
        return BipartiteGraph(
            [(u, v) for v, u in enumerate(owner)], n_left=m, n_right=n
        )
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dense = rng.random((m, n)) < draw(st.floats(0.0, 1.0))
    rows, cols = np.nonzero(dense)
    return BipartiteGraph(np.column_stack([rows, cols]), n_left=m, n_right=n)


def _tip_paths(g: BipartiteGraph, side: str) -> tuple[np.ndarray, ...]:
    """(pair-table tips, wide-loss pair-table tips, wedge-fallback tips),
    the wide table's loss width and the fallback's count checked."""
    with obs.capture() as metrics:
        table = tip_numbers_bucket_parallel(g, side=side, n_workers=1)
        with mock.patch.object(buckets, "_NARROW_LOSS_LIMIT", 0):
            wide = tip_numbers_bucket_parallel(g, side=side, n_workers=1)
        (_, _, loss), _, _ = buckets.cached_pair_table(g, side)
        assert loss.dtype == np.int64 or loss.size == 0
        with mock.patch.object(buckets, "PAIR_TABLE_MAX_BYTES", 0):
            fallback = tip_numbers_bucket_parallel(g, side=side, n_workers=1)
    assert metrics.value("peel.tip.pair_table_fallback") == 1
    return table, wide, fallback


def _staircase(n: int) -> BipartiteGraph:
    """Left vertex u adjacent to right vertices 0..u+1: every pair's c
    is the lower one's degree, so the left peel takes one vertex a round
    until the last two, which always tie."""
    return BipartiteGraph(
        [(u, v) for u in range(n) for v in range(u + 2)], n_left=n, n_right=n + 1
    )


def _twin_bicliques() -> BipartiteGraph:
    """Two disjoint K_{3,3}: every survivor has count 6 and all of them
    peel in one round."""
    return BipartiteGraph(
        [(u + 3 * b, v + 3 * b) for b in range(2) for u in range(3) for v in range(3)],
        n_left=6,
        n_right=6,
    )


@given(g=tip_graphs())
@settings(max_examples=150, deadline=None)
@example(g=BipartiteGraph.empty(0, 5))
@example(g=BipartiteGraph.empty(4, 0))
@example(g=BipartiteGraph([(0, 0), (0, 1), (2, 1)], n_left=4, n_right=3))
@example(g=BipartiteGraph.complete(5, 4))
@example(g=_twin_bicliques())
@example(g=_staircase(6))
def test_tip_table_and_fallback_match_the_heap_reference(g):
    """Pair table (int32 and forced int64 losses) = wedge fallback =
    heap ``tip_numbers``, bit for bit, on both sides."""
    for side in ("left", "right"):
        reference = tip_numbers(g, side=side)
        for tips in _tip_paths(g, side):
            np.testing.assert_array_equal(tips, reference)


@given(g=tip_graphs(), drawn_k=st.integers(2, 40))
@settings(max_examples=100, deadline=None)
@example(g=BipartiteGraph.empty(0, 5), drawn_k=2)
@example(g=BipartiteGraph.complete(5, 4), drawn_k=18)
@example(
    g=BipartiteGraph([(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)], n_left=3, n_right=2),
    drawn_k=1,
)
def test_table_k_tip_matches_recount_lookahead_and_tip_numbers(g, drawn_k):
    """The pair-table ``k_tip`` (after a tip decomposition of the same
    graph), the priority recount rounds ``k_tip`` runs on a graph
    without a table, the look-ahead sweep and ``tip_numbers >= k`` give
    the same fixpoint: equal ``kept``, ``rounds`` and subgraph."""
    bare = BipartiteGraph(g.edges(), g.n_left, g.n_right)
    for side in ("left", "right"):
        tips = tip_numbers(g, side=side)
        tip_numbers_bucket_parallel(g, side=side, n_workers=1)
        for k in (0, 1, drawn_k):
            with obs.capture() as metrics:
                table = k_tip(g, k, side=side)
            assert metrics.value("peel.tip.pair_table_reused") == 1
            with obs.capture() as metrics:
                unbuilt = k_tip(bare, k, side=side)
            assert "peel.tip.pair_table_reused" not in metrics
            lookahead = k_tip_lookahead(g, k, side=side)
            for other in (unbuilt, lookahead):
                np.testing.assert_array_equal(table.kept, other.kept)
                assert table.rounds == other.rounds
                assert table.subgraph == other.subgraph
            np.testing.assert_array_equal(table.kept, tips >= k)


def _tailed_biclique() -> BipartiteGraph:
    """Three K_{6,6} below a K_{7,7}, with a sparse tail of ten disjoint
    4-cycles (support 1).  The first round peels the 40 cycle edges: 160
    walks, far under eight times the bicliques' 991 recount wedges, so it
    enumerates.  The second peels the three K_{6,6} (support 25): their
    3,888 walks pass eight times the K_{7,7}'s 343 wedges, so it recounts."""
    sizes = [2] * 10 + [6] * 3 + [7]
    starts = np.cumsum([0] + sizes)
    edges = [
        (u, v)
        for lo, n in zip(starts, sizes)
        for u in range(lo, lo + n)
        for v in range(lo, lo + n)
    ]
    n = int(starts[-1])
    return BipartiteGraph(edges, n_left=n, n_right=n)


def _planted_wings() -> BipartiteGraph:
    return planted_bicliques(60, 60, 3, 6, 6, background_edges=400, seed=5)


@given(g=tip_graphs())
@settings(max_examples=150, deadline=None)
@example(g=BipartiteGraph.empty(0, 5))
@example(g=BipartiteGraph.empty(4, 0))
@example(g=BipartiteGraph.complete(5, 4))
@example(g=_tailed_biclique())
@example(g=_planted_wings())
def test_wing_peel_matches_the_heap_reference(g):
    """Random, empty-side, butterfly-free and complete graphs, each in
    both orientations (the peel keys edges by their left endpoint)."""
    for h in (g, g.swap_sides()):
        assert wing_numbers_bucket(h) == wing_numbers(h)


@pytest.mark.parametrize(
    ("make", "recounts"),
    ((_tailed_biclique, True), (_planted_wings, False)),
    ids=("tailed", "planted"),
)
def test_wing_peel_round_branches(make, recounts, monkeypatch):
    """The tailed biclique runs both branches.  Planted bicliques of one
    size peel together in the last round, so every earlier round peels a
    sparse background edge or two and enumerates."""
    calls = {"enumerate": 0, "support": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(
        buckets,
        "_subtract_wing_losses",
        counting("enumerate", buckets._subtract_wing_losses),
    )
    monkeypatch.setattr(
        buckets,
        "edge_butterfly_support_blocked",
        counting("support", buckets.edge_butterfly_support_blocked),
    )
    g = make()
    assert wing_numbers_bucket(g) == wing_numbers(g)
    assert calls["enumerate"] >= 1
    # the initial supports, then one call per recount
    assert (calls["support"] > 1) == recounts


@pytest.mark.parametrize("budget", (1, 16))
def test_wing_peel_in_small_chunks(budget, monkeypatch):
    """A chunk budget far below the default cuts enumerate rounds into
    many wedge and walk chunks; the charge to the lowest peeled edge must
    hold across chunks."""
    most, cut = [], buckets.work_bounded_panels

    def panels(work, cap):
        out = cut(work, cap)
        most.append(len(out))
        return out

    monkeypatch.setattr(buckets, "PRIORITY_PANEL_BUDGET", budget)
    monkeypatch.setattr(buckets, "work_bounded_panels", panels)
    for name, g in GRAPHS.items():
        assert wing_numbers_bucket(g) == WING_REFERENCE[name], name
    for g in (_tailed_biclique(), _planted_wings()):
        assert wing_numbers_bucket(g) == wing_numbers(g)
    assert max(most) > 1


def test_wing_peel_keys_pass_int32():
    """``n_left·n_right`` passes 2^31, and the keys ``u·n_right + v`` of a
    dense block cross it row by row: int32 keys would wrap out of order."""
    n = 50_000
    rng = np.random.default_rng(11)
    edges = np.column_stack(
        [rng.integers(42_935, 42_965, 300), rng.integers(33_635, 33_665, 300)]
    )
    edges = np.concatenate([edges, [[0, 0], [0, n - 1], [1, 0], [1, n - 1]]])
    g = BipartiteGraph(np.unique(edges, axis=0), n_left=n, n_right=n)
    keys = edges[:, 0] * n + edges[:, 1]
    assert keys.min() < 2**31 < keys.max()
    got = wing_numbers_bucket(g)
    assert got == wing_numbers(g)
    assert max(got.values()) > 1 and got[(0, 0)] == 1


def _views(g: BipartiteGraph, side: str):
    return (g.csr, g.csc) if side == "left" else (g.csc, g.csr)


def _assert_symmetric_table(g: BipartiteGraph, side: str) -> tuple:
    """Build ``side``'s pair table and check it against the dense
    common-neighbour matrix C: exactly the vertices with some C[u, w] >= 2
    get a slot, ascending; slot i's row holds the slot of each w with
    C[vertex[i], w] >= 2 once (partners above it ascending, then those
    below ascending) with loss C(C[u, w], 2), so every pair appears once
    per endpoint, and its row sums are ``counts``.  Returns
    ``(table, vertex, counts)``."""
    built = buckets._pair_table(*_views(g, side))
    assert built is not None
    (indptr, partner, loss), vertex, counts = built
    assert partner.dtype == loss.dtype == vertex.dtype == np.int32
    assert indptr.dtype == counts.dtype == np.int64
    a = g.biadjacency_dense(np.int64)
    common = a @ a.T if side == "left" else a.T @ a
    np.fill_diagonal(common, 0)
    np.testing.assert_array_equal(vertex, np.flatnonzero((common >= 2).any(axis=1)))
    # every row is non-empty
    assert np.all(np.diff(indptr) > 0) and indptr[0] == 0
    assert indptr[-1] == partner.size == loss.size
    row_of = np.repeat(np.arange(vertex.size), np.diff(indptr))
    for i, u in enumerate(vertex):
        got = partner[indptr[i] : indptr[i + 1]]
        upper, lower = got[got > i], got[got < i]
        assert np.array_equal(got, np.concatenate([upper, lower])), u
        # strictly ascending halves: partners are unique within a row
        assert np.all(np.diff(upper) > 0) and np.all(np.diff(lower) > 0), u
        np.testing.assert_array_equal(
            np.sort(vertex[got]), np.flatnonzero(common[u] >= 2)
        )
    np.testing.assert_array_equal(
        loss, choose2(common[vertex[row_of], vertex[partner]])
    )
    # once per endpoint: the (row, partner) entries are their own transpose
    forward = row_of * vertex.size + partner
    backward = partner.astype(np.int64) * vertex.size + row_of
    np.testing.assert_array_equal(np.sort(forward), np.sort(backward))
    row_sums = np.zeros_like(counts)
    np.add.at(row_sums, row_of, loss.astype(np.int64))
    np.testing.assert_array_equal(counts, row_sums)
    every = choose2(common).sum(axis=1)
    np.testing.assert_array_equal(counts, every[vertex])
    assert not np.delete(every, vertex).any()
    return built


def _with_leaves(g: BipartiteGraph, side: str, hubs: np.ndarray) -> BipartiteGraph:
    """``g`` plus one new degree-1 ``side`` vertex on each of ``hubs``
    (ids on the other side)."""
    hubs = np.asarray(hubs, dtype=np.int64)
    if side == "left":
        fresh = np.arange(g.n_left, g.n_left + hubs.size)
        leaves = np.column_stack([fresh, hubs])
        shape = (g.n_left + hubs.size, g.n_right)
    else:
        fresh = np.arange(g.n_right, g.n_right + hubs.size)
        leaves = np.column_stack([hubs, fresh])
        shape = (g.n_left, g.n_right + hubs.size)
    edges = np.concatenate([g.edges().reshape(-1, 2), leaves])
    return BipartiteGraph(edges, *shape)


@given(g=tip_graphs(), picks=st.lists(st.integers(0, 8), min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
@example(g=BipartiteGraph.complete(3, 4), picks=[0, 0, 1])
@example(g=BipartiteGraph.empty(4, 0), picks=[0])
def test_pair_table_ignores_leaf_pivots(g, picks):
    """Degree-1 pivots attached to the hubs of the other side store no
    pair and change no other pair's c: they get no slot, so the table of
    the graph with them is the table without them; the other side's
    table does not change either.  Every table holds the symmetric
    invariants."""
    for side in ("left", "right"):
        flip = "right" if side == "left" else "left"
        degrees = np.diff(_views(g, side)[1].indptr)
        if degrees.size == 0:
            continue
        hubs = np.argsort(-degrees, kind="stable")[: max(1, degrees.size // 2)]
        leafy = _with_leaves(g, side, hubs[np.asarray(picks) % hubs.size])
        for other in (side, flip):
            before = _assert_symmetric_table(g, other)
            after = _assert_symmetric_table(leafy, other)
            for old, new in zip((*before[0], *before[1:]), (*after[0], *after[1:])):
                np.testing.assert_array_equal(old, new)


def _counting_pair_table(monkeypatch) -> list:
    """Patch ``_pair_table`` to record each build's outcome (True when
    it returns a table)."""
    builds = []
    real = buckets._pair_table

    def counting(pivot_major, complementary):
        built = real(pivot_major, complementary)
        builds.append(built is not None)
        return built

    monkeypatch.setattr(buckets, "_pair_table", counting)
    return builds


def _fresh_planted() -> BipartiteGraph:
    return planted_bicliques(24, 24, 2, 4, 4, background_edges=30, seed=103)


def test_k_tip_after_tip_numbers_builds_one_table(monkeypatch):
    """``tip_numbers_bucket_parallel`` then the auto ``k_tip`` on one graph
    pay for one build; the k-tip counts the reuse.  Neither consumer
    subtracts from the table's counts: repeating the k-tip gives the
    same, and a k-tip never builds a table itself."""
    builds = _counting_pair_table(monkeypatch)
    g = _fresh_planted()
    tips = tip_numbers_bucket_parallel(g, n_workers=1)
    k = int(np.median(tips[tips > 0]))
    with obs.capture() as metrics:
        result = k_tip(g, k)
    assert builds == [True]
    assert metrics.value("peel.tip.pair_table_reused") == 1
    assert metrics.value("peel.tip.rounds") == result.rounds >= 2
    assert metrics.value("peel.tip.kept") == result.n_kept
    np.testing.assert_array_equal(result.kept, tips >= k)
    again = k_tip(g, k)
    np.testing.assert_array_equal(again.kept, result.kept)
    assert again.rounds == result.rounds
    with obs.capture() as metrics:
        fresh = k_tip(_fresh_planted(), k)
    assert builds == [True]
    assert "peel.tip.pair_table_reused" not in metrics
    np.testing.assert_array_equal(fresh.kept, result.kept)


def test_cached_pair_table_never_overrides_the_cap(monkeypatch):
    """On one graph object a ``k_tip`` peels from the table a tip
    decomposition left only under the cap that table was built under, so
    lowering the cap forces the recount rounds; the decomposition itself
    builds on every call, so a raised cap after a failure rebuilds."""
    builds = _counting_pair_table(monkeypatch)
    g = _fresh_planted()
    tips = tip_numbers_bucket_parallel(g, n_workers=1)
    k = int(np.median(tips[tips > 0]))
    default = buckets.PAIR_TABLE_MAX_BYTES

    def reused(cap):
        monkeypatch.setattr(buckets, "PAIR_TABLE_MAX_BYTES", cap)
        with obs.capture() as metrics:
            result = k_tip(g, k)
        np.testing.assert_array_equal(result.kept, tips >= k)
        return "peel.tip.pair_table_reused" in metrics

    assert reused(default)
    assert not reused(0)
    assert builds == [True]
    with obs.capture() as metrics:
        np.testing.assert_array_equal(tip_numbers_bucket_parallel(g, n_workers=1), tips)
    assert metrics.value("peel.tip.pair_table_fallback") == 1
    assert not reused(0)
    monkeypatch.setattr(buckets, "PAIR_TABLE_MAX_BYTES", default)
    np.testing.assert_array_equal(tip_numbers_bucket_parallel(g, n_workers=1), tips)
    assert builds == [True, False, True]
    assert reused(default)
    # the right side keeps its own table beside the left one
    with obs.capture() as metrics:
        k_tip(g, k, side="right")
    assert "peel.tip.pair_table_reused" not in metrics
    tip_numbers_bucket_parallel(g, side="right", n_workers=1)
    assert builds == [True, False, True, True]
    with obs.capture() as metrics:
        k_tip(g, k, side="left")
        k_tip(g, k, side="right")
    assert metrics.value("peel.tip.pair_table_reused") == 2


def test_derived_graphs_start_with_an_empty_pair_table_cache():
    """Masked, relabelled and side-swapped graphs hold no table (a copied
    one would peel the wrong graph): their k-tip recounts."""
    g = _fresh_planted()
    tip_numbers_bucket_parallel(g, n_workers=1)
    rng = np.random.default_rng(5)
    derived = {
        "masked": g.subgraph_from_mask(
            rng.random(g.n_left) < 0.7, np.ones(g.n_right, dtype=bool)
        ),
        "relabelled": g.relabel(rng.permutation(g.n_left)),
        "swapped": g.swap_sides(),
    }
    for name, d in derived.items():
        tips = tip_numbers(d, side="left")
        k = int(np.median(tips[tips > 0]))
        with obs.capture() as metrics:
            got = k_tip(d, k)
        assert "peel.tip.pair_table_reused" not in metrics, name
        np.testing.assert_array_equal(got.kept, tips >= k)


def test_pair_table_peak_stays_under_the_cap(monkeypatch):
    """Whatever the cap, building the table (or giving up on it) never
    allocates past it, build transients included — also where leaf
    pivots are pruned first (one in ``g``, 400 more in ``leafy``), so
    the pruned views are charged.  The 1 KiB steps cross the caps at
    which ``g`` gives up after pruning and the leaf-free ``K_{40,30}``
    gives up just past its fixed arrays (numpy's sort scratch counts)."""
    g = planted_bicliques(60, 60, 3, 12, 12, background_edges=300, seed=7)
    hubs = np.argsort(-np.diff(g.csc.indptr), kind="stable")[:10]
    leafy = _with_leaves(g, "left", np.repeat(hubs, 40))
    assert (np.diff(g.csr.indptr) == 1).sum() >= 1
    assert (np.diff(leafy.csr.indptr) == 1).sum() >= 400
    caps = (*range(1 << 14, 1 << 16, 1 << 10), *(1 << k for k in (17, 18, 19, 20, 22)))
    for graph in (g, leafy, BipartiteGraph.complete(40, 30)):
        pm, comp = graph.csr, graph.csc
        built = []
        for cap in caps:
            monkeypatch.setattr(buckets, "PAIR_TABLE_MAX_BYTES", cap)
            tracemalloc.start()
            try:
                table = buckets._pair_table(pm, comp)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= cap, cap
            built.append(table is not None)
        # the sweep covers both outcomes
        assert not built[0] and built[-1]


def test_tip_dense_biclique_over_the_cap_falls_back(monkeypatch):
    """A dense biclique whose table passes a lowered cap gives up part-way
    through the build and takes the fallback; the aborted build adds at
    most the cap to the fallback's own peak."""
    g = BipartiteGraph.complete(400, 20)
    chunks = []

    def counting_choose2(x):
        chunks.append(len(x))
        return choose2(x)

    def traced_peel(cap):
        monkeypatch.setattr(buckets, "PAIR_TABLE_MAX_BYTES", cap)
        chunks.clear()
        with obs.capture() as metrics:
            tracemalloc.start()
            try:
                tips = tip_numbers_bucket_parallel(g, n_workers=1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert metrics.value("peel.tip.pair_table_fallback") == 1
        assert "peel.tip.pair_table_bytes" not in metrics
        return tips, peak

    monkeypatch.setattr(buckets, "choose2", counting_choose2)
    # cap 0: straight to the fallback, before any table array exists
    _, fallback_peak = traced_peel(0)
    assert not chunks
    cap = 2 << 20
    tips, peak = traced_peel(cap)
    assert chunks  # the build reduced some chunks before giving up
    assert peak <= cap + fallback_peak
    np.testing.assert_array_equal(tips, tip_numbers(g, side="left"))


def test_tip_parallel_rejects_bad_args():
    g = GRAPHS["er"]
    with pytest.raises(ValueError, match="side"):
        tip_numbers_bucket_parallel(g, side="middle")
    with pytest.raises(ValueError, match="n_workers"):
        tip_numbers_bucket_parallel(g, n_workers=0)


def test_tip_decrement_batch_matches_single_removals():
    """A batch's per-vertex count losses equal the sum of the losses each
    removed vertex would cause alone on the *same static graph* — the
    additivity the bucketed rounds rely on.  Also pinned against the
    dense Σ_{u∈batch} C((AAᵀ)_uw, 2) form, on a spread-out batch, a batch
    holding the hub, and a batch whose members share endpoints (so the
    endpoint-major aggregation sums runs from several batch positions)."""
    g = GRAPHS["powerlaw"]
    pm, comp = g.csr, g.csc
    a = g.biadjacency_dense(np.int64)
    common = a @ a.T
    hub = int(np.argmax(pm.degrees()))
    # every partner has >= 2 common neighbours with the hub, so the hub is
    # an endpoint that loses butterflies to each of them
    partners = [int(w) for w in np.flatnonzero(common[hub] >= 2) if w != hub]
    assert len(partners) >= 3
    batches = {
        "spread": [0, 3, 7, 11],
        "hub": [hub, 0, 3],
        "shared": partners[:4],
    }
    for name, members in batches.items():
        ids = np.array(members, dtype=np.int64)
        affected, lost = tip_decrement_batch(pm, comp, ids)
        assert np.all(np.diff(affected) > 0) and np.all(lost > 0), name
        dense = np.zeros(pm.major_dim, dtype=np.int64)
        dense[affected] = lost
        expected = np.zeros(pm.major_dim, dtype=np.int64)
        for v in ids:
            a_v, l_v = tip_decrement_batch(
                pm, comp, np.array([v], dtype=np.int64)
            )
            expected[a_v] += l_v
        np.testing.assert_array_equal(dense, expected, err_msg=name)
        pair_losses = common[ids] * (common[ids] - 1) // 2
        pair_losses[np.arange(ids.size), ids] = 0  # no self-pairs
        np.testing.assert_array_equal(
            dense, pair_losses.sum(axis=0), err_msg=name
        )
        if name == "shared":
            assert dense[hub] > 0  # the members' common endpoint


def test_tip_decrement_batch_empty_ids():
    g = GRAPHS["er"]
    affected, lost = tip_decrement_batch(g.csr, g.csc, np.array([], dtype=np.int64))
    assert affected.size == 0 and lost.size == 0


# ----------------------------------------------------------------------
# observability: round-size gauge
# ----------------------------------------------------------------------
def test_bucket_occupancy_gauge_records_largest_round():
    with obs.capture() as metrics:
        tip_numbers_bucket_parallel(GRAPHS["planted"], n_workers=2)
    gauge = metrics.gauge("peel.rounds.bucket_occupancy")
    assert gauge.policy == "max"
    assert metrics.value("peel.rounds.bucket_occupancy") >= 1
    # the max-policy gauge records the largest extracted bucket, which is
    # bounded by the peeled side's vertex count
    assert metrics.value("peel.rounds.bucket_occupancy") <= GRAPHS["planted"].n_left


def test_bucket_occupancy_gauge_from_wing_rounds():
    with obs.capture() as metrics:
        wing_numbers_bucket(GRAPHS["er"])
    assert metrics.value("peel.rounds.bucket_occupancy") >= 1


@pytest.mark.parametrize("table", (True, False), ids=("pair-table", "fallback"))
def test_tip_trace_names_the_path(table, monkeypatch):
    """One trace says which tip path ran and what the table cost; the
    round-size gauge is there on both paths."""
    g = GRAPHS["planted"]
    if not table:
        monkeypatch.setattr(buckets, "PAIR_TABLE_MAX_BYTES", 0)
    with obs.capture() as metrics:
        tip_numbers_bucket_parallel(g, n_workers=1)
    assert metrics.value("peel.rounds.bucket_occupancy") >= 1
    if table:
        assert "peel.tip.pair_table_fallback" not in metrics
        # one indptr of s + 1 int64 entries and one int32 vertex id per
        # slot, then int32 partner and loss per entry
        (_, partner, _), vertex, _ = buckets.cached_pair_table(g, "left")
        assert 0 < vertex.size < g.n_left
        assert metrics.value("peel.tip.pair_table_bytes") == (
            8 * (vertex.size + 1) + 4 * vertex.size + 8 * partner.size
        )
    else:
        assert metrics.value("peel.tip.pair_table_fallback") == 1
        assert "peel.tip.pair_table_bytes" not in metrics


@pytest.mark.parametrize(
    "cap", (buckets.PAIR_TABLE_MAX_BYTES, 0), ids=("pair-table", "fallback")
)
def test_tip_metrics_are_a_no_op_when_disabled(cap, monkeypatch):
    monkeypatch.setattr(buckets, "PAIR_TABLE_MAX_BYTES", cap)
    with obs.capture() as metrics:
        with obs.disabled():
            tip_numbers_bucket_parallel(GRAPHS["planted"], n_workers=1)
            k_tip(GRAPHS["planted"], 5)
    assert len(metrics) == 0
