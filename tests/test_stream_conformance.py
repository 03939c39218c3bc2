"""Randomized-script differential conformance harness for the stream tier.

The contract under test: after **every** flush-delimited batch of a
script, :class:`repro.core.stream.StreamingButterflyCounter` must agree
*bitwise* — global count, per-left array, per-right array, edge set —
with a from-scratch recount of the reference edge set (maintained as a
plain Python set with the documented batch semantics: deletes before
inserts, duplicates collapsed, absent deletes / present inserts skipped).

Sources of scripts:

- a hypothesis strategy over a 6-graph corpus of starting shapes, whose
  scripts mix single edits with small biclique inserts (batches that
  close butterflies among their own edges) and hub deletes
  (shrink-friendly: scripts are flat op-tuple lists, so failures shrink
  to tiny readable reproducers — commit those to
  ``tests/data/stream_scripts/``);
- the two probe sides forced against each other: each incremental phase
  pivots on one side and credits both, so pinning left and pinning right
  must give identical stats and arrays after every batch;
- the probe's two paths forced against each other on both sides: a
  bitmap row for every tested row, for none (sorted search only, also
  with its argsort fallback) and the rule's own mix;
- the split phase (each edge on its cheaper pivot, two passes) forced
  on graphs with a hub on each side, against a brute-force enumeration
  and both pinned sides in every probe mode, plus hand-built butterflies
  with one edge in each group (G1's pass counts them);
- hand-written adversarial cases (re-insert after delete,
  delete-then-insert inside one batch, hub-heavy batches, empty batches,
  intra-batch duplicates);
- the committed regression corpus under ``tests/data/stream_scripts/``
  (file names carry the shape: ``<m>x<n>__<name>.txt``);
- the spliced CSR/CSC views against a fresh build after every batch
  (random scripts in every probe mode, side and strategy, plus boundary
  rows and columns, whole-row/column/graph deletes, empty to full, and
  batches after a snapshot restore);
- three pinned ≥2000-op scripts (fixed RNG seeds), marked ``slow``.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import count_butterflies, vertex_butterfly_counts
from repro.core.stream import StreamingButterflyCounter
from repro.core.stream import counter as stream_counter
from repro.core.stream.script import (
    format_script,
    iter_batches,
    load_script,
    parse_script,
)
from repro.engine.plan import STREAM_STRATEGIES
from repro.graphs import (
    BipartiteGraph,
    erdos_renyi_bipartite,
    planted_bicliques,
    power_law_bipartite,
)
from repro.sparsela import PatternCOO, PatternCSC, PatternCSR

SCRIPTS_DIR = os.path.join(os.path.dirname(__file__), "data", "stream_scripts")


def _corpus() -> dict[str, BipartiteGraph]:
    """Starting graphs spanning the shapes the counting matrix pins."""
    return {
        "empty": BipartiteGraph.empty(6, 8),
        "star": BipartiteGraph([(0, j) for j in range(8)], n_left=1, n_right=8),
        "complete": BipartiteGraph.complete(4, 5),
        "er": erdos_renyi_bipartite(25, 30, 0.15, seed=101),
        "powerlaw": power_law_bipartite(40, 50, 250, seed=102),
        "planted": planted_bicliques(24, 24, 2, 4, 4, background_edges=30, seed=103),
    }


CORPUS = _corpus()


def _reference_counts(shape, edges):
    m, n = shape
    if edges:
        g = BipartiteGraph(sorted(edges), n_left=m, n_right=n)
        return (
            count_butterflies(g),
            vertex_butterfly_counts(g, "left"),
            vertex_butterfly_counts(g, "right"),
        )
    return (
        0,
        np.zeros(m, dtype=np.int64),
        np.zeros(n, dtype=np.int64),
    )


def _assert_script_conforms(
    graph, ops, *, strategy="incremental", probe_side=None
):
    """Replay ``ops`` batch by batch, cross-checking every count bitwise.

    ``probe_side`` pins the side every incremental phase probes (the
    counter's private test hook); ``None`` lets the counter pick.
    """
    shape = (graph.n_left, graph.n_right)
    counter = StreamingButterflyCounter(graph)
    counter._probe_side = probe_side
    edges = {tuple(map(int, e)) for e in graph.edges()}
    for batch_no, (insert, delete) in enumerate(iter_batches(ops)):
        counter.apply(insert=insert, delete=delete, strategy=strategy)
        edges = (edges - set(delete)) | set(insert)
        want_count, want_left, want_right = _reference_counts(shape, edges)
        context = f"batch {batch_no} of:\n{format_script(ops)}"
        assert counter.n_edges == len(edges), context
        assert counter.count == want_count, context
        assert np.array_equal(counter.vertex_counts("left"), want_left), context
        assert np.array_equal(counter.vertex_counts("right"), want_right), context
    return counter


# ----------------------------------------------------------------------
# randomized scripts (hypothesis)
# ----------------------------------------------------------------------
def _hub_deletes(g):
    """Op lists deleting every possible edge of a top-degree vertex.

    Two per side, chosen by degree in the start graph; on the edge-free
    graph they delete whatever the script inserted at that vertex.
    """
    rows = np.argsort(-g.degrees_left(), kind="stable")[:2]
    cols = np.argsort(-g.degrees_right(), kind="stable")[:2]
    return [[("-", int(u), v) for v in range(g.n_right)] for u in rows] + [
        [("-", u, int(v)) for u in range(g.n_left)] for v in cols
    ]


@st.composite
def _scripts(draw):
    name = draw(st.sampled_from(sorted(CORPUS)))
    g = CORPUS[name]
    left = st.integers(0, g.n_left - 1)
    right = st.integers(0, g.n_right - 1)
    edit = st.tuples(st.sampled_from(("+", "-")), left, right)
    # a biclique insert closes butterflies among the batch's own edges
    block = st.tuples(
        st.lists(left, min_size=1, max_size=3, unique=True),
        st.lists(right, min_size=2, max_size=3, unique=True),
    ).map(lambda uv: [("+", u, v) for u in uv[0] for v in uv[1]])
    chunk = st.one_of(
        st.just([("flush",)]),
        edit.map(lambda op: [op]),
        block,
        st.sampled_from(_hub_deletes(g)),
    )
    chunks = draw(st.lists(chunk, max_size=24))
    return name, [op for ops in chunks for op in ops]


@settings(max_examples=200, deadline=None)
@given(_scripts())
def test_randomized_scripts_conform(case):
    name, ops = case
    _assert_script_conforms(CORPUS[name], ops)


# Each phase probes the side with fewer delta wedges; the counter's
# ``_probe_side`` hook pins one side for every batch.
@settings(max_examples=40, deadline=None)
@given(_scripts())
def test_randomized_scripts_conform_left_probe(case):
    name, ops = case
    _assert_script_conforms(CORPUS[name], ops, probe_side="left")


@settings(max_examples=40, deadline=None)
@given(_scripts())
def test_randomized_scripts_conform_right_probe(case):
    name, ops = case
    _assert_script_conforms(CORPUS[name], ops, probe_side="right")


@settings(max_examples=100, deadline=None)
@given(_scripts())
def test_left_and_right_probes_agree(case):
    """One side's probe credits both sides: pinning left and pinning right
    must give the same stats and bit-identical per-vertex arrays after
    every batch, equal to a recount."""
    name, ops = case
    g = CORPUS[name]
    shape = (g.n_left, g.n_right)
    by_left = StreamingButterflyCounter(g)
    by_left._probe_side = "left"
    by_right = StreamingButterflyCounter(g)
    by_right._probe_side = "right"
    edges = {tuple(map(int, e)) for e in g.edges()}
    for batch_no, (insert, delete) in enumerate(iter_batches(ops)):
        stats_left = by_left.apply(insert=insert, delete=delete)
        stats_right = by_right.apply(insert=insert, delete=delete)
        edges = (edges - set(delete)) | set(insert)
        want_count, want_left, want_right = _reference_counts(shape, edges)
        context = f"batch {batch_no} of:\n{format_script(ops)}"
        assert stats_left == stats_right, context
        assert by_left.count == by_right.count == want_count, context
        for counter in (by_left, by_right):
            assert np.array_equal(counter.vertex_counts("left"), want_left)
            assert np.array_equal(counter.vertex_counts("right"), want_right)


def test_one_probe_per_phase():
    """A phase runs one ``_side_delta`` pass per non-empty group: exactly
    one when it does not split (the other side is credited from it), two
    when it does (G1's left pass, then G2's right pass)."""
    g = CORPUS["planted"]
    ops = _long_script(5, 120, g.n_left, g.n_right)
    with _recorded_passes() as passes:
        _assert_script_conforms(g, [op for op in ops if op[0] != "flush"])
    assert len(passes) == 2  # a delete and an insert phase
    assert all(p in (["left"], ["right"]) for p in passes)
    with _split_gate(0), _recorded_passes() as passes:
        _assert_script_conforms(_two_hub_graph(_HAND_BUILT_LEAVES), _HAND_BUILT_OPS)
    assert passes == [["G1", "G2"], ["G1", "G2"]]


def test_auto_probe_picks_both_sides():
    """Left to itself, the counter probes each side on some batches of a
    seeded random run (recorded as ``stream.apply.probe.<side>``)."""
    with obs.capture() as metrics:
        for name, g in sorted(CORPUS.items()):
            ops = _long_script(7, 300, g.n_left, g.n_right)
            _assert_script_conforms(g, ops)
    assert metrics.value("stream.apply.probe.left") > 0
    assert metrics.value("stream.apply.probe.right") > 0


@settings(max_examples=25, deadline=None)
@given(_scripts())
def test_recount_strategy_matches_incremental(case):
    name, ops = case
    inc = _assert_script_conforms(CORPUS[name], ops, strategy="incremental")
    rec = _assert_script_conforms(CORPUS[name], ops, strategy="recount")
    assert inc.count == rec.count
    assert np.array_equal(inc.vertex_counts("left"), rec.vertex_counts("left"))
    assert np.array_equal(inc.vertex_counts("right"), rec.vertex_counts("right"))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_constructor_count_agrees_with_both_sides(name):
    """The constructor derives Ξ from the per-left vector alone; it must
    equal an independent whole-graph count and the per-right half-sum."""
    g = CORPUS[name]
    counter = StreamingButterflyCounter(g)
    assert counter.count == count_butterflies(g)
    assert counter.count == int(counter.vertex_counts("right").sum()) // 2


# ----------------------------------------------------------------------
# adversarial deterministic cases
# ----------------------------------------------------------------------
def test_reinsert_after_delete_restores_counts():
    square = [("+", u, v) for u in range(3) for v in range(3)]
    ops = (
        square
        + [("flush",)]
        + [("-", u, v) for u in range(3) for v in range(3)]
        + [("flush",)]
        + square
    )
    counter = _assert_script_conforms(BipartiteGraph.empty(6, 8), ops)
    assert counter.count == 9  # C(3,2)^2


def test_delete_then_insert_same_batch_ends_present():
    g = BipartiteGraph([(0, 0), (0, 1), (1, 0)], n_left=2, n_right=2)
    ops = [("-", 1, 1), ("+", 1, 1)]  # delete of an absent edge, then insert
    counter = _assert_script_conforms(g, ops)
    assert counter.has_edge(1, 1) and counter.count == 1
    # now listed in both on a *present* edge: delete applies first,
    # insert restores — the edge ends present, counts unchanged
    counter2 = _assert_script_conforms(
        BipartiteGraph.complete(2, 2), [("-", 0, 0), ("+", 0, 0)]
    )
    assert counter2.has_edge(0, 0) and counter2.count == 1


def test_hub_heavy_batches():
    # every batch edge shares the one hub row: maximal intra-batch overlap
    star = CORPUS["star"]
    ops = []
    for v in range(8):
        ops += [("-", 0, v), ("flush",), ("+", 0, v), ("flush",)]
    _assert_script_conforms(star, ops)
    # hub column on the powerlaw corpus graph
    pl = CORPUS["powerlaw"]
    ops = [("+", u, 0) for u in range(pl.n_left)] + [("flush",)]
    ops += [("-", u, 0) for u in range(0, pl.n_left, 2)]
    _assert_script_conforms(pl, ops)


def test_empty_batches_are_noops():
    g = CORPUS["er"]
    before = StreamingButterflyCounter(g).count
    counter = _assert_script_conforms(
        g, [("flush",), ("flush",), ("flush",)]
    )
    assert counter.count == before
    assert counter.apply()["batch_size"] == 0


def test_intra_batch_duplicates_collapse():
    ops = [
        ("+", 0, 0), ("+", 0, 0), ("+", 0, 1), ("+", 1, 0), ("+", 1, 1),
        ("+", 1, 1), ("flush",),
        ("-", 0, 0), ("-", 0, 0), ("flush",),
    ]
    counter = _assert_script_conforms(BipartiteGraph.empty(4, 4), ops)
    assert counter.n_edges == 3


def test_mixed_batch_insert_wins_over_delete():
    # the same new edge in both lists of one batch: deletes go first
    # (skipped, edge absent), the insert lands
    counter = _assert_script_conforms(
        BipartiteGraph.empty(3, 3),
        [("+", 2, 2), ("-", 2, 2)],
    )
    assert counter.has_edge(2, 2)


@pytest.mark.parametrize(
    ("vertex", "side", "error"),
    [
        (-1, "left", IndexError),
        (3, "left", IndexError),
        (-3, "right", IndexError),
        (4, "right", IndexError),
        (0, "top", ValueError),
    ],
    ids=["minus-one", "n-left", "minus-n", "n-right", "bad-side"],
)
def test_vertex_count_is_bounds_checked(vertex, side, error):
    """No numpy wrap-around: -1 is not the last vertex."""
    counter = StreamingButterflyCounter(BipartiteGraph.complete(3, 4))
    with pytest.raises(error):
        counter.vertex_count(vertex, side)
    assert counter.vertex_count(2) == counter.vertex_counts("left")[2]


@pytest.mark.parametrize("kind", ["insert", "delete"])
@pytest.mark.parametrize(
    ("edges", "bad_row"),
    [
        (np.array([[2.7, 0.9]]), 0),
        (np.array([[0.0, 1.0], [1.0, 0.5]]), 1),
        (np.array([[True, False]]), 0),
        ([(0, 1), (1.5, 2)], 1),
        ([(np.nan, 0)], 0),
        ([("a", "b")], 0),
    ],
    ids=["fraction", "second-row", "bool-array", "float-tuple", "nan", "text"],
)
def test_non_integral_batch_ids_rejected_naming_the_row(kind, edges, bad_row):
    """A batch passes the same id check as the graph constructor: nothing
    is truncated into a different edge, and nothing is applied."""
    g = BipartiteGraph.complete(3, 3)
    counter = StreamingButterflyCounter(g)
    with pytest.raises(ValueError, match=f"must be integers.*row {bad_row}"):
        counter.apply(**{kind: edges})
    assert (counter.n_edges, counter.count) == (g.n_edges, count_butterflies(g))


def test_integral_float_batch_ids_accepted():
    counter = StreamingButterflyCounter(BipartiteGraph.empty(3, 3))
    counter.apply(insert=np.array([[2.0, 0.0], [1.0, 1.0]]))
    assert counter.has_edge(2, 0) and counter.has_edge(1, 1)
    counter.apply(delete=[(2.0, 0.0)])
    assert not counter.has_edge(2, 0) and counter.n_edges == 1


# ----------------------------------------------------------------------
# the common-mid probe: bitmap rows against the sorted search
# ----------------------------------------------------------------------
#: Probe bounds (module names in ``counter``) forcing each probe path:
#: the rule's own mix, a bitmap row for every tested row, none (all
#: sorted search), and none with the argsort fallback of the search.
PROBE_MODES = {
    "rule": {},
    "all-bitmap": {
        "_BITMAP_QUERY_RATIO": 0.0, "_BITMAP_BYTES_PER_ENTRY": 1 << 40,
    },
    "no-bitmap": {"_BITMAP_BYTES_PER_ENTRY": 0},
    "no-bitmap-argsort": {"_BITMAP_BYTES_PER_ENTRY": 0, "_PACKED_KEY_LIMIT": 0},
}


@contextmanager
def _probe_bounds(mode):
    """Set the counter module's probe bounds for one ``apply`` call."""
    saved = {name: getattr(stream_counter, name) for name in PROBE_MODES[mode]}
    for name, value in PROBE_MODES[mode].items():
        setattr(stream_counter, name, value)
    try:
        yield
    finally:
        for name, value in saved.items():
            setattr(stream_counter, name, value)


def _assert_probe_modes_agree(g, ops):
    """Every probe mode on both probe sides: identical stats and arrays
    after every batch, equal to a recount."""
    shape = (g.n_left, g.n_right)
    runs = {}
    for mode in PROBE_MODES:
        for side in ("left", "right"):
            counter = StreamingButterflyCounter(g)
            counter._probe_side = side
            runs[mode, side] = counter
    edges = {tuple(map(int, e)) for e in g.edges()}
    for batch_no, (insert, delete) in enumerate(iter_batches(ops)):
        stats = set()
        for (mode, _), counter in runs.items():
            with _probe_bounds(mode):
                got = counter.apply(insert=insert, delete=delete)
            stats.add(tuple(sorted(got.items())))
        edges = (edges - set(delete)) | set(insert)
        want_count, want_left, want_right = _reference_counts(shape, edges)
        context = f"batch {batch_no} of:\n{format_script(ops)}"
        assert len(stats) == 1, context
        for counter in runs.values():
            assert counter.count == want_count, context
            assert np.array_equal(counter.vertex_counts("left"), want_left), context
            assert np.array_equal(counter.vertex_counts("right"), want_right), context


@settings(max_examples=60, deadline=None)
@given(_scripts())
def test_probe_modes_agree(case):
    name, ops = case
    _assert_probe_modes_agree(CORPUS[name], ops)


@pytest.mark.parametrize("name", ["star", "powerlaw", "planted"])
def test_probe_modes_agree_on_hub_and_empty_batches(name):
    """Hub deletes and re-inserts (one row answers every probe) between
    empty batches, in every probe mode."""
    g = CORPUS[name]
    ops = [("flush",)]
    for hub_ops in _hub_deletes(g):
        ops += hub_ops + [("flush",), ("flush",)]
        ops += [("+", u, v) for _, u, v in hub_ops] + [("flush",)]
    _assert_probe_modes_agree(g, ops)


def test_probe_modes_take_their_paths():
    """The forced bounds really pick the path: every entry on the bitmap,
    every entry searched, and the rule's mix using both."""
    g = CORPUS["powerlaw"]
    ops = _long_script(9, 400, g.n_left, g.n_right)
    seen = {}
    for mode in ("rule", "all-bitmap", "no-bitmap"):
        with _probe_bounds(mode), obs.capture() as metrics:
            _assert_script_conforms(g, ops)
        seen[mode] = {
            key: metrics.value(f"stream.apply.probe.{key}")
            for key in ("bitmap_rows", "bitmap_entries", "search_entries")
        }
    assert seen["all-bitmap"]["search_entries"] == 0
    assert seen["all-bitmap"]["bitmap_entries"] > 0
    assert seen["no-bitmap"]["bitmap_rows"] == 0
    assert seen["no-bitmap"]["bitmap_entries"] == 0
    assert seen["rule"]["bitmap_entries"] > 0
    assert seen["rule"]["search_entries"] > 0


# ----------------------------------------------------------------------
# the probe's workspace, kept across phases, batches and errors
# ----------------------------------------------------------------------
def _graph_of(shape, edges):
    if not edges:
        return BipartiteGraph.empty(*shape)
    return BipartiteGraph(sorted(edges), n_left=shape[0], n_right=shape[1])


def _step(counter, edges, insert, delete):
    """Apply one batch to ``counter`` and check it bitwise against a fresh
    counter over the same start graph and against a recount; returns the
    new edge set."""
    shape = (counter.n_left, counter.n_right)
    fresh = StreamingButterflyCounter(_graph_of(shape, edges))
    fresh._probe_side = counter._probe_side
    want_stats = fresh.apply(insert=insert, delete=delete)
    stats = counter.apply(insert=insert, delete=delete)
    edges = (edges - set(delete)) | set(insert)
    want_count, want_left, want_right = _reference_counts(shape, edges)
    assert stats == want_stats
    assert counter.count == fresh.count == want_count
    for side, want in (("left", want_left), ("right", want_right)):
        assert np.array_equal(counter.vertex_counts(side), want)
        assert np.array_equal(fresh.vertex_counts(side), want)
    return edges


def _assert_workspace_clean(counter):
    """Between probes the bitmap is all zero and every slot −1."""
    buffers = counter._scratch._buffers
    assert not counter._scratch._scattered
    if "bitmap" in buffers:
        assert not buffers["bitmap"].any()
    if "slot" in buffers:
        assert (buffers["slot"] == -1).all()


def _random_deletes(rng, edges, k):
    pool = sorted(edges)
    picks = rng.choice(len(pool), size=min(k, len(pool)), replace=False)
    return [pool[i] for i in picks]


#: a 4000-edge power-law graph: 150 random deletes probe ~58k entries,
#: several blocks at the shipped block size
_BLOCKS_GRAPH = power_law_bipartite(200, 250, 4000, seed=7)


@pytest.mark.parametrize("block", [None, 7])
def test_workspace_across_batch_sizes(block, monkeypatch):
    """One counter fed empty, small, block-spanning and small batches
    again: its kept buffers serve every size."""
    if block is not None:
        monkeypatch.setattr(stream_counter, "_PROBE_BLOCK", block)
    g = _BLOCKS_GRAPH
    rng = np.random.default_rng(5)
    counter = StreamingButterflyCounter(g)
    edges = {tuple(map(int, e)) for e in g.edges()}
    small = [(1, 2), (3, 4), (1, 4)]
    with obs.capture() as metrics:
        for insert, delete in (
            ([], []), (small, []),
            (small[:1], _random_deletes(rng, edges, 150)),
            ([], small), ([(0, 0)], []),
        ):
            edges = _step(counter, edges, insert, delete)
            _assert_workspace_clean(counter)
    entries = metrics.value("stream.apply.probe.bitmap_entries")
    assert entries > stream_counter._PROBE_BLOCK  # it took several blocks
    # the blocks bound the entry buffers: one block plus its last pair's
    mids = counter._scratch._buffers["mids"]
    assert mids.size <= stream_counter._PROBE_BLOCK + int(g.degrees_left().max())


def test_workspace_of_two_interleaved_counters():
    """Two counters of different shapes, fed batch by batch in turn: each
    keeps its own workspace."""
    rng = np.random.default_rng(6)
    runs = []
    for g in (_BLOCKS_GRAPH, CORPUS["powerlaw"]):
        ops = _long_script(int(rng.integers(1000)), 300, g.n_left, g.n_right)
        batches = list(iter_batches(ops))
        edges = {tuple(map(int, e)) for e in g.edges()}
        batches.insert(1, ([], _random_deletes(rng, edges, 60)))
        runs.append([StreamingButterflyCounter(g), edges, batches])
    for i in range(max(len(batches) for _, _, batches in runs)):
        for run in runs:
            counter, edges, batches = run
            if i < len(batches):
                run[1] = _step(counter, edges, *batches[i])
    assert runs[0][0]._scratch is not runs[1][0]._scratch


def test_workspace_after_restore_mid_stream():
    """``restore`` swaps the state under a warm workspace: a smaller
    graph's phases run in the larger one's buffers."""
    rng = np.random.default_rng(7)
    g = _BLOCKS_GRAPH
    counter = StreamingButterflyCounter(g)
    edges = {tuple(map(int, e)) for e in g.edges()}
    edges = _step(counter, edges, [], _random_deletes(rng, edges, 150))
    other = StreamingButterflyCounter(BipartiteGraph.empty(g.n_left, g.n_right))
    other.apply(insert=[(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)])
    counter.restore(other.snapshot())
    edges = {(0, 0), (0, 1), (1, 0), (1, 1), (2, 1)}
    for insert, delete in (([(2, 0)], []), ([], [(0, 0)]), ([(3, 0), (3, 1)], [])):
        edges = _step(counter, edges, insert, delete)
    edges = _step(counter, edges, [tuple(map(int, e)) for e in g.edges()[:400]], [])
    _assert_workspace_clean(counter)


@pytest.mark.parametrize("fail_in", ["_row_bitmap", "_bitmap_hits"])
def test_workspace_clean_after_a_probe_raises(fail_in, monkeypatch):
    """A probe that raises after setting bitmap bits and slots leaves the
    workspace clean and the counter unchanged; later batches are exact."""
    rng = np.random.default_rng(8)
    g = _BLOCKS_GRAPH
    counter = StreamingButterflyCounter(g)
    edges = {tuple(map(int, e)) for e in g.edges()}
    edges = _step(counter, edges, [], _random_deletes(rng, edges, 150))
    real = getattr(stream_counter, fail_in)
    calls = []

    def fails_once(ws, *args, **kwargs):
        out = real(ws, *args, **kwargs)
        if not calls:
            calls.append(True)
            assert ws._scattered  # bits and slots are set
            raise RuntimeError("probe failed")
        return out

    monkeypatch.setattr(stream_counter, fail_in, fails_once)
    before = (counter.count, counter.vertex_counts("left"),
              counter.vertex_counts("right"), counter.n_edges)
    deletes = _random_deletes(rng, edges, 150)
    with pytest.raises(RuntimeError, match="probe failed"):
        counter.apply(delete=deletes)
    assert calls
    _assert_workspace_clean(counter)
    assert counter.count == before[0] and counter.n_edges == before[3]
    assert np.array_equal(counter.vertex_counts("left"), before[1])
    assert np.array_equal(counter.vertex_counts("right"), before[2])
    edges = _step(counter, edges, [], deletes)
    edges = _step(counter, edges, [(0, 0), (5, 7)], _random_deletes(rng, edges, 150))
    _assert_workspace_clean(counter)


def test_workspace_across_probe_modes_and_sides():
    """One counter switched between every probe mode and side batch by
    batch: each phase starts from a clean bitmap and slot buffer whatever
    the last one used."""
    rng = np.random.default_rng(9)
    g = CORPUS["powerlaw"]
    counter = StreamingButterflyCounter(g)
    edges = {tuple(map(int, e)) for e in g.edges()}
    modes = [(mode, side) for mode in PROBE_MODES for side in ("left", "right")]
    ops = _long_script(21, 16 * 50, g.n_left, g.n_right)
    batches = list(iter_batches(ops))
    for i, (insert, delete) in enumerate(batches):
        mode, side = modes[i % len(modes)]
        if i % 3 == 1:
            delete = delete + _random_deletes(rng, edges, 40)
        counter._probe_side = side
        with _probe_bounds(mode):
            edges = _step(counter, edges, insert, delete)
        _assert_workspace_clean(counter)


def test_scratch_gauge_reports_the_held_bytes():
    """``stream.apply.scratch_bytes`` (policy max) is the workspace's held
    bytes, recorded only when observing."""
    rng = np.random.default_rng(10)
    g = _BLOCKS_GRAPH
    counter = StreamingButterflyCounter(g)
    edges = {tuple(map(int, e)) for e in g.edges()}
    with obs.disabled():
        counter.apply(delete=_random_deletes(rng, edges, 150))
    held = counter._scratch.nbytes
    assert held > 0
    with obs.capture() as metrics:
        counter.apply(delete=_random_deletes(rng, edges, 10))
        gauge = metrics.get("stream.apply.scratch_bytes")
    assert gauge.policy == "max"
    assert gauge.value == counter._scratch.nbytes >= held


def _butterflies(edges):
    """Every butterfly of an edge set, as the frozenset of its four edges."""
    by_left: dict[int, set[int]] = {}
    for u, v in edges:
        by_left.setdefault(u, set()).add(v)
    out = set()
    for u, w in combinations(sorted(by_left), 2):
        for x, y in combinations(sorted(by_left[u] & by_left[w]), 2):
            out.add(frozenset({(u, x), (u, y), (w, x), (w, y)}))
    return out


def _brute_force_batch(edges, insert, delete):
    """One batch's ``created``/``destroyed`` and the edge set after it,
    from every butterfly before and after each phase; also the destroyed
    and created butterflies themselves and the edges the batch changed."""
    gone = edges & set(delete)
    kept = edges - gone
    added = set(insert) - kept
    between = _butterflies(kept)
    destroyed = _butterflies(edges) - between
    created = _butterflies(kept | added) - between
    stats = {"created": len(created), "destroyed": len(destroyed)}
    return stats, kept | added, destroyed, created, gone | added


@pytest.mark.parametrize("probe_side", [None, "left", "right"])
@pytest.mark.parametrize("name", ["complete", "er", "planted", "powerlaw"])
def test_self_closing_batches_match_brute_force(name, probe_side):
    """Batches whose edges close butterflies with each other (two or more
    batch edges in one butterfly) give the ``created``/``destroyed``, the
    count and both per-vertex arrays of enumerating every butterfly
    before and after each phase; ``recount`` gives the same stats."""
    g = CORPUS[name]
    shape = (g.n_left, g.n_right)
    rng = np.random.default_rng(11)
    counter = StreamingButterflyCounter(g)
    counter._probe_side = probe_side
    recount = StreamingButterflyCounter(g)
    edges = {tuple(map(int, e)) for e in g.edges()}
    closures = 0
    for _ in range(6):
        present = sorted(edges)
        picks = rng.choice(len(present), size=min(6, len(present)), replace=False)
        delete = [present[i] for i in picks]
        us = rng.choice(g.n_left, size=min(3, g.n_left), replace=False)
        vs = rng.choice(g.n_right, size=3, replace=False)
        insert = [(int(u), int(v)) for u in us for v in vs]
        stats = counter.apply(insert=insert, delete=delete)
        assert recount.apply(insert=insert, delete=delete, strategy="recount") == stats
        want, edges, destroyed, created, changed = _brute_force_batch(
            edges, insert, delete
        )
        assert {key: stats[key] for key in want} == want
        want_count, want_left, want_right = _reference_counts(shape, edges)
        assert counter.count == want_count
        assert np.array_equal(counter.vertex_counts("left"), want_left)
        assert np.array_equal(counter.vertex_counts("right"), want_right)
        closures += sum(len(b & changed) >= 2 for b in destroyed | created)
    assert closures > 0


# ----------------------------------------------------------------------
# the split phase: each edge pivots on its cheaper side, G1 (left
# pivots) against the graph with the batch, G2 (right) against the one
# without it
# ----------------------------------------------------------------------
@contextmanager
def _split_gate(wedges):
    """Set the counter's split gate (``_SPLIT_MIN_WEDGES``) for a block;
    0 splits every phase where orienting each edge saves any wedge."""
    saved = stream_counter._SPLIT_MIN_WEDGES
    stream_counter._SPLIT_MIN_WEDGES = wedges
    try:
        yield
    finally:
        stream_counter._SPLIT_MIN_WEDGES = saved


@contextmanager
def _recorded_passes():
    """Record every phase's ``_side_delta`` passes: one list per phase
    holding ``"left"``/``"right"`` for a whole-phase pass and ``"G1"``/
    ``"G2"`` for a split phase's."""
    phases = []
    side_delta = stream_counter._side_delta
    apply_phase = StreamingButterflyCounter._apply_phase

    def phase(self, *args, **kwargs):
        phases.append([])
        return apply_phase(self, *args, **kwargs)

    def one_pass(ws, probe, big, batch_keys, rows, cols, left_group, on_left):
        names = ("left", "right") if left_group is None else ("G1", "G2")
        phases[-1].append(names[0] if on_left else names[1])
        return side_delta(ws, probe, big, batch_keys, rows, cols, left_group, on_left)

    stream_counter._side_delta = one_pass
    StreamingButterflyCounter._apply_phase = phase
    try:
        yield phases
    finally:
        stream_counter._side_delta = side_delta
        StreamingButterflyCounter._apply_phase = apply_phase


#: Leaves per side of a two-hub graph: left hub 0 is joined to every
#: right vertex and right hub 0 to every left one, so a hub edge's leaf
#: end is its cheaper pivot's mid.
_HUB_LEAVES = 9


def _two_hub_graph(leaf_edges):
    n = _HUB_LEAVES + 1
    hubs = {(0, v) for v in range(n)} | {(u, 0) for u in range(n)}
    return BipartiteGraph(
        sorted(hubs | set(leaf_edges)), n_left=n, n_right=n
    )


@st.composite
def _two_hub_scripts(draw):
    """Leaf edges of a two-hub graph, then 1–3 batches that delete hub
    edges of both hubs and leaf edges, and re-insert some of each hub's
    deleted edges with new leaf edges.

    A leaf holds at most 1 + 4 + 2 edges through the first batch and a
    hub at least 9, so both of its phases hold a left-pivot and a
    right-pivot edge, and split under gate 0.
    """
    leaf = st.tuples(st.integers(1, _HUB_LEAVES), st.integers(1, _HUB_LEAVES))
    start = draw(st.lists(leaf, max_size=4, unique=True))
    hub_edges = [
        st.lists(st.sampled_from(hub), min_size=1, max_size=2, unique=True)
        for hub in (
            [(0, v) for v in range(1, _HUB_LEAVES + 1)],
            [(u, 0) for u in range(1, _HUB_LEAVES + 1)],
        )
    ]
    batches = []
    for _ in range(draw(st.integers(1, 3))):
        gone = [draw(edges) for edges in hub_edges]
        back = [draw(st.lists(st.sampled_from(g), min_size=1, unique=True))
                for g in gone]
        delete = gone[0] + gone[1] + draw(st.lists(leaf, max_size=3))
        insert = back[0] + back[1] + draw(st.lists(leaf, max_size=2))
        batches.append((insert, delete))
    return start, batches


@pytest.mark.parametrize("mode", sorted(PROBE_MODES))
@settings(max_examples=25, deadline=None)
@given(_two_hub_scripts())
def test_split_phases_match_brute_force_and_both_sides(mode, case):
    """Split phases (forced by gate 0) give the count, both per-vertex
    arrays and the whole stats dict of a brute-force enumeration and of
    the same batches pinned to either side, in every probe mode."""
    start, batches = case
    g = _two_hub_graph(start)
    shape = (g.n_left, g.n_right)
    counters = {side: StreamingButterflyCounter(g) for side in (None, "left", "right")}
    for side, counter in counters.items():
        counter._probe_side = side
    edges = {tuple(map(int, e)) for e in g.edges()}
    for batch_no, (insert, delete) in enumerate(batches):
        with _split_gate(0), _probe_bounds(mode), _recorded_passes() as passes:
            stats = {side: c.apply(insert=insert, delete=delete)
                     for side, c in counters.items()}
        if batch_no == 0:
            assert passes[:2] == [["G1", "G2"], ["G1", "G2"]]
        want, edges, _, _, _ = _brute_force_batch(edges, insert, delete)
        want_count, want_left, want_right = _reference_counts(shape, edges)
        context = f"batch {batch_no} of {case}"
        assert stats[None] == stats["left"] == stats["right"], context
        assert {key: stats[None][key] for key in want} == want, context
        for counter in counters.values():
            assert counter.count == want_count, context
            assert np.array_equal(counter.vertex_counts("left"), want_left), context
            assert np.array_equal(counter.vertex_counts("right"), want_right), context


#: A batch whose phases split into G1 = {(0, 1), (0, 2)} (left pivots:
#: their right ends are the cheaper mids) and G2 = {(1, 0), (2, 2)} on
#: ``_two_hub_graph(_HAND_BUILT_LEAVES)``, deleted and then re-inserted.
_HAND_BUILT_LEAVES = [(1, 1), (2, 2), (3, 2), (4, 2)]
_HAND_BUILT_G1 = {(0, 1), (0, 2)}
_HAND_BUILT_G2 = {(1, 0), (2, 2)}
_HAND_BUILT_OPS = (
    [("-", u, v) for u, v in sorted(_HAND_BUILT_G1 | _HAND_BUILT_G2)]
    + [("flush",)]
    + [("+", u, v) for u, v in sorted(_HAND_BUILT_G1 | _HAND_BUILT_G2)]
)


def test_split_phase_closes_butterflies_across_the_groups():
    """Butterflies with one G1 edge and one G2 edge in a delete and an
    insert phase, counted by G1's pass (its graphs hold G2's edges):
    {(0, 1), (0, 0), (1, 1), (1, 0)}, whose G2 edge is a leg of an ``x``
    of G1's pair {0, 1}, and {(0, 2), (0, 0), (2, 2), (2, 0)}, whose G2
    edge is the other leg of G1's ``y`` row."""
    g = _two_hub_graph(_HAND_BUILT_LEAVES)
    batch = sorted(_HAND_BUILT_G1 | _HAND_BUILT_G2)
    edges = {tuple(map(int, e)) for e in g.edges()}
    counter = StreamingButterflyCounter(g)
    for insert, delete in (([], batch), (batch, [])):
        with _split_gate(0), _recorded_passes() as passes:
            stats = counter.apply(insert=insert, delete=delete)
        assert passes == [["G1", "G2"]]
        want, edges, destroyed, created, _ = _brute_force_batch(
            edges, insert, delete
        )
        assert {key: stats[key] for key in want} == want
        crossing = [
            b for b in destroyed | created
            if len(b & _HAND_BUILT_G1) == 1 and len(b & _HAND_BUILT_G2) == 1
        ]
        assert len(crossing) == 2
        want_count, want_left, want_right = _reference_counts(g.shape, edges)
        assert counter.count == want_count
        assert np.array_equal(counter.vertex_counts("left"), want_left)
        assert np.array_equal(counter.vertex_counts("right"), want_right)


@pytest.mark.parametrize("gate", [0, None])
@pytest.mark.parametrize("strategy", STREAM_STRATEGIES)
def test_one_splice_per_phase(gate, strategy):
    """Every phase splices its state once, split or not, recount or
    incremental: a split phase reads both of its groups' graphs from the
    two states the splice leaves it."""
    splices = []
    spliced = StreamingButterflyCounter._spliced

    def counting(self, *args, **kwargs):
        splices.append(kwargs["remove"])
        return spliced(self, *args, **kwargs)

    g = _two_hub_graph(_HAND_BUILT_LEAVES)
    counter = StreamingButterflyCounter(g)
    ops = _HAND_BUILT_OPS + [("flush",)] + [
        ("-", 0, 3), ("-", 5, 0), ("+", 1, 2), ("+", 0, 3), ("+", 6, 6),
    ]
    StreamingButterflyCounter._spliced = counting
    try:
        with _split_gate(stream_counter._SPLIT_MIN_WEDGES if gate is None else gate):
            for insert, delete in iter_batches(ops):
                counter.apply(insert=insert, delete=delete, strategy=strategy)
    finally:
        StreamingButterflyCounter._spliced = spliced
    assert splices == [True, False, True, False]


# ----------------------------------------------------------------------
# the spliced views: every phase splices the CSR and CSC it keeps; after
# every batch they must equal a fresh build of the current edge set
# ----------------------------------------------------------------------
def _assert_views_fresh(counter, edges, context=""):
    """Keys, CSR and CSC equal a from-scratch build of ``edges``: the
    same ``indptr``/``indices`` values and dtypes."""
    shape = (counter.n_left, counter.n_right)
    coo = PatternCOO.from_pairs(sorted(edges), shape)
    assert np.array_equal(
        counter._keys, coo.rows * max(shape[1], 1) + coo.cols
    ), context
    for got, want in (
        (counter._csr, PatternCSR.from_coo(coo)),
        (counter._csc, PatternCSC.from_coo(coo)),
    ):
        assert type(got) is type(want) and got.shape == want.shape, context
        for part in ("indptr", "indices"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and np.array_equal(a, b), context


@settings(max_examples=60, deadline=None)
@given(
    _scripts(),
    st.sampled_from(sorted(PROBE_MODES)),
    st.sampled_from(("left", "right")),
    st.sampled_from(STREAM_STRATEGIES),
)
def test_spliced_views_equal_a_fresh_build(case, mode, side, strategy):
    name, ops = case
    g = CORPUS[name]
    counter = StreamingButterflyCounter(g)
    counter._probe_side = side
    edges = {tuple(map(int, e)) for e in g.edges()}
    for batch_no, (insert, delete) in enumerate(iter_batches(ops)):
        with _probe_bounds(mode):
            counter.apply(insert=insert, delete=delete, strategy=strategy)
        edges = (edges - set(delete)) | set(insert)
        _assert_views_fresh(counter, edges, f"batch {batch_no} of:\n{ops}")


def _assert_batches_conform(counter, g, batches):
    """Apply ``(insert, delete)`` batches; views and counts stay exact."""
    shape = (g.n_left, g.n_right)
    edges = {tuple(map(int, e)) for e in g.edges()}
    for insert, delete in batches:
        counter.apply(insert=insert, delete=delete)
        edges = (edges - set(delete)) | set(insert)
        _assert_views_fresh(counter, edges)
        want_count, want_left, want_right = _reference_counts(shape, edges)
        assert counter.count == want_count
        assert np.array_equal(counter.vertex_counts("left"), want_left)
        assert np.array_equal(counter.vertex_counts("right"), want_right)
    return edges


@pytest.mark.parametrize("side", ["left", "right"])
def test_splice_at_the_first_and_last_row_and_column(side):
    """Entries land before the first offset and after the last one, and
    empty boundary rows and columns fill and empty again."""
    g = BipartiteGraph([(2, 1), (2, 2), (3, 2), (3, 3)], n_left=6, n_right=5)
    corners = [(0, 0), (0, 4), (5, 0), (5, 4)]
    counter = StreamingButterflyCounter(g)
    counter._probe_side = side
    _assert_batches_conform(counter, g, [
        (corners, []),
        ([(0, 1), (0, 2), (1, 0), (4, 4), (5, 3)], []),
        ([], corners),
        ([], [(0, 1), (0, 2), (1, 0), (4, 4), (5, 3)]),
        (corners + [(2, 0), (2, 4)], [(2, 1), (3, 3)]),
    ])


@pytest.mark.parametrize("side", ["left", "right"])
def test_splice_deletes_a_whole_row_column_and_graph(side):
    g = CORPUS["powerlaw"]
    row = int(np.argmax(g.degrees_left()))
    col = int(np.argmax(g.degrees_right()))
    counter = StreamingButterflyCounter(g)
    counter._probe_side = side
    edges = _assert_batches_conform(counter, g, [
        ([], [(row, int(v)) for v in g.neighbors_left(row)]),
        ([], [(int(u), col) for u in g.neighbors_right(col)]),
    ])
    _assert_batches_conform(counter, BipartiteGraph(
        sorted(edges), n_left=g.n_left, n_right=g.n_right
    ), [([], sorted(edges))])
    assert counter.n_edges == 0 and counter.count == 0
    assert not counter._csr.indptr.any() and not counter._csc.indptr.any()


@pytest.mark.parametrize("side", ["left", "right"])
def test_splice_from_an_empty_graph_to_a_full_one(side):
    g = BipartiteGraph.empty(4, 5)
    counter = StreamingButterflyCounter(g)
    counter._probe_side = side
    full = [(u, v) for u in range(4) for v in range(5)]
    _assert_batches_conform(counter, g, [(full[::2], []), (full[1::2], [])])
    assert counter.count == 6 * 10  # C(4, 2) · C(5, 2)


def test_splice_after_snapshot_restore():
    """``restore`` builds the views once from the keys; later batches
    splice them like any others."""
    g = CORPUS["planted"]
    counter = StreamingButterflyCounter(g)
    ops = _long_script(13, 240, g.n_left, g.n_right)
    batches = list(iter_batches(ops))
    for insert, delete in batches[:2]:
        counter.apply(insert=insert, delete=delete)
    restored = StreamingButterflyCounter(BipartiteGraph.empty(g.n_left, g.n_right))
    restored.restore(counter.snapshot())
    state = BipartiteGraph(
        counter.to_graph().edges(), n_left=g.n_left, n_right=g.n_right
    )
    _assert_views_fresh(restored, {tuple(map(int, e)) for e in state.edges()})
    _assert_batches_conform(restored, state, batches[2:])


def test_splice_leaves_handed_out_views_intact():
    """A phase writes new arrays: the input graph's views and a graph
    taken by ``to_graph`` before the batch keep their edges."""
    g = CORPUS["er"]
    before = g.edges().copy()
    counter = StreamingButterflyCounter(g)
    taken = [g, counter.to_graph()]

    def arrays(graph):
        return [graph.csr.indptr, graph.csr.indices, graph.csc.indptr,
                graph.csc.indices]

    for insert, delete in (([(0, 0), (1, 1)], []), ([], [tuple(before[0])])):
        kept = [[a.copy() for a in arrays(t)] for t in taken]
        counter.apply(insert=insert, delete=delete)
        for graph, copies in zip(taken, kept):
            for now, then in zip(arrays(graph), copies):
                assert np.array_equal(now, then)
        taken.append(counter.to_graph())
    assert np.array_equal(g.edges(), before)


# ----------------------------------------------------------------------
# committed regression corpus
# ----------------------------------------------------------------------
def _corpus_scripts():
    if not os.path.isdir(SCRIPTS_DIR):
        return []
    return sorted(f for f in os.listdir(SCRIPTS_DIR) if f.endswith(".txt"))


@pytest.mark.parametrize("filename", _corpus_scripts())
def test_committed_corpus(filename):
    stem = filename[: -len(".txt")]
    shape_part = stem.split("__", 1)[0]
    m, n = (int(part) for part in shape_part.split("x"))
    ops = load_script(os.path.join(SCRIPTS_DIR, filename))
    _assert_script_conforms(BipartiteGraph.empty(m, n), ops)


def test_script_round_trip():
    text = "+ 0 1\n- 2 3\nflush\n+ 4 5\n"
    ops = parse_script(text)
    assert format_script(ops) == text
    assert list(iter_batches(ops)) == [
        ([(0, 1)], [(2, 3)]),
        ([(4, 5)], []),
    ]


def test_script_ids_checked_against_the_shape():
    """Given the graph's shape, an id outside its side names its line."""
    assert parse_script("+ 2 3\n", shape=(3, 4)) == [("+", 2, 3)]
    left = r"^line 3: left vertex 3 out of range \[0, 3\)"
    with pytest.raises(ValueError, match=left):
        parse_script("+ 0 1\n# note\n- 3 0\n", shape=(3, 4))
    right = r"^line 1: right vertex 4 out of range \[0, 4\)"
    with pytest.raises(ValueError, match=right):
        parse_script("+ 0 4\n", shape=(3, 4))
    assert parse_script("+ 9 9\n") == [("+", 9, 9)]  # no shape, no range check


@pytest.mark.parametrize(
    "line, reason",
    [
        ("+ 0 1_0", "must be decimal integers"),  # int() reads 10
        ("+ 0 +1", "must be decimal integers"),
        ("- 0x1 2", "must be decimal integers"),
        ("+ 0 1.0", "must be decimal integers"),
        ("+ 0 " + "9" * 5000, "must be decimal integers"),  # past int()'s cap
        ("+ 0 \u0661", "non-ASCII text"),  # Arabic-Indic one: int() reads 1
        ("+ \uff10 1", "non-ASCII text"),  # fullwidth zero
        ("+ 0 1\u00a0", "non-ASCII text"),  # a no-break space, not a separator
        ("+ 0 1\u2028+ 2 3", "non-ASCII text"),  # not a line break either
        ("+ 0 -1", "must be non-negative"),
    ],
)
def test_script_ids_are_ascii_decimal(line, reason):
    """Ids are read in the edge-file loader's dialect, naming the line."""
    with pytest.raises(ValueError, match=f"^line 2: .*{reason}"):
        parse_script(f"flush\n{line}\n")
    # a comment may hold anything; CRLF line ends parse
    assert parse_script("+ 0 12  # caf\u00e9 \u0661\r\nflush\r\n") == [
        ("+", 0, 12), ("flush",)
    ]


# ----------------------------------------------------------------------
# pinned long scripts (slow)
# ----------------------------------------------------------------------
def _long_script(seed: int, n_ops: int, m: int, n: int):
    """Deterministic ≥``n_ops``-op script: the pinned regression load."""
    rng = np.random.default_rng(seed)
    ops = []
    for i in range(n_ops):
        if i and i % 50 == 0:
            ops.append(("flush",))
        kind = "+" if rng.random() < 0.65 else "-"
        ops.append((kind, int(rng.integers(m)), int(rng.integers(n))))
    return ops


@pytest.mark.slow
@pytest.mark.parametrize("seed", [201, 202, 203])
def test_pinned_long_scripts(seed):
    ops = _long_script(seed, 2000, 25, 30)
    assert sum(1 for op in ops if op[0] != "flush") >= 2000
    _assert_script_conforms(BipartiteGraph.empty(25, 30), ops)


def test_two_sided_hubs_script_splits():
    """The committed two-hub script splits every incremental phase under
    the shipped gate (the CLI replay in CI then runs the split path
    through ``--strategy auto`` too, on the batches it plans
    incremental)."""
    filename = "251x251__two_sided_hubs.txt"
    ops = load_script(os.path.join(SCRIPTS_DIR, filename))
    with _recorded_passes() as passes:
        _assert_script_conforms(BipartiteGraph.empty(251, 251), ops)
    # the build from an empty graph, then 4 delete and 4 insert phases
    assert passes == [["G1", "G2"]] * 9
