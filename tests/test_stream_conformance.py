"""Randomized-script differential conformance harness for the stream tier.

The contract under test: after **every** flush-delimited batch of a
script, :class:`repro.core.stream.StreamingButterflyCounter` must agree
*bitwise* — global count, per-left array, per-right array, edge set —
with a from-scratch recount of the reference edge set (maintained as a
plain Python set with the documented batch semantics: deletes before
inserts, duplicates collapsed, absent deletes / present inserts skipped).

Sources of scripts:

- a hypothesis strategy over a 6-graph corpus of starting shapes
  (shrink-friendly: scripts are flat op-tuple lists, so failures shrink
  to tiny readable reproducers — commit those to
  ``tests/data/stream_scripts/``);
- hand-written adversarial cases (re-insert after delete,
  delete-then-insert inside one batch, hub-heavy batches, empty batches,
  intra-batch duplicates);
- the committed regression corpus under ``tests/data/stream_scripts/``
  (file names carry the shape: ``<m>x<n>__<name>.txt``);
- three pinned ≥2000-op scripts (fixed RNG seeds), marked ``slow``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import count_butterflies, vertex_butterfly_counts
from repro.core.stream import StreamingButterflyCounter
from repro.core.stream import counter as stream_counter
from repro.core.stream.script import (
    format_script,
    iter_batches,
    load_script,
    parse_script,
)
from repro.graphs import (
    BipartiteGraph,
    erdos_renyi_bipartite,
    planted_bicliques,
    power_law_bipartite,
)

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


def _assert_script_conforms(graph, ops, *, strategy="incremental"):
    """Replay ``ops`` batch by batch, cross-checking every count bitwise."""
    shape = (graph.n_left, graph.n_right)
    counter = StreamingButterflyCounter(graph)
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
@st.composite
def _scripts(draw):
    name = draw(st.sampled_from(sorted(CORPUS)))
    g = CORPUS[name]
    op = st.one_of(
        st.just(("flush",)),
        st.tuples(
            st.sampled_from(("+", "-")),
            st.integers(0, g.n_left - 1),
            st.integers(0, g.n_right - 1),
        ),
    )
    return name, draw(st.lists(op, max_size=60))


@settings(max_examples=200, deadline=None)
@given(_scripts())
def test_randomized_scripts_conform(case):
    name, ops = case
    _assert_script_conforms(CORPUS[name], ops)


# The baseline wedge counts pick panel or probe by gather footprint;
# moving ``PANEL_FOOTPRINT_CAP`` forces one regime for every batch (a
# context manager rather than the fixture: hypothesis reruns the body).
@settings(max_examples=40, deadline=None)
@given(_scripts())
def test_randomized_scripts_conform_panel(case):
    name, ops = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stream_counter, "PANEL_FOOTPRINT_CAP", 1 << 62)
        _assert_script_conforms(CORPUS[name], ops)


@settings(max_examples=40, deadline=None)
@given(_scripts())
def test_randomized_scripts_conform_probe(case):
    name, ops = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stream_counter, "PANEL_FOOTPRINT_CAP", 0)
        _assert_script_conforms(CORPUS[name], ops)


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
    assert counter.last_stats["batch_size"] == 0


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
