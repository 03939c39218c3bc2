"""Unit tests for the family metadata and the unblocked algorithms."""

import pytest

from repro.core import (
    ALL_INVARIANTS,
    INVARIANTS,
    Reference,
    Side,
    Traversal,
    count_butterflies,
    count_butterflies_unblocked,
)
from repro.core.family import pivot_order
from repro.graphs import BipartiteGraph
from tests.conftest import TINY_EXPECTED, tiny_named_graphs


# ------------------------------------------------------------- metadata
def test_eight_invariants_registered():
    assert sorted(INVARIANTS) == list(range(1, 9))
    assert len(ALL_INVARIANTS) == 8


def test_axis_assignment_matches_paper():
    for k in (1, 2, 3, 4):
        assert INVARIANTS[k].side is Side.COLUMNS
        assert INVARIANTS[k].storage == "csc"
    for k in (5, 6, 7, 8):
        assert INVARIANTS[k].side is Side.ROWS
        assert INVARIANTS[k].storage == "csr"


def test_traversal_assignment():
    for k in (1, 2, 5, 6):
        assert INVARIANTS[k].traversal is Traversal.FORWARD
    for k in (3, 4, 7, 8):
        assert INVARIANTS[k].traversal is Traversal.BACKWARD


def test_reference_assignment():
    for k in (1, 3, 5, 7):
        assert INVARIANTS[k].reference is Reference.PREFIX
    for k in (2, 4, 6, 8):
        assert INVARIANTS[k].reference is Reference.SUFFIX


def test_description_strings():
    d = INVARIANTS[3].description
    assert "invariant 3" in d and "backward" in d and "A0" in d


def test_pivot_order():
    assert list(pivot_order(4, Traversal.FORWARD)) == [0, 1, 2, 3]
    assert list(pivot_order(4, Traversal.BACKWARD)) == [3, 2, 1, 0]
    assert list(pivot_order(0, Traversal.FORWARD)) == []


# ----------------------------------------------------------- resolution
def test_invariant_argument_forms():
    g = tiny_named_graphs()["k33"]
    inv = INVARIANTS[2]
    assert count_butterflies_unblocked(g, 2) == count_butterflies_unblocked(g, inv)


def test_invalid_invariant_number():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(ValueError, match="1..8"):
        count_butterflies_unblocked(g, 9)


def test_invalid_invariant_type():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(TypeError, match="invariant"):
        count_butterflies_unblocked(g, "two")


def test_invalid_strategy():
    g = tiny_named_graphs()["k33"]
    with pytest.raises(ValueError, match="strategy"):
        count_butterflies_unblocked(g, 1, strategy="magic")


# ------------------------------------------------------------- counting
@pytest.mark.parametrize("number", range(1, 9))
@pytest.mark.parametrize("strategy", ["scratch", "spmv"])
def test_every_member_on_hand_verified_graphs(number, strategy):
    for name, g in tiny_named_graphs().items():
        got = count_butterflies_unblocked(g, number, strategy=strategy)
        assert got == TINY_EXPECTED[name], (name, number, strategy)


def test_on_step_callback_sees_every_pivot():
    g = tiny_named_graphs()["k33"]
    seen = []
    count_butterflies_unblocked(
        g, 4, on_step=lambda step, pivot, total: seen.append((step, pivot))
    )
    assert [s for s, _ in seen] == [0, 1, 2]
    assert [p for _, p in seen] == [2, 1, 0]  # backward sweep


def test_on_step_running_total_monotone(medium_graph):
    totals = []
    count_butterflies_unblocked(
        medium_graph, 2, on_step=lambda s, p, t: totals.append(t)
    )
    assert totals == sorted(totals)
    assert totals[-1] == butterflies_spec_cached(medium_graph)


_SPEC_CACHE = {}


def butterflies_spec_cached(g):
    key = id(g)
    if key not in _SPEC_CACHE:
        _SPEC_CACHE[key] = count_butterflies(g)
    return _SPEC_CACHE[key]


def test_auto_selection_picks_smaller_side():
    wide = tiny_named_graphs()["k23"]  # 2 left, 3 right -> rows smaller
    tall = wide.swap_sides()
    # auto must agree with all members regardless; check value correctness
    assert count_butterflies(wide) == 3
    assert count_butterflies(tall) == 3


def test_empty_and_edgeless_graphs():
    for g in (BipartiteGraph.empty(0, 0), BipartiteGraph.empty(5, 7)):
        for number in range(1, 9):
            assert count_butterflies_unblocked(g, number) == 0


def test_single_vertex_sides():
    g = BipartiteGraph([(0, j) for j in range(4)], n_left=1, n_right=4)
    for number in range(1, 9):
        assert count_butterflies_unblocked(g, number) == 0


def test_counts_are_python_ints(medium_graph):
    out = count_butterflies_unblocked(medium_graph, 6)
    assert type(out) is int


def test_large_count_no_overflow():
    """K_{60,60} has C(60,2)² = 3,132,900 butterflies; K_{200,200} would
    overflow int32 wedge squares if accumulated carelessly."""
    g = BipartiteGraph.complete(90, 90)
    expected = (90 * 89 // 2) ** 2
    assert count_butterflies_unblocked(g, 2) == expected
    assert count_butterflies_unblocked(g, 7, strategy="spmv") == expected
