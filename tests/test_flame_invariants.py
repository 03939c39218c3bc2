"""Executable FLAME correctness proofs: partition mechanics and the loop
invariants of Figs. 4–5 checked at every iteration of every algorithm."""

import numpy as np
import pytest

from repro.core import butterflies_spec
from repro.flame import (
    ColumnPartition,
    RowPartition,
    check_invariant_trace,
    expected_partial_count,
)
from tests.conftest import tiny_named_graphs


# ------------------------------------------------------- partition views
def test_column_partition_forward_walkthrough():
    a = np.arange(12).reshape(3, 4)
    p = ColumnPartition(a, forward=True)
    assert p.left.shape == (3, 0) and p.right.shape == (3, 4)
    pivots = []
    while not p.done():
        a0, a1, a2 = p.repartition()
        assert a0.shape[1] + 1 + a2.shape[1] == 4
        pivots.append(p.pivot_index)
        assert np.array_equal(a1, a[:, p.pivot_index])
        p.continue_with()
    assert pivots == [0, 1, 2, 3]
    assert p.left.shape == (3, 4)


def test_column_partition_backward_walkthrough():
    a = np.arange(12).reshape(3, 4)
    p = ColumnPartition(a, forward=False)
    assert p.right.shape == (3, 0)  # R starts empty
    pivots = []
    while not p.done():
        p.repartition()
        pivots.append(p.pivot_index)
        p.continue_with()
    assert pivots == [3, 2, 1, 0]


def test_row_partition_forward_walkthrough():
    a = np.arange(12).reshape(4, 3)
    p = RowPartition(a, forward=True)
    pivots = []
    while not p.done():
        a0, a1, a2 = p.repartition()
        assert a1.shape == (3,)
        pivots.append(p.pivot_index)
        p.continue_with()
    assert pivots == [0, 1, 2, 3]


def test_row_partition_backward_walkthrough():
    a = np.arange(12).reshape(4, 3)
    p = RowPartition(a, forward=False)
    pivots = []
    while not p.done():
        p.repartition()
        pivots.append(p.pivot_index)
        p.continue_with()
    assert pivots == [3, 2, 1, 0]


def test_repartition_after_done_raises():
    p = ColumnPartition(np.zeros((2, 1)))
    p.continue_with()
    with pytest.raises(RuntimeError, match="loop guard"):
        p.repartition()


def test_partition_requires_2d():
    with pytest.raises(ValueError, match="2-D"):
        ColumnPartition(np.zeros(3))
    with pytest.raises(ValueError, match="2-D"):
        RowPartition(np.zeros(3))


def test_partition_views_not_copies():
    a = np.zeros((2, 3))
    p = ColumnPartition(a, forward=True)
    _, a1, _ = p.repartition()
    a1[:] = 7
    assert (a[:, 0] == 7).all()


# --------------------------------------------------- invariant assertions
def test_expected_partial_count_boundaries(corpus):
    """At step 0 every invariant asserts 0; at the last step, Ξ_G."""
    for name, g in corpus:
        total = butterflies_spec(g)
        for number in range(1, 9):
            assert expected_partial_count(g, number, 0) == 0, (name, number)
            n = g.n_right if number <= 4 else g.n_left
            assert expected_partial_count(g, number, n) == total, (name, number)


def test_expected_partial_count_bounds_checked():
    g = tiny_named_graphs()["k23"]
    with pytest.raises(ValueError, match="steps_done"):
        expected_partial_count(g, 1, 99)


@pytest.mark.parametrize("number", range(1, 9))
def test_invariants_hold_throughout_scratch(number, corpus):
    """The FLAME proof, executed: the loop invariant holds at every
    iteration of the derived algorithm."""
    for name, g in corpus[:6]:
        total = check_invariant_trace(g, number, strategy="scratch")
        assert total == butterflies_spec(g), (name, number)


@pytest.mark.parametrize("number", [1, 4, 5, 8])
def test_invariants_hold_throughout_spmv(number):
    """Spot-check the spmv strategy maintains the same invariants."""
    graphs = tiny_named_graphs()
    for name in ("k33", "two_butterflies_shared_edge", "disconnected_butterflies"):
        check_invariant_trace(graphs[name], number, strategy="spmv")


def test_invariant_trace_detects_wrong_partial():
    """Deliberately query the wrong invariant's partial to prove the
    checker can fail (guards against a vacuous test harness)."""
    g = tiny_named_graphs()["k33"]
    # invariant 1's partial after 2 of 3 columns is Ξ_L(2) = 3;
    # invariant 2's is Ξ_L + Ξ_LR = 9. They must differ on K_{3,3}.
    assert expected_partial_count(g, 1, 2) != expected_partial_count(g, 2, 2)
