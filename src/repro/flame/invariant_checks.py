"""Executable loop invariants (Figs. 4 and 5).

A FLAME loop invariant is an assertion about the partial result that must
hold at the top and bottom of every loop iteration.  For the butterfly
family the assertions are category sums over the current partitioning
(eq. 8/11):

====  ======================================  ==========================
inv   invariant (after t pivots processed)     partition state
====  ======================================  ==========================
 1    Ξ = Ξ_L                                  L = first t columns
 2    Ξ = Ξ_L + Ξ_LR                           L = first t columns
 3    Ξ = Ξ_R + Ξ_LR                           R = last t columns
 4    Ξ = Ξ_R                                  R = last t columns
 5    Ξ = Ξ_T                                  T = first t rows
 6    Ξ = Ξ_T + Ξ_TB                           T = first t rows
 7    Ξ = Ξ_B + Ξ_TB                           B = last t rows
 8    Ξ = Ξ_B                                  B = last t rows
====  ======================================  ==========================

:func:`expected_partial_count` evaluates the right-hand side with the dense
partitioned specification, and :func:`check_invariant_trace` drives a real
family algorithm through its loop while asserting the invariant at every
iteration — turning the paper's correctness argument into an executable
test (see ``tests/test_flame_invariants.py``).
"""

from __future__ import annotations

from repro.core.family import (
    Invariant,
    Reference,
    Side,
    Traversal,
    count_butterflies_unblocked,
    resolve_invariant,
)
from repro.core.spec import partitioned_spec_columns, partitioned_spec_rows
from repro.graphs.bipartite import BipartiteGraph

__all__ = ["expected_partial_count", "check_invariant_trace"]


def expected_partial_count(
    graph: BipartiteGraph, invariant, steps_done: int
) -> int:
    """The value the running total must hold after ``steps_done`` pivots.

    Evaluates the invariant's category sum with the dense partitioned
    specification (eqs. 9/12), independent of any loop algorithm.
    """
    inv: Invariant = resolve_invariant(invariant)
    if inv.side is Side.COLUMNS:
        n = graph.n_right
        spec = partitioned_spec_columns
    else:
        n = graph.n_left
        spec = partitioned_spec_rows
    if not 0 <= steps_done <= n:
        raise ValueError(f"steps_done must be in [0, {n}], got {steps_done}")
    if inv.traversal is Traversal.FORWARD:
        split = steps_done  # first partition holds the processed pivots
        first, cross, second = spec(graph, split)
        processed_self, processed_cross = first, cross
    else:
        split = n - steps_done  # trailing partition holds the processed pivots
        first, cross, second = spec(graph, split)
        processed_self, processed_cross = second, cross
    if inv.reference is Reference.PREFIX and inv.traversal is Traversal.FORWARD:
        # inv 1 / 5: only butterflies fully inside the processed partition
        return processed_self
    if inv.reference is Reference.SUFFIX and inv.traversal is Traversal.FORWARD:
        # inv 2 / 6: processed-internal plus processed-crossing
        return processed_self + processed_cross
    if inv.reference is Reference.PREFIX and inv.traversal is Traversal.BACKWARD:
        # inv 3 / 7: processed-internal plus crossing (categories 2+3 / 5+6)
        return processed_self + processed_cross
    # inv 4 / 8: only butterflies fully inside the processed partition
    return processed_self


def check_invariant_trace(
    graph: BipartiteGraph, invariant, strategy: str = "scratch"
) -> int:
    """Run a family member, asserting its loop invariant at every iteration.

    Raises ``AssertionError`` (with the offending step) on the first
    violation; returns the final count otherwise.  This is the executable
    form of the FLAME proof-of-correctness for the given invariant.
    """
    inv = resolve_invariant(invariant)
    failures: list[str] = []

    def on_step(step: int, pivot: int, running: int) -> None:
        expected = expected_partial_count(graph, inv, step + 1)
        if running != expected:
            failures.append(
                f"invariant {inv.number} violated after step {step} "
                f"(pivot {pivot}): running={running}, expected={expected}"
            )

    total = count_butterflies_unblocked(
        graph, inv, strategy=strategy, on_step=on_step
    )
    if failures:
        raise AssertionError("; ".join(failures[:3]))
    return total
