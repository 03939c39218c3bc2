"""Blocked variants of the counting family.

The FLAME methodology yields blocked algorithms from the same loop
invariants by letting the exposed partition ``a₁`` be a *panel* of ``b``
columns (or rows) instead of a single vector.  The paper presents the
unblocked family; the blocked family is the standard next derivation step
(its Fig. 10 caption explicitly labels the measured algorithms "unblocked"),
and it is where the NumPy implementation gains real ground: one panel
iteration performs a handful of whole-array operations over all wedges of
``b`` pivots, amortising the per-iteration interpreter overhead that
dominates the unblocked loop.

Correctness argument, mirroring the unblocked suffix update: assign every
wedge-point pair {u, v} with u < v to pivot u.  A panel [lo, hi) counts

- pairs with u ∈ panel and v > u, which includes pairs internal to the
  panel (u, v both in [lo, hi), v > u) and pairs crossing into the suffix —

so summing over consecutive panels counts each pair exactly once, and the
per-pair contribution C(wedges(u,v), 2) is computed from the full wedge
multiset exactly as in the unblocked algorithm.  The prefix (look-behind)
blocked member is symmetric.

Each panel's (pivot, endpoint) wedge list is reduced by
:func:`repro.sparsela.panel_choose2_sum`, which picks its ``sort``,
``bincount`` or ``scratch`` branch from the panel's shape.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro._types import COUNT_DTYPE
from repro.core.family import (
    Invariant,
    Reference,
    Traversal,
    matrices_for_side,
    resolve_invariant,
)
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import CompressedPattern, panel_choose2_sum

__all__ = [
    "count_butterflies_blocked",
    "panel_butterflies",
    "work_bounded_panels",
]


def work_bounded_panels(work: np.ndarray, budget: int) -> list[tuple[int, int]]:
    """Contiguous panels ``[lo, hi)`` whose total ``work`` is ≤ ``budget``.

    Greedy left-to-right cut: each panel takes pivots until adding the
    next would exceed the budget; a pivot whose own work exceeds the
    budget gets a singleton panel (the budget bounds *transient* memory,
    and a single pivot's wedge list is irreducible).  The panels tile
    ``range(len(work))`` exactly.
    """
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    work = np.asarray(work, dtype=np.int64)
    n = len(work)
    if n == 0:
        return []
    csum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(work, out=csum[1:])
    panels: list[tuple[int, int]] = []
    lo = 0
    while lo < n:
        # furthest hi with csum[hi] - csum[lo] <= budget, at least lo+1
        hi = int(np.searchsorted(csum, csum[lo] + budget, side="right")) - 1
        hi = max(hi, lo + 1)
        hi = min(hi, n)
        panels.append((lo, hi))
        lo = hi
    return panels


def panel_butterflies(
    pivot_major: CompressedPattern,
    complementary: CompressedPattern,
    lo: int,
    hi: int,
    reference: Reference,
    scratch: np.ndarray | None = None,
) -> int:
    """Butterfly contribution of the pivot panel ``[lo, hi)``.

    For each pivot p in the panel, counts wedge-point pairs {p, u} with
    ``u > p`` (suffix reference) or ``u < p`` (prefix reference), where u
    ranges over the whole matrix — panel-internal pairs are included via
    the positional predicate, so consecutive panels tile Ξ_G exactly.

    Implementation: one :func:`gather_slices` fetches the wedge endpoints
    of *all* pivots in the panel; the (pivot, endpoint) multiset is then
    reduced by :func:`repro.sparsela.panel_choose2_sum`, which picks its
    branch from the panel's shape.  ``scratch`` optionally passes a
    reusable zeroed length-``n`` accumulator through to the scratch
    branch.
    """
    if hi <= lo:
        return 0
    pivots = np.arange(lo, hi, dtype=np.int64)
    # neighbourhood sizes per pivot
    deg = pivot_major.panel_degrees(lo, hi)
    if deg.sum(dtype=COUNT_DTYPE) == 0:
        return 0
    # all (pivot, other-side neighbor) incidences of the panel
    neighbors = pivot_major.panel_indices(lo, hi)
    owner_pivot = np.repeat(pivots, deg)
    # continue every incidence to same-side wedge endpoints
    comp_deg = complementary.degrees_of(neighbors)
    endpoints = complementary.gather(neighbors)
    owners = np.repeat(owner_pivot, comp_deg)
    if obs._enabled:
        obs.observe("blocked.panel.wedges", int(endpoints.size))
        obs.observe("blocked.panel.pivots", hi - lo)
    if reference is Reference.SUFFIX:
        sel = endpoints > owners
    else:
        sel = endpoints < owners
    if not sel.any():
        return 0
    n = pivot_major.major_dim
    return panel_choose2_sum(
        owners[sel] - lo, endpoints[sel], hi - lo, n, scratch=scratch
    )


def count_butterflies_blocked(
    graph: BipartiteGraph,
    invariant=2,
    block_size: int = 64,
) -> int:
    """Count butterflies with the blocked member of the chosen invariant.

    Parameters
    ----------
    graph:
        The bipartite graph.
    invariant:
        Paper invariant number (1–8) or :class:`Invariant`; determines the
        traversed side, sweep direction and reference partition exactly as
        in the unblocked family.
    block_size:
        Panel width b ≥ 1.  ``b = 1`` degenerates to the unblocked
        algorithm (used by the equivalence tests); larger panels trade a
        transient ``O(panel wedges)`` working set for fewer iterations.

    Returns
    -------
    int
        Ξ_G, the exact number of butterflies.
    """
    inv: Invariant = resolve_invariant(invariant)
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    pivot_major, complementary = matrices_for_side(graph, inv.side)
    n = pivot_major.major_dim
    total = 0
    boundaries = list(range(0, n, block_size)) + [n]
    panels = [
        (boundaries[i], boundaries[i + 1]) for i in range(len(boundaries) - 1)
    ]
    if inv.traversal is Traversal.BACKWARD:
        panels.reverse()
    if obs._enabled:
        obs.inc("blocked.panels", len(panels))
    scratch = np.zeros(n, dtype=np.int64)
    with obs.span("blocked.count", invariant=inv.number, panels=len(panels)):
        if obs._enabled:
            # traced variant: one child span per panel (invariant→panel
            # nesting); kept off the disabled path so ``REPRO_OBS=0``
            # pays nothing per panel beyond the loop itself
            for lo, hi in panels:
                with obs.span("blocked.panel", lo=lo, hi=hi):
                    total += panel_butterflies(
                        pivot_major, complementary, lo, hi, inv.reference,
                        scratch=scratch,
                    )
        else:
            for lo, hi in panels:
                total += panel_butterflies(
                    pivot_major, complementary, lo, hi, inv.reference,
                    scratch=scratch,
                )
    return total
