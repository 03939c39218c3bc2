"""Shared work-estimation layer for the algorithm family.

One home for every *exact, deterministic* model of how much element work a
family member performs on a given graph — the quantities behind the
paper's Fig. 10 analysis, the parallel executor's load balancing and
the execution engine's planner.  The family's ``resolve_invariant`` and
``matrices_for_side`` are imported from :mod:`repro.core.family`, which
defines them.

Work models
-----------
One per strategy, in :data:`PIVOT_WORK`; the pool balances its ranges on
the same rows.

- ``spmv``: per pivot, the update scans every stored entry of the
  reference partition → nnz(A₀) or nnz(A₂) — *triangular* in the pivot
  index (:func:`spmv_scan_lengths`) — plus the pivot's degree for the
  marker scatter.
- ``scratch`` / ``wedge``: per pivot, the update expands the pivot's
  wedges → work(pivot) = Σ_{x ∈ N(pivot)} deg(x), independent of the
  reference side (:func:`pivot_work_estimate`).

Summed over the sweep these explain the paper's Fig. 10 analytically:
under spmv the column and row families do ``n·nnz/2``-ish and
``m·nnz/2``-ish total work, which is exactly the smaller-side rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from repro._types import COUNT_DTYPE

from repro.core.family import (
    Invariant,
    Reference,
    matrices_for_side,
    resolve_invariant,
)
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela.kernels import segment_sums

__all__ = [
    "PIVOT_WORK",
    "pivot_work_estimate",
    "spmv_scan_lengths",
    "touched_wedge_work",
    "WorkProfile",
    "work_profile",
]


def pivot_work_estimate(pivot_major, complementary) -> np.ndarray:
    """Exact wedge-expansion work per pivot: Σ_{x ∈ N(p)} deg(x).

    This is the number of wedge endpoints the scratch update fetches
    for pivot p — the dominant cost of it and of ``wedge``, and the
    weight the parallel range balancer and the wedge shards cut on.

    Reads both patterns only through the storage accessor protocol, so it
    runs directly on any :mod:`repro.storage` view (an
    :class:`~repro.storage.MmapCSR`'s memmapped patterns included).
    """
    per_entry = complementary.degrees_of(
        pivot_major.entries(0, pivot_major.nnz)
    )
    return segment_sums(per_entry, pivot_major.entry_offsets())


def touched_wedge_work(
    graph: BipartiteGraph, rows: np.ndarray, cols: np.ndarray
) -> int:
    """Exact wedge work touched by a batch of edge endpoints.

    For a batch of edge updates ``(rows[i], cols[i])`` the incremental
    maintenance path (:class:`repro.core.stream.StreamingButterflyCounter`)
    enumerates, per changed edge, the wedges through one of its endpoints
    — ``deg(v)`` continuations for a left pivot, ``deg(u)`` for a right
    one, each edge on its cheaper side when that saves enough, else every
    edge on the side that sums smaller — and probes the touched pairs.
    ``deg(u) + deg(v)`` summed over the batch covers both sides, an upper
    bound of that per-edge work, and is the term the planner's
    ``stream_apply`` workload weighs against a from-scratch recount.
    Duplicate endpoints count once per appearance — that is exactly how
    often the kernel gathers them.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    deg_left = graph.csr.degrees()
    deg_right = graph.csc.degrees()
    work = 0
    if rows.size:
        work += int(deg_left[rows].sum(dtype=COUNT_DTYPE))
    if cols.size:
        work += int(deg_right[cols].sum(dtype=COUNT_DTYPE))
    return work


def spmv_scan_lengths(pivot_major, reference: Reference) -> np.ndarray:
    """Exact reference-partition scan length per pivot for ``spmv``.

    The spmv update scans every stored entry of the reference partition —
    the *prefix* ``indices[0 : indptr[p]]`` or the *suffix*
    ``indices[indptr[p+1] : nnz]`` — so the per-pivot cost is triangular
    in the pivot index, not uniform: ``indptr[p]`` entries for the prefix
    reference, ``nnz − indptr[p+1]`` for the suffix.
    """
    indptr = np.asarray(pivot_major.entry_offsets(), dtype=np.int64)
    if reference is Reference.PREFIX:
        return indptr[:-1].copy()
    nnz = int(indptr[-1]) if indptr.size else 0
    return nnz - indptr[1:]


def _wedge_work(pivot_major, complementary, reference) -> np.ndarray:
    return pivot_work_estimate(pivot_major, complementary)


#: Each strategy's exact per-pivot work, ``work(pivot_major,
#: complementary, reference)``: what :func:`work_profile` sums and the
#: parallel pool balances its ranges on.
PIVOT_WORK = {
    "scratch": _wedge_work,
    "spmv": lambda pm, co, ref: spmv_scan_lengths(pm, ref) + pm.degrees(),
    "wedge": _wedge_work,
}


@dataclass(frozen=True)
class WorkProfile:
    """Exact element-operation counts for one (graph, invariant, strategy)."""

    invariant: int
    strategy: str
    #: number of loop iterations (pivots swept)
    pivots: int
    #: total element operations across the sweep
    total_ops: int
    #: largest single-pivot cost (the load-balancing worst case)
    max_pivot_ops: int


def work_profile(
    graph: BipartiteGraph, invariant, strategy: str = "spmv"
) -> WorkProfile:
    """Compute the exact work profile of one family member on ``graph``.

    ``strategy`` is a key of :data:`PIVOT_WORK`: ``"spmv"``
    (reference-partition scans and the marker scatter), or ``"scratch"``
    / ``"wedge"`` (wedge expansions — the two share one work model; they
    differ only in the reduction and its batching).
    """
    if strategy not in PIVOT_WORK:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {tuple(PIVOT_WORK)}"
        )
    inv: Invariant = resolve_invariant(invariant)
    pivot_major, complementary = matrices_for_side(graph, inv.side)
    n = pivot_major.major_dim
    per_pivot = PIVOT_WORK[strategy](pivot_major, complementary, inv.reference)
    return WorkProfile(
        invariant=inv.number,
        strategy=strategy,
        pivots=n,
        total_ops=int(per_pivot.sum(dtype=COUNT_DTYPE)),
        max_pivot_ops=int(per_pivot.max()) if n else 0,
    )
