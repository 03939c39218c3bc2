"""The family of eight FLAME-derived butterfly counting algorithms.

Section III of the paper derives eight loop invariants — four from
partitioning the column set V2 (Fig. 4) and four from partitioning the row
set V1 (Fig. 5) — and from each a provably-correct loop algorithm (Figs. 6
and 7).  Operationally every member of the family has the same skeleton:

    for each pivot vertex v of the traversed side, in traversal order:
        y ← wedge counts between v and every vertex of the *reference*
            partition (the already-processed prefix A0, or the
            yet-to-be-processed suffix A2)
        Ξ ← Ξ + Σ_u C(y_u, 2)                      # eq. (18) simplified

because the per-iteration update ½·a₁ᵀA_ref A_refᵀa₁ − ½·Γ(a₁a₁ᵀ ∘
A_ref A_refᵀ) equals Σ_u C(y_u, 2) with y = A_refᵀ·a₁ exactly (the
subtraction removes the two-line paths, leaving C(y,2) wedge pairs).

The eight members differ along three axes, captured by :class:`Invariant`:

====  =======  =========  =========  =======
inv    side    traversal  reference  storage
====  =======  =========  =========  =======
 1    columns  L → R      A0 prefix   CSC
 2    columns  L → R      A2 suffix   CSC
 3    columns  R → L      A0 prefix   CSC
 4    columns  R → L      A2 suffix   CSC
 5    rows     T → B      A0 prefix   CSR
 6    rows     T → B      A2 suffix   CSR
 7    rows     B → T      A0 prefix   CSR
 8    rows     B → T      A2 suffix   CSR
====  =======  =========  =========  =======

(The update of each algorithm references the *positional* prefix/suffix of
the pivot, per Figs. 6–7; whether that partition is "already processed" is
determined by the traversal direction.  The members that read
not-yet-processed vertices — "look-ahead" in the FLAME sense — are 2, 6
(forward sweeps reading A2) and 3, 7 (backward sweeps reading A0); the
group the paper's Section V measures as faster is the suffix-referencing
one, 2/4/6/8.)

Two execution strategies are provided for every member:

``strategy="spmv"``
    The literal translation of the derived update: per pivot, scan the
    whole reference partition of the stored matrix and form y = A_refᵀ·a₁.
    Cost O(#pivots · nnz) — this is the cost profile of the paper's C
    implementation and the one that reproduces the Fig. 10/11 shapes
    (iterating the smaller side wins in proportion to the side ratio).

``strategy="scratch"``
    The wedge-optimal refinement: enumerate only the wedges incident to
    the pivot using the complementary storage format, reducing the
    endpoint multiset through a persistent dense accumulator (the
    Chiba–Nishizeki discipline, using the identity Σ C(y,2) =
    (Σy² − Σy)/2 evaluated with two gathers).  Cost O(Σ wedges),
    independent of which side is traversed.  This is the "carefully
    implementing this update" remark after eq. (18) taken to its
    conclusion; the strategy ablation quantifies the gap to ``spmv``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from repro import obs
from repro._types import COUNT_DTYPE
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import CompressedPattern

__all__ = [
    "Side",
    "Traversal",
    "Reference",
    "Invariant",
    "INVARIANTS",
    "ALL_INVARIANTS",
    "count_butterflies_unblocked",
    "count_butterflies",
    "pivot_order",
    "resolve_invariant",
    "matrices_for_side",
    "wedge_endpoint_multiset",
    "STRATEGIES",
]


class Side(Enum):
    """Which vertex set the algorithm partitions / traverses."""

    COLUMNS = "columns"  # V2, invariants 1–4, CSC storage
    ROWS = "rows"  # V1, invariants 5–8, CSR storage


class Traversal(Enum):
    """Direction the moving partition boundary sweeps."""

    FORWARD = "forward"  # L→R (columns) or T→B (rows)
    BACKWARD = "backward"  # R→L (columns) or B→T (rows)


class Reference(Enum):
    """Which fixed partition the per-iteration update reads."""

    PREFIX = "prefix"  # A0: vertices positioned before the pivot
    SUFFIX = "suffix"  # A2: vertices positioned after the pivot


@dataclass(frozen=True)
class Invariant:
    """Metadata for one member of the family (one loop invariant).

    Attributes mirror the derivation: ``number`` is the paper's invariant
    number (Figs. 4–5), and the three axes determine the algorithm
    completely.
    """

    number: int
    side: Side
    traversal: Traversal
    reference: Reference

    @property
    def storage(self) -> str:
        """Preferred compressed format, per Section V: CSC for 1–4, CSR for 5–8."""
        return "csc" if self.side is Side.COLUMNS else "csr"

    @property
    def description(self) -> str:
        """Human-readable one-liner used by the CLI and bench tables."""
        side = "V2/columns" if self.side is Side.COLUMNS else "V1/rows"
        dirn = "forward" if self.traversal is Traversal.FORWARD else "backward"
        ref = "A0 (prefix)" if self.reference is Reference.PREFIX else "A2 (suffix)"
        return f"invariant {self.number}: partition {side}, {dirn} sweep, update reads {ref}"


#: The eight invariants of Figs. 4–5, keyed by paper number.
INVARIANTS: dict[int, Invariant] = {
    1: Invariant(1, Side.COLUMNS, Traversal.FORWARD, Reference.PREFIX),
    2: Invariant(2, Side.COLUMNS, Traversal.FORWARD, Reference.SUFFIX),
    3: Invariant(3, Side.COLUMNS, Traversal.BACKWARD, Reference.PREFIX),
    4: Invariant(4, Side.COLUMNS, Traversal.BACKWARD, Reference.SUFFIX),
    5: Invariant(5, Side.ROWS, Traversal.FORWARD, Reference.PREFIX),
    6: Invariant(6, Side.ROWS, Traversal.FORWARD, Reference.SUFFIX),
    7: Invariant(7, Side.ROWS, Traversal.BACKWARD, Reference.PREFIX),
    8: Invariant(8, Side.ROWS, Traversal.BACKWARD, Reference.SUFFIX),
}

#: All invariants in paper order.
ALL_INVARIANTS: tuple[Invariant, ...] = tuple(INVARIANTS[i] for i in range(1, 9))


def resolve_invariant(invariant) -> Invariant:
    """Paper number (1–8) or :class:`Invariant` → :class:`Invariant`.

    The one normaliser of an invariant argument; raises ``ValueError``
    for a number outside 1..8 and ``TypeError`` for anything else.
    """
    if isinstance(invariant, Invariant):
        return invariant
    if isinstance(invariant, int):
        try:
            return INVARIANTS[invariant]
        except KeyError:
            raise ValueError(
                f"invariant number must be 1..8, got {invariant}"
            ) from None
    raise TypeError(f"invariant must be an int or Invariant, got {invariant!r}")


def pivot_order(n: int, traversal: Traversal) -> range:
    """Pivot indices in traversal order over a side of size ``n``."""
    if traversal is Traversal.FORWARD:
        return range(n)
    return range(n - 1, -1, -1)


def matrices_for_side(
    graph: BipartiteGraph, side: Side
) -> tuple[CompressedPattern, CompressedPattern]:
    """(pivot-major matrix, complementary matrix) for the given side.

    The pivot-major matrix exposes each pivot's neighbourhood as one slice
    (CSC for columns, CSR for rows); the complementary matrix exposes the
    neighbourhoods of the *other* side, which is what wedge continuation
    reads.
    """
    if side is Side.COLUMNS:
        return graph.csc, graph.csr
    return graph.csr, graph.csc


def wedge_endpoint_multiset(
    pivot_major: CompressedPattern,
    complementary: CompressedPattern,
    pivot: int,
) -> np.ndarray:
    """Multiset of same-side wedge endpoints reachable from ``pivot``.

    Walks pivot → (other side) → same side through the two compressed
    views; the returned array contains one entry per wedge, including
    degenerate "wedges" back to the pivot itself (filtered by callers via
    the positional prefix/suffix predicate, which excludes the pivot).
    """
    return complementary.gather(pivot_major.slice(pivot))


def _butterflies_at_pivot_scratch(
    pivot_major: CompressedPattern,
    complementary: CompressedPattern,
    pivot: int,
    reference: Reference,
    scratch: np.ndarray,
) -> int:
    """Σ_u C(y_u, 2) for one pivot using a reusable dense accumulator.

    The classic Chiba–Nishizeki discipline: scatter-increment wedge counts
    into a persistent length-n scratch array, reduce, then zero exactly
    the touched entries.  No sort anywhere: after the full scatter,
    Σ_e scratch[u_e] = Σ_u y_u² (each endpoint u is read y_u times), so

        Σ_u C(y_u, 2) = (Σ_u y_u² − Σ_u y_u) / 2
                      = (scratch[endpoints].sum() − len(endpoints)) / 2.
    """
    endpoints = wedge_endpoint_multiset(pivot_major, complementary, pivot)
    if endpoints.size == 0:
        return 0
    if reference is Reference.PREFIX:
        endpoints = endpoints[endpoints < pivot]
    else:
        endpoints = endpoints[endpoints > pivot]
    if endpoints.size == 0:
        return 0
    np.add.at(scratch, endpoints, 1)
    sum_sq = int(scratch[endpoints].sum(dtype=COUNT_DTYPE))
    scratch[endpoints] = 0
    return (sum_sq - endpoints.size) // 2


def _butterflies_at_pivot_spmv(
    pivot_major: CompressedPattern,
    entry_major_ids: np.ndarray,
    marker: np.ndarray,
    pivot: int,
    reference: Reference,
) -> int:
    """Σ_u C(y_u, 2) for one pivot under the ``spmv`` strategy.

    Forms y = A_refᵀ·a₁ by scanning every stored entry of the reference
    partition (the contiguous ``indptr`` range before or after the pivot)
    against a boolean marker of the pivot's neighbourhood — the direct
    sparse evaluation of the derived update, O(nnz(A_ref)) per pivot.
    """
    neighbors = pivot_major.slice(pivot)
    if neighbors.size == 0:
        return 0
    if reference is Reference.PREFIX:
        lo, hi = pivot_major.entry_range(0, pivot)
        base = 0
    else:
        lo, hi = pivot_major.entry_range(pivot + 1, pivot_major.major_dim)
        base = pivot + 1
    if hi <= lo:
        return 0
    marker[neighbors] = True
    entries = pivot_major.entries(lo, hi)
    owners = entry_major_ids[lo:hi]
    sel = marker[entries]
    marker[neighbors] = False
    if not sel.any():
        return 0
    y = np.bincount(owners[sel] - base)
    y = y.astype(np.int64)
    return int(np.sum(y * (y - 1)) // 2)


def _pivot_step(
    pivot_major: CompressedPattern,
    complementary: CompressedPattern,
    reference: Reference,
    strategy: str,
    *,
    scratch: np.ndarray | None = None,
    entry_major_ids: np.ndarray | None = None,
    marker: np.ndarray | None = None,
) -> Callable[[int], int]:
    """``pivot -> Σ_u C(y_u, 2)`` under ``strategy``, its buffers bound.

    The one strategy dispatch behind every per-pivot sweep (the counting
    loop and the parallel ranges).  ``scratch`` (scratch strategy) and
    ``entry_major_ids``/``marker`` (spmv) let a caller reuse buffers
    across calls; fresh ones are allocated when omitted.
    """
    if strategy == "scratch":
        if scratch is None:
            scratch = np.zeros(pivot_major.major_dim, dtype=np.int64)

        def step(pivot: int) -> int:
            return _butterflies_at_pivot_scratch(
                pivot_major, complementary, pivot, reference, scratch
            )
    elif strategy == "spmv":
        if entry_major_ids is None:
            entry_major_ids = pivot_major.expand_major()
        if marker is None:
            marker = np.zeros(pivot_major.minor_dim, dtype=bool)

        def step(pivot: int) -> int:
            return _butterflies_at_pivot_spmv(
                pivot_major, entry_major_ids, marker, pivot, reference
            )
    else:
        raise ValueError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    return step


def count_butterflies_unblocked(
    graph: BipartiteGraph,
    invariant,
    strategy: str = "scratch",
    on_step: Callable[[int, int, int], None] | None = None,
) -> int:
    """Count the butterflies of ``graph`` with one family member.

    Parameters
    ----------
    graph:
        The bipartite graph.
    invariant:
        Paper invariant number (1–8) or an :class:`Invariant`.
    strategy:
        ``"scratch"`` (wedge-optimal) or ``"spmv"`` (paper-literal); see
        the module docstring.
    on_step:
        Optional callback invoked after every pivot with
        ``(step_index, pivot, running_total)``.  The FLAME invariant-check
        tests use this to assert the loop invariant at every iteration.

    Returns
    -------
    int
        Ξ_G, the exact number of butterflies.
    """
    inv = resolve_invariant(invariant)
    pivot_major, complementary = matrices_for_side(graph, inv.side)
    n = pivot_major.major_dim
    if obs._enabled:
        obs.inc(f"family.invariant.{inv.number}")
        obs.inc(f"family.strategy.{strategy}")
        obs.inc("family.pivots", n)
    # the span subsumes the old flat ``family.count.calls`` counter (its
    # exit records ``family.count.calls`` + ``family.count.seconds``) and
    # contributes the family→invariant trace node
    with obs.span(
        "family.count",
        invariant=inv.number,
        strategy=strategy,
        side=inv.side.name.lower(),
        pivots=n,
    ):
        step = _pivot_step(pivot_major, complementary, inv.reference, strategy)
        total = 0
        for step_index, pivot in enumerate(pivot_order(n, inv.traversal)):
            total += step(pivot)
            if on_step is not None:
                on_step(step_index, pivot, total)
        return total


#: Strategy names accepted by the counting entry points.
STRATEGIES: tuple[str, ...] = ("scratch", "spmv")


def count_butterflies(graph: BipartiteGraph, *, plan=None) -> int:
    """Count butterflies with the sequential family's fastest member.

    The selection is routed through :mod:`repro.engine`: the plan pins
    the ``scratch`` strategy (the fastest unblocked one) on the serial
    executor, and the engine's rule adds the paper's Section V
    smaller-side member — 2 when ``n_right <= n_left``, else 6
    (:func:`repro.engine.select_count_invariant`).  ``plan`` accepts a
    pre-built :class:`repro.engine.Plan` (the engine's own dispatch path
    and power users); a hand-picked member is either a pinned plan,
    ``repro.engine.plan(graph, invariant=..., strategy=...)``, or
    :func:`count_butterflies_unblocked`.

    Degree-ordered traversal (the paper's Section VI future work) is a
    relabel of the input: count a :func:`repro.graphs.order_by_degree` /
    :func:`repro.graphs.order_side_by_degree` graph (the ``priority``
    kernel relabels by degree internally).
    """
    from repro import engine

    if plan is None:
        plan = engine.plan(graph, "count", strategy="scratch", executor="serial")
    if plan.invariant is None:
        plan = plan.with_(invariant=engine.select_count_invariant(graph))
    return engine.execute(plan, graph)
