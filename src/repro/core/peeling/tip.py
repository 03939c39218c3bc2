"""k-tip peeling (Section IV-B).

A maximal induced subgraph H of G is a *k-tip* when every vertex of the
peeled side participates in at least k butterflies of H.  The paper's
formulation iterates eqs. (19)–(22): compute the per-vertex butterfly
vector s, mask out vertices with s < k (zeroing their rows of A), and
repeat until no vertex is removed — removals can drop the counts of the
survivors below k, hence the fixpoint loop.

Two implementations are provided:

- :func:`k_tip` — the batch fixpoint.  Its rounds run exactly as
  formulated: each is one per-vertex count of the survivor graph by the
  one-pass :func:`~repro.core.priority.vertex_butterfly_counts_priority`.
  After :func:`~repro.core.peeling.buckets.tip_numbers_bucket_parallel`
  on the same graph none runs: the k-tips are nested and the tip numbers
  index them (a vertex is in the k-tip exactly when its tip number is
  ≥ k), so the kept set is read off the tip numbers that call left.
- :func:`k_tip_lookahead` — the fused single-sweep variant of Fig. 8
  (KTIP_UNB_VAR1): the s vector is produced by a FLAME sweep over the rows
  in which each σ₁ is computed from the rows *below* the pivot (the A₂
  look-ahead reference) plus accumulated contributions from the rows
  already passed — so s is finished exactly when the sweep is, and the
  mask for each vertex is emitted as soon as its entry of s completes.
  Each outer fixpoint round is one such sweep.

Both return the same fixpoint (asserted by the tests); k-tips are computed
for one chosen side, matching the one-sided definition of Sariyüce–Pınar
(the paper's ref [11]).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro._types import COUNT_DTYPE
from repro.core.priority import vertex_butterfly_counts_priority
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import gather_slices

__all__ = ["TipResult", "k_tip", "k_tip_lookahead"]


@dataclass(frozen=True)
class TipResult:
    """Result of a k-tip peel.

    Attributes
    ----------
    subgraph:
        The k-tip subgraph (same vertex id space; removed vertices keep
        their ids but lose all edges).
    kept:
        Boolean mask over the peeled side: True for vertices in the k-tip.
    rounds:
        Number of fixpoint iterations executed; 0 when the kept set was
        read off tip numbers a decomposition left on the graph.
    k, side:
        Echo of the query.
    """

    subgraph: BipartiteGraph
    kept: np.ndarray
    rounds: int
    k: int
    side: str

    @property
    def n_kept(self) -> int:
        """Vertices surviving on the peeled side."""
        return int(np.count_nonzero(self.kept))


def _peel_side_sizes(graph: BipartiteGraph, side: str) -> int:
    if side == "left":
        return graph.n_left
    if side == "right":
        return graph.n_right
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _survivors(graph: BipartiteGraph, kept: np.ndarray, side: str):
    """``graph`` with the peeled-side vertices outside ``kept`` emptied."""
    if side == "left":
        return graph.subgraph_from_mask(kept, np.ones(graph.n_right, dtype=bool))
    return graph.subgraph_from_mask(np.ones(graph.n_left, dtype=bool), kept)


def k_tip(graph: BipartiteGraph, k: int, side: str = "left") -> TipResult:
    """Batch k-tip peeling: iterate eqs. (19)–(22) until fixpoint.

    Parameters
    ----------
    graph:
        The bipartite graph.
    k:
        Minimum number of butterflies each surviving vertex of ``side``
        must participate in (within the surviving subgraph).
    side:
        Which vertex set is peeled (``"left"`` = V1, the formulation's
        default, or ``"right"``).

    Returns
    -------
    TipResult
        The maximal subgraph in which every ``side`` vertex lies in ≥ k
        butterflies; empty when no such subgraph exists.  On a graph
        holding ``side``'s tip numbers the kept set is ``tip >= k`` and
        ``rounds`` is 0.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n_side = _peel_side_sizes(graph, side)
    tips = graph._tip_numbers.get(side)
    index = 0 if side == "left" else 1
    kept = np.ones(n_side, dtype=bool)
    current = graph
    rounds = 0
    with obs.span("peel.tip", k=k, side=side) as tip_span:
        if tips is not None:
            obs.inc("peel.tip.tip_numbers_reused")
            kept = tips >= k
            current = _survivors(graph, kept, side)
        else:
            # the loop ends when no kept vertex is below k, or none is kept,
            # so recounting the final survivor graph could not change ``kept``
            while True:
                rounds += 1
                with obs.span("peel.tip.round", round=rounds):
                    counts = vertex_butterfly_counts_priority(current)[index]
                    # vertices already peeled lost their rows; only demand
                    # >= k of the still-present vertices
                    offenders = kept & (counts < k)
                    if obs._enabled:
                        obs.inc("peel.tip.rounds")
                        obs.inc("peel.tip.peeled", int(offenders.sum()))
                    if not offenders.any():
                        break
                    kept &= ~offenders
                    current = _survivors(graph, kept, side)
                if not kept.any():
                    break
        if obs._enabled:
            # policy="sum": kept counts over disjoint vertex shards are
            # additive, so worker-delta merges are order-independent
            obs.gauge("peel.tip.kept", int(kept.sum()), policy="sum")
            tip_span.set_attributes(rounds=rounds, kept=int(kept.sum()))
    return TipResult(subgraph=current, kept=kept, rounds=rounds, k=k, side=side)


def _tip_sweep_lookahead(graph: BipartiteGraph, side: str) -> np.ndarray:
    """One Fig.-8 style look-ahead sweep producing the s vector.

    Walks the peeled side top-to-bottom; at pivot u the wedge counts
    against the suffix rows (the A₂ partition) yield both σ₁'s suffix
    contribution and, scattered back, the partial updates to s₂ — so every
    pair {u, w} is accounted exactly once and s is complete at sweep end.
    """
    if side == "left":
        pivot_major, complementary = graph.csr, graph.csc
    else:
        pivot_major, complementary = graph.csc, graph.csr
    n = pivot_major.major_dim
    s = np.zeros(n, dtype=COUNT_DTYPE)
    for u in range(n):
        endpoints = gather_slices(
            complementary.indptr, complementary.indices, pivot_major.slice(u)
        )
        if endpoints.size == 0:
            continue
        endpoints = endpoints[endpoints > u]  # A2: rows below the pivot
        if endpoints.size == 0:
            continue
        uniq, counts = np.unique(endpoints, return_counts=True)
        contrib = (counts.astype(COUNT_DTYPE) * (counts - 1)) // 2
        pair_total = int(contrib.sum())
        s[u] += pair_total  # σ₁ := suffix wedge pairs + already-accumulated
        s[uniq] += contrib  # partial update of s₂ (the look-ahead write)
    return s


def k_tip_lookahead(graph: BipartiteGraph, k: int, side: str = "left") -> TipResult:
    """k-tip peeling with the Fig. 8 fused look-ahead sweep per round.

    Produces the identical fixpoint to :func:`k_tip`; the difference is
    purely operational — each round computes s in a single suffix-referencing
    sweep that also emits each vertex's mask bit as soon as its s entry is
    final, the "look-ahead" structure the paper derives in Fig. 8.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n_side = _peel_side_sizes(graph, side)
    kept = np.ones(n_side, dtype=bool)
    current = graph
    rounds = 0
    while True:
        rounds += 1
        if obs._enabled:
            obs.inc("peel.tip.lookahead.rounds")
        s = _tip_sweep_lookahead(current, side)
        offenders = kept & (s < k)
        if not offenders.any():
            break
        kept &= ~offenders
        current = _survivors(graph, kept, side)
        if not kept.any():
            break
    return TipResult(subgraph=current, kept=kept, rounds=rounds, k=k, side=side)
