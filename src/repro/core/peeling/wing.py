"""k-wing peeling (Section IV-C).

A maximal induced subgraph H of G is a *k-wing* when every **edge** of H is
contained in at least k butterflies of H — the bipartite analogue of
k-truss.  The paper's formulation is the two-step fixpoint of eqs.
(25)–(27): compute the per-edge support matrix S_w, mask out edges with
support < k (Hadamard mask on A), repeat until no edge is removed or all
edges are gone.  Each round's support is one ranked-wedge pass
(:func:`~repro.core.priority.edge_butterfly_support_priority`), the
kernel the wing decomposition counts with too.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import obs
from repro.core.priority import edge_butterfly_support_priority
from repro.graphs.bipartite import BipartiteGraph

__all__ = ["WingResult", "k_wing"]


@dataclass(frozen=True)
class WingResult:
    """Result of a k-wing peel.

    Attributes
    ----------
    subgraph:
        The k-wing subgraph (vertex id space preserved; removed edges
        gone).
    rounds:
        Number of fixpoint iterations executed.
    k:
        Echo of the query.
    """

    subgraph: BipartiteGraph
    rounds: int
    k: int

    @property
    def n_edges(self) -> int:
        """Edges surviving in the k-wing."""
        return self.subgraph.n_edges


def k_wing(graph: BipartiteGraph, k: int) -> WingResult:
    """Batch k-wing peeling: iterate eqs. (25)–(27) until fixpoint.

    Parameters
    ----------
    graph:
        The bipartite graph.
    k:
        Minimum number of butterflies each surviving edge must be part of
        (within the surviving subgraph).

    Returns
    -------
    WingResult
        The maximal subgraph in which every edge lies in ≥ k butterflies;
        the empty graph when none exists.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    current = graph
    rounds = 0
    with obs.span("peel.wing", k=k) as wing_span:
        while current.n_edges:
            rounds += 1
            with obs.span("peel.wing.round", round=rounds):
                support = edge_butterfly_support_priority(current)  # per entry
            keep = support >= k  # eq. (26): M = S_w >= k
            if obs._enabled:
                obs.inc("peel.wing.rounds")
                obs.inc("peel.wing.edges_removed", int((~keep).sum()))
            if keep.all():
                break
            # eq. (27): A₁ = A₀ ∘ M — drop under-supported stored entries
            current = BipartiteGraph.from_csr(current.csr.mask_entries(keep))
        if obs._enabled:
            # policy="sum": edge counts over disjoint shards are additive,
            # so worker-delta merges are order-independent
            obs.gauge("peel.wing.edges", int(current.n_edges), policy="sum")
            wing_span.set_attributes(rounds=rounds, edges=int(current.n_edges))
    if rounds == 0:
        rounds = 1  # an edgeless graph is vacuously its own k-wing
    return WingResult(subgraph=current, rounds=rounds, k=k)
