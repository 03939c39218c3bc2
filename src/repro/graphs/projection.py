"""One-mode projections and butterfly-free structure tests.

A bipartite graph's one-mode projection collapses wedges into weighted
unipartite edges: left vertices i, j are connected with weight
|N(i) ∩ N(j)|.  Butterflies in G correspond exactly to projection edges of
weight ≥ 2 (each contributes C(w, 2) butterflies), which ties the paper's
formulation to the classic affiliation-network workflow and gives another
route to the count used as a cross-check in the tests.

Also here: :func:`is_butterfly_free` — whether the graph contains any
butterfly at all, decidable from the projection weights without counting.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.bipartite import BipartiteGraph

__all__ = ["project", "count_from_projection", "is_butterfly_free"]


def project(
    graph: BipartiteGraph, side: str = "left", min_weight: int = 1
) -> dict[tuple[int, int], int]:
    """Weighted one-mode projection onto ``side``.

    Returns ``{(i, j): weight}`` for i < j with weight = number of common
    neighbours ≥ ``min_weight``.  The projection of a side of size n can
    have up to C(n, 2) entries; ``min_weight=2`` keeps only the
    butterfly-bearing edges.
    """
    if min_weight < 1:
        raise ValueError(f"min_weight must be >= 1, got {min_weight}")
    from repro.core.enumeration import pairwise_wedge_counts

    pairs = pairwise_wedge_counts(graph, side)
    if min_weight == 1:
        return pairs
    return {p: w for p, w in pairs.items() if w >= min_weight}


def count_from_projection(graph: BipartiteGraph, side: str = "left") -> int:
    """Ξ_G recovered from the projection: Σ over edges of C(weight, 2).

    Equal to every family member's count (asserted in tests) — the
    projection view of eq. (1).
    """
    return sum(
        w * (w - 1) // 2 for w in project(graph, side, min_weight=2).values()
    )


def is_butterfly_free(graph: BipartiteGraph) -> bool:
    """True iff the graph contains no butterfly.

    Short-circuits on the first same-side pair with two distinct common
    neighbours, so it is much cheaper than counting on butterfly-rich
    graphs and no more expensive on butterfly-free ones.
    """
    csr, csc = graph.csr, graph.csc
    # walk the smaller side for the cheaper sweep (Section V rule again)
    if graph.n_left <= graph.n_right:
        pivot_major, complementary = csr, csc
    else:
        pivot_major, complementary = csc, csr
    n = pivot_major.major_dim
    for i in range(n):
        endpoints = complementary.gather(pivot_major.slice(i))
        if endpoints.size == 0:
            continue
        endpoints = endpoints[endpoints > i]
        if endpoints.size < 2:
            continue
        uniq, counts = np.unique(endpoints, return_counts=True)
        if (counts >= 2).any():
            return False
    return True
