"""Vertex-priority exact butterfly counting (the paper's ref [15]).

Wang et al. (VLDB 2019) count butterflies by assigning every vertex of
*both* sides a priority (degree-descending, ties by id) and charging each
butterfly to its highest-priority vertex: from each start vertex u, only
wedges (u, x, w) whose centre x and endpoint w both have lower priority
than u are expanded, and Σ C(count(w), 2) over those wedges counts every
butterfly exactly once.

Why once: a butterfly's maximum-priority vertex z is an *endpoint* of the
two wedges of one of the two orientations (same-side pairs of z), and both
the centres and the opposite endpoint of those wedges rank below z, so the
butterfly is expanded from z and from nowhere else.

This is the slow reference the ablation benchmark compares the family
against: a Python loop over start vertices.  The production kernel,
:func:`repro.core.priority.count_butterflies_priority`, runs the same
filter over whole-graph arrays and owns the priority order both use.
"""

from __future__ import annotations

import numpy as np

from repro.core.priority import priority_ranks
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import gather_slices

__all__ = ["count_butterflies_vertex_priority", "priority_ranks"]


def count_butterflies_vertex_priority(graph: BipartiteGraph) -> int:
    """Exact Ξ_G with vertex-priority wedge retrieval."""
    rank_l, rank_r = priority_ranks(graph)
    csr, csc = graph.csr, graph.csc
    total = 0

    # starts on the left side: centres are right vertices, endpoints left
    for u in range(graph.n_left):
        ru = rank_l[u]
        centres = csr.row(u)
        centres = centres[rank_r[centres] < ru]
        if centres.size == 0:
            continue
        endpoints = gather_slices(csc.indptr, csc.indices, centres)
        endpoints = endpoints[rank_l[endpoints] < ru]
        if endpoints.size == 0:
            continue
        _, counts = np.unique(endpoints, return_counts=True)
        counts = counts.astype(np.int64)
        total += int(np.sum(counts * (counts - 1)) // 2)

    # starts on the right side: centres left, endpoints right
    for v in range(graph.n_right):
        rv = rank_r[v]
        centres = csc.col(v)
        centres = centres[rank_l[centres] < rv]
        if centres.size == 0:
            continue
        endpoints = gather_slices(csr.indptr, csr.indices, centres)
        endpoints = endpoints[rank_r[endpoints] < rv]
        if endpoints.size == 0:
            continue
        _, counts = np.unique(endpoints, return_counts=True)
        counts = counts.astype(np.int64)
        total += int(np.sum(counts * (counts - 1)) // 2)

    return total
