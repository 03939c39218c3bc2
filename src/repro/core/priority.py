"""Vertex-priority butterfly counting: each butterfly charged to its top vertex.

Wang et al. (arXiv:1812.00283, BFC-VP) rank the vertices of *both* sides
together by (degree, id) and expand a wedge (u, v, w) — centre v,
endpoints u and w on the same side — only when u outranks both v and w.
Summing C(k, 2) over the multiplicity k of every (u, w) endpoint pair
then counts each butterfly exactly once.

Why once: let z be a butterfly's highest-ranked vertex and z' the vertex
opposite it (same side, no shared edge).  Both wedges between z and z'
have their centres and their far endpoint z' below z, so the pair
(z, z') sees multiplicity contributions from both and counts the
butterfly.  From any other vertex u of the butterfly, one of the two
wedges towards u's opposite vertex passes through z (as centre or far
endpoint), which outranks u, so the pair never collects both.

Degree order is what makes the filter pay: a wedge is expanded only from
its top-ranked vertex, so hubs act as centres only for higher-degree
endpoints, and the expanded set shrinks from the fixed-side Σ deg² to
Σ_v [C(d_v, 2) − C(l_v, 2)], where l_v is v's number of lower-ranked
neighbours (:func:`priority_wedge_work`, exact for this kernel).

The kernel is serial numpy over whole-graph arrays: relabel all m + n
vertices by rank, build the symmetric adjacency with every list sorted
ascending, and for each edge v < u gather the prefix of adj(v) that lies
below u — exactly the endpoints w < u.  Top vertices are cut into
contiguous panels of bounded wedge work and each panel's (owner,
endpoint) list is reduced by :func:`repro.sparsela.panel_choose2_sum`.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro._types import COUNT_DTYPE, INDEX_DTYPE
from repro.core.blocked import work_bounded_panels
from repro.sparsela import panel_choose2_sum
from repro.sparsela.kernels import choose2

__all__ = [
    "count_butterflies_priority",
    "priority_ranks",
    "priority_wedge_work",
    "PRIORITY_PANEL_BUDGET",
]

#: Wedges expanded per panel of top vertices.  An eighth of the blocked
#: planner's 2^18: the gathered prefixes are scattered across the whole
#: adjacency, so panels pay off only while they stay cache-resident
#: (2-vCPU x86-64 host, e2e shapes at seed 0, median of 21 interleaved
#: runs: github 20.8 ms at 2^15 against 24.6 ms at 2^16, occupations 9.7
#: against 11.8, dense 113 against 116; 2^17 and 2^18 were slower still).
PRIORITY_PANEL_BUDGET: int = 1 << 15


def priority_ranks(graph) -> tuple[np.ndarray, np.ndarray]:
    """Priority ranks for (left, right) vertices: higher rank = higher priority.

    All m + n vertices are ordered ascending by (degree, id), with left
    vertex ``x`` holding id ``x`` and right vertex ``y`` id ``m + y``; a
    vertex's position in that order is its rank, so the highest-degree
    vertex ranks last.  Any strict total order counts correctly; degree
    order is what makes the filter effective.
    """
    csr = graph.csr
    deg = np.concatenate([csr.degrees(), csr.minor_degrees()]).astype(COUNT_DTYPE)
    n_all = deg.size
    # one sort of packed (degree, id) keys: unique, so no stability needed
    order = np.sort(deg * n_all + np.arange(n_all, dtype=INDEX_DTYPE)) % n_all
    rank = np.empty(n_all, dtype=INDEX_DTYPE)
    rank[order] = np.arange(n_all, dtype=INDEX_DTYPE)
    return rank[: graph.n_left], rank[graph.n_left :]


def _ranked_edges(graph) -> tuple[np.ndarray, np.ndarray]:
    """Every edge as (rank of left endpoint, rank of right endpoint)."""
    rank_l, rank_r = priority_ranks(graph)
    csr = graph.csr
    return rank_l[csr.expand_major()], rank_r[csr.panel_indices(0, graph.n_left)]


def priority_wedge_work(graph) -> int:
    """Wedges the priority kernel expands: Σ_v [C(d_v, 2) − C(l_v, 2)].

    Centre v's neighbours, sorted by rank, are its l_v lower-ranked ones
    followed by the rest; the one at position i expands i wedges through
    v (the endpoints ranked below it), which sums to C(d_v, 2) − C(l_v, 2).
    O(E + (m + n) log(m + n)); the planner's work model for the
    ``priority`` strategy.
    """
    a, b = _ranked_edges(graph)
    n_all = graph.n_left + graph.n_right
    deg = np.bincount(a, minlength=n_all) + np.bincount(b, minlength=n_all)
    lower = np.bincount(np.maximum(a, b), minlength=n_all)
    return int((choose2(deg) - choose2(lower)).sum(dtype=COUNT_DTYPE))


def count_butterflies_priority(graph) -> int:
    """Exact Ξ_G, each butterfly counted once from its top-ranked vertex."""
    if graph.n_edges == 0:
        return 0
    a, b = _ranked_edges(graph)
    n_all = graph.n_left + graph.n_right
    # symmetric adjacency in rank space, each list ascending: one sort of
    # packed (owner, neighbour) keys
    owner_of = np.concatenate([a, b])
    keys = np.sort(owner_of * n_all + np.concatenate([b, a]))
    deg = np.bincount(owner_of, minlength=n_all)
    offsets = np.zeros(n_all + 1, dtype=INDEX_DTYPE)
    np.cumsum(deg, out=offsets[1:])
    owner = np.repeat(np.arange(n_all, dtype=INDEX_DTYPE), deg)
    adj = keys - owner * n_all
    # lower entries (u, v < u) lead each list, so they come out grouped by
    # top vertex u; the transposed upper entry (v, u) sits at pos_v(u)
    # within adj(v), and adj(v)[:pos_v(u)] are exactly the endpoints w < u
    is_lower = adj < owner
    lower = np.flatnonzero(is_lower)
    top, centre = owner[lower], adj[lower]
    reverse = np.empty(lower.size, dtype=INDEX_DTYPE)
    reverse[np.argsort(centre * n_all + top)] = np.flatnonzero(~is_lower)
    start = offsets[centre]
    length = reverse - start
    ends = np.zeros(lower.size + 1, dtype=INDEX_DTYPE)
    np.cumsum(length, out=ends[1:])
    first = np.zeros(n_all + 1, dtype=INDEX_DTYPE)  # lower entries per top
    np.cumsum(np.bincount(top, minlength=n_all), out=first[1:])
    work = ends[first[1:]] - ends[first[:-1]]
    total = 0
    for lo, hi in work_bounded_panels(work, PRIORITY_PANEL_BUDGET):
        e_lo, e_hi = first[lo], first[hi]
        wedges = int(ends[e_hi] - ends[e_lo])
        if wedges == 0:
            continue
        span = length[e_lo:e_hi]
        shift = start[e_lo:e_hi] - (ends[e_lo:e_hi] - ends[e_lo])
        endpoints = adj[np.repeat(shift, span) + np.arange(wedges)]
        owners = np.repeat(top[e_lo:e_hi] - lo, span)
        if obs._enabled:
            obs.inc("priority.wedges", wedges)
        total += panel_choose2_sum(owners, endpoints, hi - lo, hi)
    return total
