"""Butterfly enumeration and per-pair counting.

The paper's introduction distinguishes *counting* butterflies from
*enumerating* them; peeling and many downstream analyses (motif sampling,
dense-subgraph explanation) need the instances, not just the total.  This
module provides:

- :func:`pairwise_wedge_counts` — the sparse strict-upper wedge matrix
  {(i, j) → |N(i) ∩ N(j)|}, the quantity every counting algorithm reduces.
- :func:`pairwise_butterfly_counts` — the same pairs mapped through
  C(·, 2): how many butterflies each same-side vertex pair closes.
- :func:`iter_butterflies` — lazy enumeration of the butterflies
  themselves as (u, w, v, y) tuples with u < w ∈ V1, v < y ∈ V2, in
  lexicographic order; one wedge-intersection per emitted pair group, so
  the cost is O(Σ wedges + output).
- :func:`butterflies_at_vertex` / :func:`butterflies_at_edge` — the
  instance lists behind the per-vertex and per-edge counts (cross-checked
  against them in the tests).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

import numpy as np

from repro.graphs.bipartite import BipartiteGraph

__all__ = [
    "pairwise_wedge_counts",
    "pairwise_butterfly_counts",
    "iter_butterflies",
    "butterflies_at_vertex",
    "butterflies_at_edge",
    "top_butterfly_pairs",
]


def top_butterfly_pairs(
    graph: BipartiteGraph, k: int, side: str = "left"
) -> list[tuple[tuple[int, int], int]]:
    """The ``k`` same-side pairs closing the most butterflies.

    Returns ``[((i, j), butterflies), ...]`` sorted descending (ties by
    pair), at most k entries, pairs with zero butterflies omitted.  These
    pairs are the natural seeds for dense-region exploration — each is the
    V1 (or V2) edge of a large biclique candidate.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    pairs = pairwise_butterfly_counts(graph, side)
    ranked = sorted(pairs.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]


def pairwise_wedge_counts(
    graph: BipartiteGraph, side: str = "left"
) -> dict[tuple[int, int], int]:
    """Wedge counts for every same-side pair with ≥1 wedge.

    Returns ``{(i, j): |N(i) ∩ N(j)|}`` with ``i < j`` over the chosen
    side.  This is the strict upper triangle of B = A·Aᵀ (side="left") or
    Aᵀ·A (side="right") with explicit zeros dropped.
    """
    if side == "left":
        pivot_major, complementary = graph.csr, graph.csc
    elif side == "right":
        pivot_major, complementary = graph.csc, graph.csr
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    out: dict[tuple[int, int], int] = {}
    n = pivot_major.major_dim
    for i in range(n):
        endpoints = complementary.gather(pivot_major.slice(i))
        if endpoints.size == 0:
            continue
        endpoints = endpoints[endpoints > i]
        if endpoints.size == 0:
            continue
        uniq, counts = np.unique(endpoints, return_counts=True)
        for j, c in zip(uniq, counts):
            out[(i, int(j))] = int(c)
    return out


def pairwise_butterfly_counts(
    graph: BipartiteGraph, side: str = "left"
) -> dict[tuple[int, int], int]:
    """Butterflies closed by every same-side pair: C(wedges, 2), zeros dropped."""
    return {
        pair: c * (c - 1) // 2
        for pair, c in pairwise_wedge_counts(graph, side).items()
        if c >= 2
    }


def iter_butterflies(
    graph: BipartiteGraph, limit: int | None = None
) -> Iterator[tuple[int, int, int, int]]:
    """Yield every butterfly as ``(u, w, v, y)``: u < w in V1, v < y in V2.

    Enumeration is grouped by the V1 pair (u, w): one pass computes the
    common neighbourhood N(u) ∩ N(w) from u's wedge expansion, then yields
    its C(·, 2) pairs.  Lexicographic in (u, w, v, y).

    Parameters
    ----------
    graph:
        The bipartite graph.
    limit:
        Stop after yielding this many butterflies (None = all) — guards
        against accidentally materialising a dense graph's output.
    """
    if limit is not None and limit <= 0:
        return
    csr, csc = graph.csr, graph.csc
    emitted = 0
    for u in range(graph.n_left):
        nbrs = csr.row(u)
        if nbrs.size == 0:
            continue
        # common neighbourhoods with every w > u, via one wedge expansion:
        # walk each v ∈ N(u) and record which larger rows it also touches
        partners: dict[int, list[int]] = {}
        for v in nbrs:
            for w in csc.col(int(v)):
                if w > u:
                    partners.setdefault(int(w), []).append(int(v))
        for w in sorted(partners):
            common = partners[w]  # already sorted: v ascends in the outer loop
            for v, y in combinations(common, 2):
                yield (u, w, v, y)
                emitted += 1
                if limit is not None and emitted >= limit:
                    return


def butterflies_at_vertex(
    graph: BipartiteGraph, vertex: int, side: str = "left"
) -> list[tuple[int, int, int, int]]:
    """All butterflies containing ``vertex`` (canonical (u, w, v, y) tuples).

    The length of the returned list equals
    ``vertex_butterfly_counts(graph, side)[vertex]`` (asserted in tests).
    """
    if side == "left":
        return _at_vertex_left(graph, vertex)
    if side == "right":
        swapped = graph.swap_sides()
        return [
            (bf[2], bf[3], bf[0], bf[1])
            for bf in _at_vertex_left(swapped, vertex)
        ]
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _at_vertex_left(
    graph: BipartiteGraph, u: int
) -> list[tuple[int, int, int, int]]:
    """Butterflies containing left vertex u, without global enumeration."""
    if not 0 <= u < graph.n_left:
        raise IndexError(f"left vertex {u} out of range")
    csr, csc = graph.csr, graph.csc
    out: list[tuple[int, int, int, int]] = []
    partners: dict[int, list[int]] = {}
    for v in csr.row(u):
        for w in csc.col(int(v)):
            w = int(w)
            if w != u:
                partners.setdefault(w, []).append(int(v))
    for w in sorted(partners):
        for v, y in combinations(partners[w], 2):
            a, b = (u, w) if u < w else (w, u)
            out.append((a, b, v, y))
    return sorted(out)


def butterflies_at_edge(
    graph: BipartiteGraph, u: int, v: int
) -> list[tuple[int, int, int, int]]:
    """All butterflies containing the edge (u ∈ V1, v ∈ V2).

    The length equals the edge's entry in
    :func:`~repro.core.local_counts.edge_butterfly_support` (asserted in
    tests).  Raises ``ValueError`` when the edge does not exist.
    """
    csr, csc = graph.csr, graph.csc
    if not (0 <= u < graph.n_left and 0 <= v < graph.n_right):
        raise IndexError(f"edge ({u}, {v}) out of range")
    row = csr.row(u)
    pos = np.searchsorted(row, v)
    if pos >= len(row) or row[pos] != v:
        raise ValueError(f"edge ({u}, {v}) not present")
    nu = set(map(int, row))
    out: list[tuple[int, int, int, int]] = []
    for w in csc.col(v):
        w = int(w)
        if w == u:
            continue
        common = nu.intersection(map(int, csr.row(w)))
        for y in common:
            if y == v:
                continue
            a, b = (u, w) if u < w else (w, u)
            c, d = (v, y) if v < y else (y, v)
            out.append((a, b, c, d))
    return sorted(out)
