"""Bipartite clustering metrics built on butterfly counts.

Section I motivates butterfly counting partly through the bipartite
clustering coefficient: with no triangles available, closure in a bipartite
graph is measured by how often a path of length 3 (a *caterpillar*) closes
into a 4-cycle (a butterfly).  The standard definition (Robins–Alexander)
is

    C₄ = 4 · (number of butterflies) / (number of caterpillars)

where each butterfly contains exactly 4 caterpillars, so C₄ ∈ [0, 1].
"""

from __future__ import annotations

import numpy as np

from repro.graphs.bipartite import BipartiteGraph

__all__ = [
    "caterpillar_count",
    "bipartite_clustering_coefficient",
    "local_clustering_left",
]


def caterpillar_count(graph: BipartiteGraph) -> int:
    """Number of paths of length 3 (caterpillars) in the bipartite graph.

    A caterpillar is an edge (u, v) extended by one additional distinct
    neighbour at each endpoint: Σ_{(u,v) ∈ E} (deg(u) − 1)·(deg(v) − 1).
    """
    dl = graph.degrees_left().astype(np.int64)
    dr = graph.degrees_right().astype(np.int64)
    rows, cols = graph.coo.rows, graph.coo.cols
    return int(np.sum((dl[rows] - 1) * (dr[cols] - 1)))


def bipartite_clustering_coefficient(
    graph: BipartiteGraph, butterflies: int | None = None
) -> float:
    """The global bipartite clustering coefficient C₄ = 4·Ξ_G / caterpillars.

    ``butterflies`` may be supplied to avoid recounting when Ξ_G is already
    known; otherwise it is counted on the engine's default plan.  Returns
    0.0 for caterpillar-free graphs.
    """
    cats = caterpillar_count(graph)
    if cats == 0:
        return 0.0
    if butterflies is None:
        from repro import engine

        butterflies = engine.execute(engine.plan(graph), graph)
    return 4.0 * butterflies / cats


def local_clustering_left(graph: BipartiteGraph) -> np.ndarray:
    """Per-left-vertex closure ratio: butterflies at u over caterpillars
    whose middle edge is incident to u.

    ``local[u] = 2·b_u / Σ_{v ∈ N(u)} (deg(u) − 1)(deg(v) − 1)`` with 0 for
    vertices with no caterpillar.  The factor is 2 (not the global 4)
    because exactly two of a butterfly's four caterpillars have their
    middle edge at a given left endpoint, and each caterpillar closes into
    at most one butterfly — so ``local`` lies in [0, 1] and its
    edge-weighted aggregate recovers the global C₄.
    """
    from repro.core.priority import vertex_butterfly_counts_priority

    b = vertex_butterfly_counts_priority(graph)[0].astype(np.float64)
    dl = graph.degrees_left().astype(np.int64)
    dr = graph.degrees_right().astype(np.int64)
    rows, cols = graph.coo.rows, graph.coo.cols
    cats = np.zeros(graph.n_left, dtype=np.int64)
    np.add.at(cats, rows, (dl[rows] - 1) * (dr[cols] - 1))
    out = np.zeros(graph.n_left, dtype=np.float64)
    nz = cats > 0
    out[nz] = 2.0 * b[nz] / cats[nz]
    return out
