"""Per-vertex and per-edge butterfly counts (Section IV's building blocks).

- :func:`vertex_butterfly_counts` — the vector the k-tip formulation calls
  ``s`` (eq. 19).  Note the paper's ¼ factor makes its ``s`` equal to *half*
  the number of butterflies containing each vertex (summing the diagonal
  double-counts each butterfly once per V1-endpoint pair); we return the
  true per-vertex participation count Σ_{j≠i} C(B_ij, 2) and the tests pin
  it against brute-force enumeration.  Peeling semantics ("every vertex in
  at least k butterflies") use the true count.

- :func:`edge_butterfly_support` — the support matrix the k-wing
  formulation calls S_w (eq. 25):

      S_w = (A·AᵀA − diag(AAᵀ)·1ᵀ − 1·diag(AᵀA)ᵀ + J) ∘ A

  whose (u, v) entry, for an existing edge, is the number of butterflies
  containing that edge (eq. 23/24).  Returned as a vector parallel to the
  CSR stored entries so the peeling mask is a single comparison.

Both are computed with the wedge-enumeration kernels in O(Σ wedges) rather
than by materialising the dense products; a dense evaluation of the same
formulas lives in :func:`vertex_counts_dense` / :func:`edge_support_dense`
as the cross-check oracle.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro._types import COUNT_DTYPE, INDEX_DTYPE
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela.linalg import choose2_dense

__all__ = [
    "vertex_butterfly_counts",
    "vertex_counts_dense",
    "edge_butterfly_support",
    "edge_support_dense",
    "paper_tip_vector",
]

#: Pivot cap of one per-vertex panel: on the e2e benchmark's ``skewed``
#: and ``occupations`` shapes, panels filled to the whole wedge budget
#: reduced ~1.5x slower than panels capped at 128 pivots (2-vCPU host).
_PANEL_PIVOTS = 128


def _side_patterns(graph: BipartiteGraph, side: str):
    """(pivot-major, complementary) patterns for peeling-style ``side``."""
    if side == "left":
        return graph.csr, graph.csc
    if side == "right":
        return graph.csc, graph.csr
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def vertex_butterfly_counts(graph: BipartiteGraph, side: str = "left") -> np.ndarray:
    """Number of butterflies containing each vertex of ``side``.

    For a left vertex u this is Σ_{w≠u} C(|N(u) ∩ N(w)|, 2) with w ranging
    over the left side — each butterfly at u pairs u with exactly one other
    left vertex.  The fixed-side oracle the tip decomposition and the
    tests read (production per-vertex counts run
    :func:`~repro.core.priority.vertex_butterfly_counts_priority`).
    Panelised: pivots are cut into contiguous panels of at most
    :data:`~repro.core.blocked.DEFAULT_PLAN_BLOCK_BUDGET` wedge
    expansions (a hub heavier than that gets a singleton panel) and at most
    :data:`_PANEL_PIVOTS` pivots.  Each pivot's count depends only on its
    own wedge expansion, so each panel's (pivot, endpoint) multiset is
    reduced on its own by :func:`repro.sparsela.panel_choose2_per_owner`
    — O(Σ wedges) total, with transient memory bounded by the budget
    rather than the graph.

    Parameters
    ----------
    graph:
        The bipartite graph.
    side:
        ``"left"`` (V1, the rows — the side eq. 19 addresses) or
        ``"right"`` (V2, by the symmetric formulation).

    Returns
    -------
    numpy.ndarray
        int64 vector of length ``n_left`` or ``n_right``.
    """
    from repro.core.blocked import DEFAULT_PLAN_BLOCK_BUDGET, work_bounded_panels
    from repro.core.workinfo import pivot_work_estimate
    from repro.sparsela import panel_choose2_per_owner

    pivot_major, complementary = _side_patterns(graph, side)
    n = pivot_major.major_dim
    out = np.zeros(n, dtype=COUNT_DTYPE)
    work = pivot_work_estimate(pivot_major, complementary)
    for lo, hi in work_bounded_panels(work, DEFAULT_PLAN_BLOCK_BUDGET):
        for p_lo in range(lo, hi, _PANEL_PIVOTS):
            p_hi = min(p_lo + _PANEL_PIVOTS, hi)
            deg = pivot_major.panel_degrees(p_lo, p_hi)
            if deg.sum(dtype=COUNT_DTYPE) == 0:
                continue
            neighbors = pivot_major.panel_indices(p_lo, p_hi)
            owner = np.repeat(np.arange(p_lo, p_hi, dtype=np.int64), deg)
            endpoints = complementary.gather(neighbors)
            owners = np.repeat(owner, complementary.degrees_of(neighbors))
            if obs._enabled:
                obs.inc("local.panels")
                obs.observe("local.panel.wedges", int(endpoints.size))
            sel = endpoints != owners
            if sel.any():
                out[p_lo:p_hi] = panel_choose2_per_owner(
                    owners[sel] - p_lo, endpoints[sel], p_hi - p_lo, n
                )
    return out


def paper_tip_vector(graph: BipartiteGraph) -> np.ndarray:
    """The literal eq. (19) vector s = ¼·DIAG(BB − B∘B − JB + B).

    Equal to ``vertex_butterfly_counts(graph, "left") / 2`` when the counts
    are even — kept (and tested) to document the paper's factor-of-two
    discrepancy explicitly.  Computed densely; small graphs only.
    """
    a = graph.biadjacency_dense(np.int64)
    b = a @ a.T
    bb_diag = np.einsum("ij,ji->i", b, b)
    jb_diag = b.sum(axis=0, dtype=COUNT_DTYPE)  # diag(J·B) = column sums of B
    s4 = bb_diag - np.diagonal(b) ** 2 - jb_diag + np.diagonal(b)
    return s4 // 4


def vertex_counts_dense(graph: BipartiteGraph, side: str = "left") -> np.ndarray:
    """Dense oracle for :func:`vertex_butterfly_counts` via B = AAᵀ."""
    a = graph.biadjacency_dense(np.int64)
    if side == "right":
        a = a.T
    elif side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    b = a @ a.T
    c = choose2_dense(b)
    np.fill_diagonal(c, 0)
    return c.sum(axis=1, dtype=COUNT_DTYPE)


def edge_butterfly_support(graph: BipartiteGraph) -> np.ndarray:
    """Butterflies containing each edge, parallel to ``graph.csr`` entries.

    Implements eq. (23): for edge (u, v),

        support = Σ_{w ∈ N(v)} |N(u) ∩ N(w)|  −  |N(u)|  −  |N(v)|  +  1

    Per left vertex u: one wedge expansion gives the counts
    c_w = |N(u) ∩ N(w)| for every w (including c_u = deg u); a second pass
    over u's incident edges segment-sums c over each neighbour column.
    Total cost O(Σ wedges).  The fixed-side oracle the heap wing
    decomposition and the tests read (production per-edge support runs
    :func:`~repro.core.priority.edge_butterfly_support_priority`).

    Returns
    -------
    numpy.ndarray
        int64 vector ``support`` with ``support[k]`` the butterfly count of
        the k-th stored edge of ``graph.csr`` (row-major edge order).
    """
    csr, csc = graph.csr, graph.csc
    m = csr.major_dim
    deg_left = csr.degrees()
    deg_right = csc.degrees()
    support = np.zeros(csr.nnz, dtype=COUNT_DTYPE)
    # dense scratch holding c_w for the current u (reset sparsely each round)
    c = np.zeros(m, dtype=COUNT_DTYPE)
    for u in range(m):
        nbrs = csr.slice(u)
        if nbrs.size == 0:
            continue
        endpoints = csc.gather(nbrs)
        uniq, counts = np.unique(endpoints, return_counts=True)
        c[uniq] = counts
        # for each incident edge (u, v): Σ_{w ∈ N(v)} c_w — the endpoints
        # array already holds every such w grouped by v, so segment-sum it
        seg_lens = csc.degrees_of(nbrs)
        vals = c[endpoints]
        csum = np.concatenate([[0], np.cumsum(vals, dtype=COUNT_DTYPE)])
        seg_ends = np.cumsum(seg_lens, dtype=INDEX_DTYPE)
        seg_starts = seg_ends - seg_lens
        sums = csum[seg_ends] - csum[seg_starts]
        e_lo, e_hi = csr.entry_range(u, u + 1)
        support[e_lo:e_hi] = sums - deg_left[u] - deg_right[nbrs] + 1
        c[uniq] = 0
    return support


def edge_support_dense(graph: BipartiteGraph) -> np.ndarray:
    """Dense oracle for eq. (25), returned as an (m × n) matrix.

    S_w = (A·AᵀA − diag(AAᵀ)·1ᵀ − 1·diag(AᵀA)ᵀ + J) ∘ A; zero off the
    pattern of A.
    """
    a = graph.biadjacency_dense(np.int64)
    m, n = a.shape
    aat_diag = (a @ a.T).diagonal()
    ata_diag = (a.T @ a).diagonal()
    core = a @ a.T @ a
    core = core - aat_diag[:, None] - ata_diag[None, :] + 1
    return core * a
