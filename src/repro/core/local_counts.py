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
    "vertex_butterfly_counts_blocked",
    "vertex_counts_panel",
    "vertex_counts_dense",
    "edge_butterfly_support",
    "edge_butterfly_support_blocked",
    "edge_support_panel",
    "edge_support_dense",
    "paper_tip_vector",
]

#: Pivot cap of one per-vertex panel (and the pinned-width default): on
#: the e2e benchmark's ``skewed`` and ``occupations`` shapes, panels
#: filled to the whole wedge budget reduced ~1.5x slower than panels
#: capped at 128 pivots (2-vCPU host).
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
    left vertex.  Panelised: pivots are cut into contiguous panels of at
    most :data:`~repro.core.parallel.DEFAULT_WEDGE_SHARD_BUDGET` wedge
    expansions (a hub heavier than that gets a singleton panel) and at most
    128 pivots, and each panel is reduced by
    :func:`vertex_counts_panel` — O(Σ wedges) total, with transient memory
    bounded by the budget rather than the graph.

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
    from repro.core.blocked import work_bounded_panels
    from repro.core.parallel import DEFAULT_WEDGE_SHARD_BUDGET
    from repro.core.workinfo import pivot_work_estimate

    pivot_major, complementary = _side_patterns(graph, side)
    out = np.zeros(pivot_major.major_dim, dtype=COUNT_DTYPE)
    work = pivot_work_estimate(pivot_major, complementary)
    for lo, hi in work_bounded_panels(work, DEFAULT_WEDGE_SHARD_BUDGET):
        for p_lo in range(lo, hi, _PANEL_PIVOTS):
            p_hi = min(p_lo + _PANEL_PIVOTS, hi)
            out[p_lo:p_hi] = vertex_counts_panel(
                pivot_major, complementary, p_lo, p_hi
            )
    return out


def vertex_butterfly_counts_blocked(
    graph: BipartiteGraph,
    side: str = "left",
    block_size: int = _PANEL_PIVOTS,
) -> np.ndarray:
    """:func:`vertex_butterfly_counts` with a pinned panel width.

    Identical output; every panel is exactly ``block_size`` consecutive
    pivots (the last one may be shorter) regardless of their wedge work —
    the form the peeling fixpoint loops and the block-size ablations call.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    pivot_major, complementary = _side_patterns(graph, side)
    n = pivot_major.major_dim
    out = np.zeros(n, dtype=COUNT_DTYPE)
    for lo in range(0, n, block_size):
        hi = min(lo + block_size, n)
        out[lo:hi] = vertex_counts_panel(pivot_major, complementary, lo, hi)
    return out


def vertex_counts_panel(pivot_major, complementary, lo: int, hi: int) -> np.ndarray:
    """Per-vertex butterfly counts for pivots ``[lo, hi)`` — one panel.

    The unit of work behind both the blocked and the parallel per-vertex
    kernels: each pivot's count depends only on its own wedge expansion,
    so disjoint panels are independent.  The (pivot, endpoint) multiset is
    reduced by :func:`repro.sparsela.panel_choose2_per_owner`, which picks
    its branch from the panel's shape.
    """
    from repro.sparsela import panel_choose2_per_owner

    out = np.zeros(max(hi - lo, 0), dtype=COUNT_DTYPE)
    if hi <= lo:
        return out
    n = pivot_major.major_dim
    pivots = np.arange(lo, hi, dtype=np.int64)
    deg = pivot_major.panel_degrees(lo, hi)
    if deg.sum(dtype=COUNT_DTYPE) == 0:
        return out
    neighbors = pivot_major.panel_indices(lo, hi)
    owner = np.repeat(pivots, deg)
    endpoints = complementary.gather(neighbors)
    owners = np.repeat(owner, complementary.degrees_of(neighbors))
    if obs._enabled:
        obs.inc("local.panels")
        obs.observe("local.panel.wedges", int(endpoints.size))
    sel = endpoints != owners
    if not sel.any():
        return out
    return panel_choose2_per_owner(owners[sel] - lo, endpoints[sel], hi - lo, n)


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
    Total cost O(Σ wedges).

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


def edge_butterfly_support_blocked(
    graph: BipartiteGraph, block_size: int = 64
) -> np.ndarray:
    """Blocked fast path for :func:`edge_butterfly_support`.

    Identical output; processes panels of ``block_size`` left vertices
    with three whole-panel operations:

    1. one gather expands every wedge of the panel, and a single
       ``np.unique`` over ``u_local·m + w`` keys yields all pairwise
       wedge counts c_{u,w} at once;
    2. a second gather builds, for every edge (u, v) of the panel, the
       query keys ``u_local·m + w`` for w ∈ N(v);
    3. ``np.searchsorted`` resolves the queries against the sorted unique
       keys (misses contribute 0), and a segmented sum per edge finishes
       eq. (23).

    This is the kernel :func:`~repro.core.peeling.wing.k_wing` runs per
    fixpoint round.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    csr, csc = graph.csr, graph.csc
    m = csr.major_dim
    support = np.zeros(csr.nnz, dtype=COUNT_DTYPE)
    for lo in range(0, m, block_size):
        hi = min(lo + block_size, m)
        e_lo, _ = csr.entry_range(lo, hi)
        vals = edge_support_panel(csr, csc, lo, hi)
        support[e_lo : e_lo + len(vals)] = vals
    return support


def edge_support_panel(csr, csc, lo: int, hi: int) -> np.ndarray:
    """Butterfly support of every stored edge of CSR rows ``[lo, hi)``.

    The unit of work behind the blocked per-edge kernel (edges of
    disjoint row panels are independent), in three whole-panel
    operations:

    1. one gather expands every wedge of the panel, and a single
       ``np.unique`` over ``u_local·m + w`` keys yields all pairwise
       wedge counts c_{u,w} at once;
    2. the wedge expansion itself *is* the per-edge query list
       ``(u_local, w)`` for w ∈ N(v), grouped by edge;
    3. ``np.searchsorted`` resolves the queries against the sorted unique
       keys (misses contribute 0), and a segmented sum per edge finishes
       eq. (23).

    Returns the int64 support values parallel to the entry range
    ``csr.indices[indptr[lo]:indptr[hi]]``.
    """
    m = csr.major_dim
    e_lo, e_hi = csr.entry_range(lo, hi)
    out = np.zeros(e_hi - e_lo, dtype=COUNT_DTYPE)
    if e_hi == e_lo:
        return out
    panel_nbrs = csr.panel_indices(lo, hi)  # v of every panel edge
    panel_deg = csr.panel_degrees(lo, hi)
    owners_u = np.repeat(
        np.arange(lo, hi, dtype=np.int64), panel_deg
    )  # u of every panel edge
    # (1) all wedge endpoints of the panel, keyed by (u_local, w)
    wedge_w = csc.gather(panel_nbrs)
    wedge_deg = csc.degrees_of(panel_nbrs)
    wedge_u = np.repeat(owners_u, wedge_deg)
    keys = (wedge_u - lo) * np.int64(m) + wedge_w
    uniq_keys, pair_counts = np.unique(keys, return_counts=True)
    pair_counts = pair_counts.astype(COUNT_DTYPE)
    # (2) per edge (u, v): queries (u_local, w) for w ∈ N(v) — the
    # wedge expansion *is* that list, grouped by edge already
    query_keys = keys
    # (3) resolve and segment-sum per edge
    pos = np.searchsorted(uniq_keys, query_keys)
    pos = np.minimum(pos, len(uniq_keys) - 1)
    vals = np.where(
        uniq_keys[pos] == query_keys, pair_counts[pos], 0
    )
    csum = np.zeros(vals.size + 1, dtype=COUNT_DTYPE)
    np.cumsum(vals, out=csum[1:])
    seg_ends = np.cumsum(wedge_deg, dtype=INDEX_DTYPE)
    seg_starts = seg_ends - wedge_deg
    sums = csum[seg_ends] - csum[seg_starts]
    # deg(u) per panel edge is the panel's own degree vector re-expanded;
    # deg(v) per panel edge equals the wedge segment length
    out[:] = sums - np.repeat(panel_deg, panel_deg) - wedge_deg + 1
    return out


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
