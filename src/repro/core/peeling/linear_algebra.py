"""Peeling expressed purely as (masked) linear algebra.

Section IV's point is that the peeling algorithms fall out of the *same
formulation* as counting.  The fast implementations in :mod:`tip` and
:mod:`wing` compile that formulation down to wedge kernels; this module
keeps it in matrix form and executes it with ``scipy.sparse`` products,
so each fixpoint round is literally the paper's equations:

k-tip round (eqs. 19–21):

    B  = A·Aᵀ                             # wedge matrix
    s  = rowreduce( C(offdiag(B), 2) )    # per-vertex butterflies
    m  = s ≥ k                            # vertex mask
    A' = m-masked rows of A               # eq. (22)

k-wing round (eqs. 25–27):

    B   = A·Aᵀ
    S_w = (B·A  −  diag(B)·1ᵀ  −  1·diag(AᵀA)ᵀ + J) ∘ A
    M   = S_w ≥ k
    A'  = A ∘ M

scipy shares no kernel code with :mod:`repro.sparsela`, so these stay an
independent reference: identical fixpoints to the fast versions (asserted
in tests).  The per-round cost is a full Gram product, so this is the
readable/medium-size form, not the production one.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro._types import COUNT_DTYPE
from repro.core.peeling.tip import TipResult
from repro.core.peeling.wing import WingResult
from repro.graphs.bipartite import BipartiteGraph

__all__ = ["k_tip_linear_algebra", "k_wing_linear_algebra"]


def _scipy_pattern(graph: BipartiteGraph) -> sp.csr_matrix:
    """A as an int64 scipy CSR sharing the graph's sorted entry order."""
    csr = graph.csr
    data = np.ones(csr.nnz, dtype=COUNT_DTYPE)
    return sp.csr_matrix((data, csr.indices, csr.indptr), shape=graph.shape)


def _vertex_vector(a: sp.csr_matrix) -> np.ndarray:
    """s_i = Σ_{j≠i} C(B_ij, 2) with B = A·Aᵀ (B_ii = deg_i)."""
    b = (a @ a.T).tocsr()
    b.data = (b.data * (b.data - 1)) // 2
    deg = np.diff(a.indptr).astype(COUNT_DTYPE)
    rows = np.asarray(b.sum(axis=1, dtype=COUNT_DTYPE)).ravel()
    return rows - deg * (deg - 1) // 2


def k_tip_linear_algebra(
    graph: BipartiteGraph, k: int, side: str = "left"
) -> TipResult:
    """k-tip by iterating the matrix form of eqs. (19)–(22)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if side == "right":
        inner = k_tip_linear_algebra(graph.swap_sides(), k, side="left")
        return TipResult(
            subgraph=inner.subgraph.swap_sides(),
            kept=inner.kept,
            rounds=inner.rounds,
            k=k,
            side="right",
        )
    if side != "left":
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    kept = np.ones(graph.n_left, dtype=bool)
    current = graph
    rounds = 0
    while True:
        rounds += 1
        s = _vertex_vector(_scipy_pattern(current))
        offenders = kept & (s < k)  # eq. (20): m = s >= k
        if not offenders.any():
            break
        kept &= ~offenders
        current = current.subgraph_from_mask(  # eq. (22): A ∘ M
            kept, np.ones(graph.n_right, dtype=bool)
        )
        if not kept.any():
            break
    if k > 0:
        kept = kept & (_vertex_vector(_scipy_pattern(current)) >= k)
    return TipResult(subgraph=current, kept=kept, rounds=rounds, k=k, side="left")


def _edge_support(a: sp.csr_matrix) -> np.ndarray:
    """S_w of eq. (25) at A's entries, in A's (sorted) entry order.

    S_w = (B·A − diag(B)·1ᵀ − 1·diag(AᵀA)ᵀ + J) ∘ A with B = A·Aᵀ.  Every
    entry of A has (B·A)_ij ≥ B_ii ≥ 1, so the Hadamard product keeps A's
    pattern exactly.
    """
    core = (a @ a.T @ a).multiply(a).tocsr()
    core.sort_indices()
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    deg_left = np.diff(a.indptr)  # diag(A·Aᵀ)
    deg_right = np.bincount(a.indices, minlength=a.shape[1])  # diag(Aᵀ·A)
    return core.data - deg_left[rows] - deg_right[a.indices] + 1  # + J ∘ A


def k_wing_linear_algebra(graph: BipartiteGraph, k: int) -> WingResult:
    """k-wing by iterating the matrix form of eqs. (25)–(27)."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    current = graph
    rounds = 0
    while current.n_edges:
        rounds += 1
        keep = _edge_support(_scipy_pattern(current)) >= k  # eq. (26)
        if keep.all():
            break
        current = BipartiteGraph.from_csr(current.csr.mask_entries(keep))
    if rounds == 0:
        rounds = 1
    return WingResult(subgraph=current, rounds=rounds, k=k)
