"""Independent answers the benchmark checks the program against (scipy only).

- Butterfly count: with ``B = A·Aᵀ`` (or ``Aᵀ·A``, whichever Gram matrix
  is cheaper), a butterfly is a pair of same-side vertices together with a
  pair of their common neighbours, so ``count = Σ_{i<j} C(B_ij, 2)``.
- Per-vertex counts: ``c_u = Σ_{w≠u} C((A·Aᵀ)_uw, 2)`` for left vertices;
  the count is half their sum.
- k-tip: the fixpoint that drops every left vertex in fewer than ``k``
  butterflies of the surviving subgraph until none is left to drop.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def biadjacency(edges: np.ndarray, n_left: int, n_right: int) -> sp.csr_matrix:
    """0/1 int64 biadjacency matrix of an ``(e, 2)`` edge array."""
    ones = np.ones(len(edges), dtype=np.int64)
    return sp.csr_matrix((ones, (edges[:, 0], edges[:, 1])), shape=(n_left, n_right))


def _pairs(values: np.ndarray) -> np.ndarray:
    values = values.astype(np.int64)
    return values * (values - 1) // 2


def _pair_sums(gram: sp.spmatrix, degrees: np.ndarray) -> np.ndarray:
    """Per row of ``gram``: Σ_w C(gram_uw, 2) minus the ``w = u`` term C(deg_u, 2)."""
    gram = gram.tocsr()
    gram.data = _pairs(gram.data)
    return np.asarray(gram.sum(axis=1), dtype=np.int64).ravel() - _pairs(degrees)


def butterflies(a: sp.csr_matrix) -> int:
    """Global butterfly count of biadjacency ``a``.

    Each butterfly has two vertices on either side, so the per-vertex sums
    of the cheaper side's Gram matrix count it twice.
    """
    left_degrees = np.diff(a.indptr)
    right_degrees = np.bincount(a.indices, minlength=a.shape[1])
    # A·Aᵀ costs Σ over right vertices of deg², Aᵀ·A the reverse
    if float((right_degrees.astype(np.float64) ** 2).sum()) <= float((left_degrees.astype(np.float64) ** 2).sum()):
        return int(_pair_sums(a @ a.T, left_degrees).sum() // 2)
    return int(_pair_sums(a.T @ a, right_degrees).sum() // 2)


def left_vertex_butterflies(a: sp.csr_matrix, rows: np.ndarray | None = None) -> np.ndarray:
    """Butterflies containing each left vertex of ``a`` (or only ``rows``)."""
    sub = a if rows is None else a[rows]
    return _pair_sums(sub @ a.T, np.diff(sub.indptr))


def k_tip_kept(a: sp.csr_matrix, k: int) -> np.ndarray:
    """Left vertices of the k-tip of ``a`` (boolean mask)."""
    kept = np.ones(a.shape[0], dtype=bool)
    while True:
        sub = a.copy()
        sub.data = sub.data * np.repeat(kept, np.diff(sub.indptr))
        sub.eliminate_zeros()
        counts = left_vertex_butterflies(sub)
        drop = kept & (counts < k)
        if not drop.any():
            return kept
        kept &= ~drop
