"""The linear-algebra *specification* of butterfly counting (Section II).

This module evaluates the paper's closed-form expressions directly on dense
matrices.  It is deliberately unoptimised: it is the executable
post-condition from which the loop-based family is derived, and serves as
the trusted oracle the fast algorithms are tested against.

Notation (paper → here):

- A           biadjacency matrix of G, shape (m, n)
- B = A·Aᵀ    paths of length 2 between V1 vertices
- J           all-ones matrix
- ∘           Hadamard product
- Γ(X)        trace
- Ξ_G         total butterfly count

Four equivalent formulas are provided (eqs. 1, 2, 4, 7); the test-suite
asserts they agree on random graphs, which validates the chain of identities
in the derivation itself.
"""

from __future__ import annotations

import numpy as np
from repro._types import COUNT_DTYPE

from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela.linalg import (
    choose2_dense,
    gamma,
    hadamard,
    ones_matrix,
)

__all__ = [
    "butterflies_spec_upper",
    "butterflies_spec_trace",
    "butterflies_spec_bform",
    "butterflies_spec_adjacency",
    "butterflies_spec",
    "wedges_spec",
    "partitioned_spec_columns",
    "partitioned_spec_rows",
    "pairwise_butterfly_matrix",
]


def _as_dense_biadjacency(graph_or_matrix) -> np.ndarray:
    """Accept a BipartiteGraph or a dense 0/1 array; return int64 dense A."""
    if isinstance(graph_or_matrix, BipartiteGraph):
        return graph_or_matrix.biadjacency_dense(np.int64)
    a = np.asarray(graph_or_matrix)
    if a.ndim != 2:
        raise ValueError("biadjacency matrix must be 2-D")
    if a.size and not np.isin(a, (0, 1)).all():
        raise ValueError("biadjacency matrix must be 0/1")
    return a.astype(np.int64)


def pairwise_butterfly_matrix(graph_or_matrix) -> np.ndarray:
    """The matrix C = ½·B ∘ (B − J) of per-pair butterfly counts.

    Entry (i, j), i ≠ j, is the number of butterflies whose V1 endpoints are
    exactly {i, j}; the diagonal holds C(deg(i), 2) "line pairs" that the
    total-count formulas subtract away.
    """
    a = _as_dense_biadjacency(graph_or_matrix)
    b = a @ a.T
    return choose2_dense(b)


def butterflies_spec_upper(graph_or_matrix) -> int:
    """Eq. (1): Ξ_G = Σ_{i<j} C_ij — sum the strict upper triangle of C."""
    c = pairwise_butterfly_matrix(graph_or_matrix)
    return int(np.triu(c, k=1).sum(dtype=COUNT_DTYPE))


def butterflies_spec_trace(graph_or_matrix) -> int:
    """Eq. (2): Ξ_G = ½·Σ_ij γ_ij − ½·Γ(C), with C = ½·B∘(B−J).

    Uses the symmetry of C to fold the two triangles together.
    """
    a = _as_dense_biadjacency(graph_or_matrix)
    m = a.shape[0]
    b = a @ a.T
    j = ones_matrix(m)
    c2 = hadamard(b, b - j)  # 2·C, kept doubled to stay in exact ints
    total = int(c2.sum(dtype=COUNT_DTYPE))
    trace = int(gamma(c2))
    # Ξ = ½ Σ C − ½ Γ(C) = ¼ Σ 2C − ¼ Γ(2C)
    return (total - trace) // 4


def butterflies_spec_bform(graph_or_matrix) -> int:
    """Eq. (4): Ξ_G = ¼Γ(BBᵀ) − ¼Γ(B∘B) − (¼Γ(JBᵀ) − ¼Γ(B)).

    The closed form in terms of the wedge matrix B = A·Aᵀ *with the
    transposes written out* — the intermediate step between the Hadamard
    form (eq. 2) and the fully expanded adjacency form (eq. 7, which
    substitutes B = AAᵀ and drops the transposes by symmetry).  Keeping
    the transposes literal makes this the executable statement of the
    identity Σ X = Γ(JXᵀ) used throughout the derivation.
    """
    a = _as_dense_biadjacency(graph_or_matrix)
    m = a.shape[0]
    b = a @ a.T
    j = ones_matrix(m)
    return (
        int(gamma(b @ b.T))
        - int(gamma(hadamard(b, b)))
        - (int(gamma(j @ b.T)) - int(gamma(b)))
    ) // 4


def butterflies_spec_adjacency(graph_or_matrix) -> int:
    """Eq. (7): the fully expanded trace form in terms of A alone.

    Ξ_G = ¼Γ(AAᵀAAᵀ) − ¼Γ(AAᵀ∘AAᵀ) − (¼Γ(JAAᵀ) − ¼Γ(AAᵀ))
    """
    a = _as_dense_biadjacency(graph_or_matrix)
    m = a.shape[0]
    b = a @ a.T
    j = ones_matrix(m)
    term_paths4 = int(gamma(b @ b))
    term_lines = int(gamma(hadamard(b, b)))
    term_jb = int(gamma(j @ b))
    term_b = int(gamma(b))
    return (term_paths4 - term_lines - (term_jb - term_b)) // 4


def butterflies_spec(graph_or_matrix) -> int:
    """The specification oracle used across the test-suite (eq. 7 form)."""
    return butterflies_spec_adjacency(graph_or_matrix)


def wedges_spec(graph_or_matrix) -> int:
    """Eq. (6): W = ½Γ(JBᵀ) − ½Γ(B) — wedges with endpoints in V1."""
    a = _as_dense_biadjacency(graph_or_matrix)
    m = a.shape[0]
    b = a @ a.T
    j = ones_matrix(m)
    return (int(gamma(j @ b.T)) - int(gamma(b))) // 2


def _self_term(part: np.ndarray) -> int:
    """Ξ of one partition: ¼Γ(PPᵀPPᵀ − PPᵀ∘PPᵀ − J·PPᵀ + PPᵀ), eq. (10)."""
    m = part.shape[0]
    b = part @ part.T
    j = ones_matrix(m)
    return (
        int(gamma(b @ b))
        - int(gamma(hadamard(b, b)))
        - int(gamma(j @ b))
        + int(gamma(b))
    ) // 4


def _cross_term(p: np.ndarray, q: np.ndarray) -> int:
    """Ξ across partitions: ½Γ(PPᵀQQᵀ − PPᵀ∘QQᵀ), eq. (10)."""
    bp = p @ p.T
    bq = q @ q.T
    return (int(gamma(bp @ bq)) - int(gamma(hadamard(bp, bq)))) // 2


def partitioned_spec_columns(graph_or_matrix, split: int) -> tuple[int, int, int]:
    """Eq. (9)/(10): (Ξ_L, Ξ_LR, Ξ_R) for the column split A → (A_L | A_R).

    ``split`` is the number of columns in the L partition.  The three
    category counts are disjoint and sum to Ξ_G (eq. 8) — asserted by the
    property tests.
    """
    a = _as_dense_biadjacency(graph_or_matrix)
    if not 0 <= split <= a.shape[1]:
        raise ValueError(f"split must be in [0, {a.shape[1]}], got {split}")
    al, ar = a[:, :split], a[:, split:]
    return _self_term(al), _cross_term(al, ar), _self_term(ar)


def partitioned_spec_rows(graph_or_matrix, split: int) -> tuple[int, int, int]:
    """Eq. (12): (Ξ_T, Ξ_TB, Ξ_B) for the row split A → (A_T / A_B).

    The row-side categories are counts of butterflies by where their *V1*
    wedge endpoints fall; computed by transposing and reusing the column
    machinery (the derivation is symmetric).
    """
    a = _as_dense_biadjacency(graph_or_matrix)
    if not 0 <= split <= a.shape[0]:
        raise ValueError(f"split must be in [0, {a.shape[0]}], got {split}")
    at = a.T  # rows of A become columns; V1 endpoints become wedge points
    return partitioned_spec_columns(at, split)
