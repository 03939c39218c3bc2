"""Dense linear-algebra helpers mirroring the identities used in the paper.

The derivation in Section II leans on a small set of trace identities:

- ``Γ(X + Y) = Γ(X) + Γ(Y)``           (linearity)
- ``Σ_ij (X ∘ Y)_ij = Γ(X Yᵀ)``         (Hadamard/trace duality, eq. 3)
- invariance of the trace under cyclic rotation of a product.

These helpers implement the notation (``gamma`` = Γ, ``hadamard`` = ∘,
``ones`` = J) so the specification module reads line-for-line like the
paper, and the test-suite can verify each identity independently on random
matrices before they are trusted inside the derivation.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "gamma",
    "hadamard",
    "ones_matrix",
    "choose2_dense",
]


def gamma(x: np.ndarray) -> int | float:
    """Trace Γ(X) of a square matrix, returned as a scalar."""
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"trace requires a square matrix, got shape {x.shape}")
    return x.trace()


def hadamard(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise (Hadamard) product X ∘ Y."""
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape:
        raise ValueError(f"Hadamard product needs equal shapes, {x.shape} vs {y.shape}")
    return x * y


def ones_matrix(m: int, n: int | None = None, dtype=np.int64) -> np.ndarray:
    """The all-ones matrix J of shape ``(m, n)`` (square when ``n`` omitted)."""
    if n is None:
        n = m
    return np.ones((m, n), dtype=dtype)


def choose2_dense(x: np.ndarray) -> np.ndarray:
    """Elementwise ``C(x, 2) = ½·x∘(x − 1)`` on a dense integer array.

    This is the map that converts per-pair wedge counts B into per-pair
    butterfly counts C = ½·B ∘ (B − J) (Section II-A).
    """
    x = np.asarray(x, dtype=np.int64)
    return (x * (x - 1)) // 2
