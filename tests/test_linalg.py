"""Tests for the dense trace/Hadamard helpers and the identities the paper's
derivation depends on (eq. 3 and the trace rules)."""

import numpy as np
import pytest

from repro.sparsela.linalg import (
    choose2_dense,
    gamma,
    hadamard,
    ones_matrix,
)


def test_gamma_is_trace():
    x = np.arange(9).reshape(3, 3)
    assert gamma(x) == 0 + 4 + 8


def test_gamma_rejects_nonsquare():
    with pytest.raises(ValueError, match="square"):
        gamma(np.zeros((2, 3)))


def test_hadamard_elementwise():
    x = np.array([[1, 2], [3, 4]])
    y = np.array([[5, 6], [7, 8]])
    assert hadamard(x, y).tolist() == [[5, 12], [21, 32]]


def test_hadamard_shape_check():
    with pytest.raises(ValueError, match="equal shapes"):
        hadamard(np.zeros((2, 2)), np.zeros((2, 3)))


def test_ones_matrix():
    j = ones_matrix(2, 3)
    assert j.shape == (2, 3) and (j == 1).all()
    assert ones_matrix(4).shape == (4, 4)


def test_eq3_hadamard_trace_identity(rng):
    """Σ_ij (X ∘ Y)_ij = Γ(X·Yᵀ) = Γ(Y·Xᵀ) — the paper's eq. (3)."""
    for _ in range(5):
        x = rng.integers(-4, 5, size=(6, 8))
        y = rng.integers(-4, 5, size=(6, 8))
        lhs = (x * y).sum()
        assert lhs == gamma(x @ y.T)
        assert lhs == gamma(y @ x.T)


def test_trace_linearity(rng):
    """Γ(X + Y) = Γ(X) + Γ(Y)."""
    x = rng.integers(-9, 10, size=(5, 5))
    y = rng.integers(-9, 10, size=(5, 5))
    assert gamma(x + y) == gamma(x) + gamma(y)


def test_trace_cyclic_rotation(rng):
    """Γ(XY) = Γ(YX) — the rotation invariance used throughout Section III."""
    x = rng.integers(-3, 4, size=(4, 7))
    y = rng.integers(-3, 4, size=(7, 4))
    assert gamma(x @ y) == gamma(y @ x)


def test_sum_via_ones_trick(rng):
    """Σ_ij B_ij = Γ(J·Bᵀ) — the rewriting used to reach eq. (6)."""
    b = rng.integers(0, 5, size=(6, 6))
    j = ones_matrix(6)
    assert b.sum() == gamma(j @ b.T)


def test_choose2_dense():
    x = np.array([[0, 1], [2, 5]])
    assert choose2_dense(x).tolist() == [[0, 0], [1, 10]]
