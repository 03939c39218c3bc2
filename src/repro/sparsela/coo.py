"""Coordinate-format (COO) pattern matrices.

A :class:`PatternCOO` is the simplest representation of a 0/1 sparse matrix:
two parallel index arrays ``rows`` and ``cols`` plus a ``shape``.  It is the
interchange format of the package — edge lists read from disk or produced by
the graph generators become COO first, get canonicalised (row-major sorted,
de-duplicated, validated), and are then compressed into CSR/CSC for the
counting kernels.

Every step is a handful of vectorised O(nnz) passes.  Canonicalising input
that is already row-major sorted — what the loaders and generators mostly
produce — is one comparison and no sort; only out-of-order input pays a
sort of composite row-major keys.

Everything here is pure NumPy; no scipy is used so that the substrate is
fully self-contained (scipy appears only in the *baseline* reference
implementations used to cross-check results).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._types import INDEX_DTYPE, as_index_array
from repro.sparsela._compressed import sorted_unique_pairs

__all__ = ["PatternCOO", "integral_ids"]


@dataclass(frozen=True)
class PatternCOO:
    """A 0/1 sparse matrix in coordinate format.

    Attributes
    ----------
    rows, cols:
        Parallel ``int64`` arrays; entry ``k`` asserts ``M[rows[k], cols[k]] = 1``.
    shape:
        ``(m, n)`` logical dimensions.

    Instances produced by :meth:`from_pairs` are *canonical*: entries sorted
    in row-major order with no duplicates.  Direct construction does not
    enforce canonical form (kernels that need it call :meth:`canonicalize`).
    """

    rows: np.ndarray
    cols: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", as_index_array(self.rows))
        object.__setattr__(self, "cols", as_index_array(self.cols))
        m, n = self.shape
        m, n = int(m), int(n)
        object.__setattr__(self, "shape", (m, n))
        if m < 0 or n < 0:
            raise ValueError(f"shape must be non-negative, got {self.shape}")
        if self.rows.shape != self.cols.shape:
            raise ValueError(
                f"rows and cols must be parallel arrays, got lengths "
                f"{len(self.rows)} and {len(self.cols)}"
            )
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= m:
                raise ValueError("row index out of range")
            if self.cols.min() < 0 or self.cols.max() >= n:
                raise ValueError("column index out of range")

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_pairs(
        cls,
        pairs,
        shape: tuple[int, int] | None = None,
    ) -> "PatternCOO":
        """Build a canonical COO matrix from ``(row, col)`` pairs.

        ``pairs`` is an ``(e, 2)`` array, taken as is, or any iterable of
        pairs.  Ids must be integers; integral-valued floats are accepted,
        anything else (fractional, non-finite, bool, text) raises
        ``ValueError`` naming the first offending row.  Duplicate pairs are
        merged (the matrix is a pattern, so multiplicity is discarded).
        When ``shape`` is omitted it is inferred as
        ``(max(row)+1, max(col)+1)``.
        """
        arr = pairs if isinstance(pairs, np.ndarray) else np.asarray(list(pairs))
        if arr.size:
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError(f"pairs must have shape (e, 2), got {arr.shape}")
            arr = integral_ids(arr)
            rows, cols = arr[:, 0], arr[:, 1]
        else:
            rows = np.empty(0, dtype=INDEX_DTYPE)
            cols = np.empty(0, dtype=INDEX_DTYPE)
        if shape is None:
            m = int(rows.max()) + 1 if rows.size else 0
            n = int(cols.max()) + 1 if cols.size else 0
            shape = (m, n)
        return cls(rows, cols, shape).canonicalize()

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "PatternCOO":
        """An all-zero matrix of the given shape."""
        return cls(
            np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=INDEX_DTYPE), shape
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "PatternCOO":
        """Pattern of the nonzero entries of a dense 2-D array."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(dense)
        return cls(
            rows.astype(INDEX_DTYPE), cols.astype(INDEX_DTYPE), dense.shape
        )

    # ------------------------------------------------------------------
    # canonical form
    # ------------------------------------------------------------------
    def canonicalize(self) -> "PatternCOO":
        """Return an equivalent matrix sorted row-major with duplicates merged.

        A matrix that is already canonical is returned as is (one O(nnz)
        comparison, no sort).
        """
        m, n = self.shape
        rows, cols = sorted_unique_pairs(self.rows, self.cols, m, n)
        if rows is self.rows:
            return self
        return PatternCOO(rows, cols, self.shape)

    def is_canonical(self) -> bool:
        """True when entries are row-major sorted and duplicate-free."""
        m, n = self.shape
        return sorted_unique_pairs(self.rows, self.cols, m, n)[0] is self.rows

    # ------------------------------------------------------------------
    # basic algebra
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored (nonzero) entries."""
        return int(self.rows.size)

    def transpose(self) -> "PatternCOO":
        """The transposed pattern (entries re-canonicalised)."""
        m, n = self.shape
        return PatternCOO(self.cols, self.rows, (n, m)).canonicalize()

    @property
    def T(self) -> "PatternCOO":  # noqa: N802 — numpy-style alias
        return self.transpose()

    def to_dense(self, dtype=np.int64) -> np.ndarray:
        """Materialise as a dense 0/1 array (small matrices / tests only)."""
        out = np.zeros(self.shape, dtype=dtype)
        out[self.rows, self.cols] = 1
        return out

    def row_degrees(self) -> np.ndarray:
        """Number of entries in each row (requires canonical form for exactness)."""
        return np.bincount(self.rows, minlength=self.shape[0]).astype(INDEX_DTYPE)

    def col_degrees(self) -> np.ndarray:
        """Number of entries in each column."""
        return np.bincount(self.cols, minlength=self.shape[1]).astype(INDEX_DTYPE)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternCOO):
            return NotImplemented
        a, b = self.canonicalize(), other.canonicalize()
        return (
            a.shape == b.shape
            and np.array_equal(a.rows, b.rows)
            and np.array_equal(a.cols, b.cols)
        )

    def __hash__(self) -> None:  # pragma: no cover - explicit unhashable
        raise TypeError("PatternCOO is not hashable")

    def __repr__(self) -> str:
        return f"PatternCOO(shape={self.shape}, nnz={self.nnz})"


#: Largest float64 below 2**63, i.e. the largest that converts to int64.
_ID_LIMIT = float(2**63 - 1024)


def integral_ids(arr: np.ndarray) -> np.ndarray:
    """``arr`` (an ``(e, 2)`` array) as integer ids.

    Integer dtypes pass through unchanged and integral-valued floats are
    cast to ``INDEX_DTYPE``; fractional, non-finite or out-of-range
    floats, bools and anything else raise ``ValueError`` naming the first
    offending row.  The one id check every edge-list entry point shares.
    """
    if arr.dtype.kind in "iu":
        return arr
    if arr.dtype.kind == "f":
        ok = np.isfinite(arr) & (arr == np.trunc(arr)) & (np.abs(arr) <= _ID_LIMIT)
        if ok.all():
            return arr.astype(INDEX_DTYPE)
        bad = int(np.flatnonzero(~ok.all(axis=1))[0])
    else:
        bad = 0
    raise ValueError(
        f"vertex ids must be integers, got {arr[bad].tolist()!r} "
        f"(dtype {arr.dtype}) in row {bad}"
    )
