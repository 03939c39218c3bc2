"""Compressed Sparse Column (CSC) pattern matrices.

CSC is the storage the paper pairs with the column-partitioned invariants
1–4: each loop iteration exposes one *column* ``a₁`` of the biadjacency
matrix, and CSC makes that column's neighbourhood a contiguous slice.
"""

from __future__ import annotations

import numpy as np

from repro._types import INDEX_DTYPE
from repro.sparsela._compressed import CompressedPattern, compress_pairs
from repro.sparsela.coo import PatternCOO

__all__ = ["PatternCSC"]


class PatternCSC(CompressedPattern):
    """A 0/1 sparse matrix with columns compressed.

    ``indptr`` has length ``n + 1``; ``indices[indptr[j]:indptr[j+1]]`` are
    the (sorted, distinct) row ids of column ``j``.
    """

    MAJOR_AXIS = 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: PatternCOO) -> "PatternCSC":
        """Compress a COO matrix (need not be canonical)."""
        m, n = coo.shape
        indptr, indices = compress_pairs(coo.cols, coo.rows, n, m)
        return cls(indptr, indices, (m, n), check=False)

    @classmethod
    def from_pairs(cls, pairs, shape: tuple[int, int] | None = None) -> "PatternCSC":
        """Build directly from ``(row, col)`` pairs."""
        return cls.from_coo(PatternCOO.from_pairs(pairs, shape))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "PatternCSC":
        """Pattern of the nonzeros of a dense array."""
        return cls.from_coo(PatternCOO.from_dense(dense))

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "PatternCSC":
        """All-zero matrix."""
        _, n = shape
        return cls(
            np.zeros(n + 1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            shape,
            check=False,
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_coo(self) -> PatternCOO:
        """The equivalent canonical COO matrix."""
        return PatternCOO(self.indices, self.expand_major(), self.shape)

    def to_csr(self):
        """Convert to CSR (one composite-key sort, see :func:`compress_pairs`)."""
        from repro.sparsela.csr import PatternCSR

        m, n = self.shape
        indptr, indices = compress_pairs(self.indices, self.expand_major(), m, n)
        return PatternCSR(indptr, indices, (m, n), check=False)

    def transpose(self) -> "PatternCSC":
        """CSC of the transpose via the CSR duality."""
        from repro.sparsela.csr import PatternCSR

        m, n = self.shape
        as_csr_of_t = PatternCSR(self.indptr, self.indices, (n, m), check=False)
        return as_csr_of_t.to_csc()

    @property
    def T(self) -> "PatternCSC":  # noqa: N802 — numpy-style alias
        return self.transpose()

    # ------------------------------------------------------------------
    # column-axis helpers used by the algorithms
    # ------------------------------------------------------------------
    def col(self, j: int) -> np.ndarray:
        """Sorted row ids of column ``j`` (alias of :meth:`slice`)."""
        return self.slice(j)

    def col_degrees(self) -> np.ndarray:
        """Degree of each column vertex."""
        return self.degrees()

    def row_degrees(self) -> np.ndarray:
        """Degree of each row vertex."""
        return self.minor_degrees()

    def select_cols(self, col_ids: np.ndarray) -> "PatternCSC":
        """Submatrix keeping only ``col_ids`` (in the given order)."""
        col_ids = np.asarray(col_ids, dtype=INDEX_DTYPE)
        lengths = self.indptr[col_ids + 1] - self.indptr[col_ids]
        total = int(lengths.sum(dtype=INDEX_DTYPE))
        indptr = np.zeros(len(col_ids) + 1, dtype=INDEX_DTYPE)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.empty(total, dtype=INDEX_DTYPE)
        if total:
            from repro.sparsela.kernels import gather_slices

            indices = gather_slices(self.indptr, self.indices, col_ids)
        return PatternCSC(indptr, indices, (self.shape[0], len(col_ids)), check=False)

    def mask_entries(self, keep: np.ndarray) -> "PatternCSC":
        """New matrix keeping only stored entries where ``keep`` is True."""
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self.indices.shape:
            raise ValueError("mask must be parallel to the stored entries")
        major = self.expand_major()[keep]
        minor = self.indices[keep]
        counts = np.bincount(major, minlength=self.shape[1]).astype(INDEX_DTYPE)
        indptr = np.zeros(self.shape[1] + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        return PatternCSC(indptr, minor, self.shape, check=False)
