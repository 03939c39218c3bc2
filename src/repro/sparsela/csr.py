"""Compressed Sparse Row (CSR) pattern matrices.

CSR is the storage the paper pairs with the row-partitioned invariants 5–8:
each loop iteration exposes one *row* of the biadjacency matrix, and CSR
makes that row's neighbourhood a contiguous slice.
"""

from __future__ import annotations

import numpy as np

from repro._types import INDEX_DTYPE
from repro.sparsela._compressed import CompressedPattern, compress_pairs
from repro.sparsela.coo import PatternCOO

__all__ = ["PatternCSR"]


class PatternCSR(CompressedPattern):
    """A 0/1 sparse matrix with rows compressed.

    ``indptr`` has length ``m + 1``; ``indices[indptr[i]:indptr[i+1]]`` are
    the (sorted, distinct) column ids of row ``i``.
    """

    MAJOR_AXIS = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: PatternCOO) -> "PatternCSR":
        """Compress a COO matrix (need not be canonical)."""
        m, n = coo.shape
        indptr, indices = compress_pairs(coo.rows, coo.cols, m, n)
        return cls(indptr, indices, (m, n), check=False)

    @classmethod
    def from_pairs(cls, pairs, shape: tuple[int, int] | None = None) -> "PatternCSR":
        """Build directly from ``(row, col)`` pairs; see :meth:`PatternCOO.from_pairs`."""
        return cls.from_coo(PatternCOO.from_pairs(pairs, shape))

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "PatternCSR":
        """Pattern of the nonzeros of a dense array."""
        return cls.from_coo(PatternCOO.from_dense(dense))

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "PatternCSR":
        """All-zero matrix."""
        m, _ = shape
        return cls(
            np.zeros(m + 1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            shape,
            check=False,
        )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def to_coo(self) -> PatternCOO:
        """The equivalent canonical COO matrix."""
        return PatternCOO(self.expand_major(), self.indices, self.shape)

    def to_csc(self):
        """Convert to CSC (one composite-key sort, see :func:`compress_pairs`)."""
        from repro.sparsela.csc import PatternCSC

        m, n = self.shape
        indptr, indices = compress_pairs(self.indices, self.expand_major(), n, m)
        return PatternCSC(indptr, indices, (m, n), check=False)

    def transpose(self) -> "PatternCSR":
        """CSR of the transpose — same arrays reinterpreted via CSC duality."""
        from repro.sparsela.csc import PatternCSC

        m, n = self.shape
        # CSR(A) and CSC(A^T) share (indptr, indices); build CSC(A^T) and
        # convert to CSR to keep the return type uniform.
        as_csc_of_t = PatternCSC(self.indptr, self.indices, (n, m), check=False)
        return as_csc_of_t.to_csr()

    @property
    def T(self) -> "PatternCSR":  # noqa: N802 — numpy-style alias
        return self.transpose()

    # ------------------------------------------------------------------
    # row-axis helpers used by the algorithms
    # ------------------------------------------------------------------
    def row(self, i: int) -> np.ndarray:
        """Sorted column ids of row ``i`` (alias of :meth:`slice`)."""
        return self.slice(i)

    def row_degrees(self) -> np.ndarray:
        """Degree of each row vertex."""
        return self.degrees()

    def col_degrees(self) -> np.ndarray:
        """Degree of each column vertex."""
        return self.minor_degrees()

    def select_rows(self, row_ids: np.ndarray) -> "PatternCSR":
        """Submatrix keeping only ``row_ids`` (in the given order).

        The result has ``len(row_ids)`` rows; columns are unchanged.  Used by
        the peeling algorithms and the partitioned-specification tests.
        """
        row_ids = np.asarray(row_ids, dtype=INDEX_DTYPE)
        lengths = self.indptr[row_ids + 1] - self.indptr[row_ids]
        total = int(lengths.sum(dtype=INDEX_DTYPE))
        indptr = np.zeros(len(row_ids) + 1, dtype=INDEX_DTYPE)
        np.cumsum(lengths, out=indptr[1:])
        indices = np.empty(total, dtype=INDEX_DTYPE)
        if total:
            from repro.sparsela.kernels import gather_slices

            indices = gather_slices(self.indptr, self.indices, row_ids)
        return PatternCSR(indptr, indices, (len(row_ids), self.shape[1]), check=False)

    def mask_entries(self, keep: np.ndarray) -> "PatternCSR":
        """New matrix keeping only stored entries where ``keep`` is True.

        ``keep`` is a boolean array parallel to :attr:`indices`.  This
        implements the Hadamard-mask step ``A₁ = A₀ ∘ M`` of the peeling
        formulations when the mask is given per stored entry.
        """
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != self.indices.shape:
            raise ValueError("mask must be parallel to the stored entries")
        major = self.expand_major()[keep]
        minor = self.indices[keep]
        counts = np.bincount(major, minlength=self.shape[0]).astype(INDEX_DTYPE)
        indptr = np.zeros(self.shape[0] + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        return PatternCSR(indptr, minor, self.shape, check=False)
