"""Shared machinery for compressed (CSR/CSC) pattern matrices.

Both compressed formats store the same three things:

``indptr``
    ``len = major_dim + 1`` monotone offsets into ``indices``.
``indices``
    Minor-axis ids of the stored entries, sorted within each major slice.
``shape``
    Logical ``(m, n)``.

For CSR the major axis is rows; for CSC it is columns.  The counting
algorithms in :mod:`repro.core` are written against this shared structure so
that the column-partitioned invariants (1–4, CSC) and the row-partitioned
invariants (5–8, CSR) run the *same* kernel code, exactly as the paper's
symmetric derivation suggests.
"""

from __future__ import annotations

import numpy as np

from repro._types import INDEX_DTYPE, as_index_array

__all__ = ["CompressedPattern", "compress_pairs", "expand_indptr"]


_INDEX_MAX = int(np.iinfo(INDEX_DTYPE).max)


def sorted_unique_pairs(
    major: np.ndarray,
    minor: np.ndarray,
    major_dim: int,
    minor_dim: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``(major, minor)`` in ``(major, minor)`` order with repeated pairs dropped.

    Both axes are folded into one composite int64 key.  Input that is
    already strictly increasing comes back as the very same arrays after a
    single O(nnz) comparison; non-decreasing input (sorted, with repeats)
    only pays the de-duplication mask.  Anything else sorts the keys by
    value — equal keys are equal pairs, so no stable argsort is needed —
    and splits them back into the two axes.
    """
    if int(major_dim) * int(minor_dim) > _INDEX_MAX:
        raise ValueError(
            f"a {major_dim} x {minor_dim} pattern has more cells than int64 "
            f"can index"
        )
    if major.size <= 1:
        return major, minor
    width = max(minor_dim, 1)
    key = major * width
    key += minor
    if np.all(key[1:] > key[:-1]):
        return major, minor
    if not np.all(key[1:] >= key[:-1]):
        key = np.sort(key)
    keep = np.empty(key.shape, dtype=bool)
    keep[0] = True
    np.not_equal(key[1:], key[:-1], out=keep[1:])
    return np.divmod(key[keep], width)


def compress_pairs(
    major: np.ndarray,
    minor: np.ndarray,
    major_dim: int,
    minor_dim: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Compress parallel (major, minor) id arrays into ``(indptr, indices)``.

    The input need not be sorted or duplicate-free; output slices are sorted
    and de-duplicated.  Input already sorted by ``(major, minor)`` — the CSR
    of a canonical COO matrix — is not re-sorted: it costs O(nnz +
    major_dim) passes, repeats still merged.  Other input takes one
    composite-key sort first (see :func:`sorted_unique_pairs`).
    """
    major = as_index_array(major)
    minor = as_index_array(minor)
    if major.size:
        if major.min() < 0 or major.max() >= major_dim:
            raise ValueError("major index out of range")
        if minor.min() < 0 or minor.max() >= minor_dim:
            raise ValueError("minor index out of range")
    major, minor = sorted_unique_pairs(major, minor, major_dim, minor_dim)
    counts = np.bincount(major, minlength=major_dim).astype(INDEX_DTYPE)
    indptr = np.zeros(major_dim + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return indptr, minor


def expand_indptr(indptr: np.ndarray) -> np.ndarray:
    """Inverse of compression on the major axis: per-entry major ids.

    ``expand_indptr(A.indptr)[k]`` is the major id of stored entry ``k``.
    """
    indptr = np.asarray(indptr)
    lengths = np.diff(indptr)
    return np.repeat(
        np.arange(len(indptr) - 1, dtype=INDEX_DTYPE), lengths
    )


class CompressedPattern:
    """Base class for :class:`~repro.sparsela.csr.PatternCSR` and
    :class:`~repro.sparsela.csc.PatternCSC`.

    Subclasses fix :attr:`MAJOR_AXIS` (0 for CSR, 1 for CSC) and inherit all
    slicing/degree machinery expressed in major/minor terms.
    """

    #: 0 when the major (compressed) axis is rows, 1 when it is columns.
    MAJOR_AXIS: int = 0

    # __weakref__ lets the shared-memory executor key published graph
    # buffers by matrix object and release segments when the matrix dies.
    __slots__ = ("indptr", "indices", "shape", "__weakref__")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        shape: tuple[int, int],
        *,
        check: bool = True,
    ) -> None:
        self.indptr = as_index_array(indptr)
        self.indices = as_index_array(indices)
        self.shape = (int(shape[0]), int(shape[1]))
        if check:
            self.validate()

    # ------------------------------------------------------------------
    # dimensions
    # ------------------------------------------------------------------
    @property
    def major_dim(self) -> int:
        """Size of the compressed axis."""
        return self.shape[self.MAJOR_AXIS]

    @property
    def minor_dim(self) -> int:
        """Size of the other axis."""
        return self.shape[1 - self.MAJOR_AXIS]

    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indices.size)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise ``ValueError`` unless the structure is well-formed.

        Well-formed means: ``indptr`` has length ``major_dim + 1``, starts at
        0, ends at ``nnz``, is monotone; each slice of ``indices`` is strictly
        increasing (sorted, duplicate-free) and within ``[0, minor_dim)``.
        """
        m, n = self.shape
        if m < 0 or n < 0:
            raise ValueError(f"shape must be non-negative, got {self.shape}")
        if len(self.indptr) != self.major_dim + 1:
            raise ValueError(
                f"indptr length {len(self.indptr)} != major_dim+1 "
                f"({self.major_dim + 1})"
            )
        if self.indptr.size and self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indptr.size and self.indptr[-1] != self.nnz:
            raise ValueError(
                f"indptr must end at nnz ({self.nnz}), got {self.indptr[-1]}"
            )
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= self.minor_dim:
                raise ValueError("minor index out of range")
            # strictly increasing within each slice <=> sorted and duplicate
            # free: check all adjacent pairs, then exempt slice boundaries.
            increasing = self.indices[1:] > self.indices[:-1]
            boundary = np.zeros(self.nnz - 1, dtype=bool) if self.nnz > 1 else None
            if boundary is not None:
                interior_ends = self.indptr[1:-1]
                interior_ends = interior_ends[
                    (interior_ends > 0) & (interior_ends < self.nnz)
                ]
                boundary[interior_ends - 1] = True
                if not np.all(increasing | boundary):
                    raise ValueError(
                        "indices must be strictly increasing within each slice"
                    )

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def slice(self, major_id: int) -> np.ndarray:
        """Minor ids stored at ``major_id`` (a view, do not mutate)."""
        return self.indices[self.indptr[major_id] : self.indptr[major_id + 1]]

    def degrees(self) -> np.ndarray:
        """Number of entries in each major slice."""
        return np.diff(self.indptr)

    # ------------------------------------------------------------------
    # storage protocol (the accessor surface the kernels are written to)
    # ------------------------------------------------------------------
    # Everything in :mod:`repro.core` reads compressed structure through
    # these methods rather than touching ``.indptr`` / ``.indices``
    # directly (analyzer rule RPR008), so alternative layouts — the
    # delta/varint-compressed :class:`repro.storage.compact.CompactPattern`
    # in particular — can stand in for a raw pattern without the kernels
    # knowing.  For the raw layout they are thin views; none of them copy
    # beyond what the expression requires.

    def degrees_of(self, major_ids: np.ndarray) -> np.ndarray:
        """Slice lengths of the given major ids (vectorised degree lookup)."""
        major_ids = np.asarray(major_ids)
        return self.indptr[major_ids + 1] - self.indptr[major_ids]

    def panel_degrees(self, lo: int, hi: int) -> np.ndarray:
        """Slice lengths of the contiguous major range ``[lo, hi)``."""
        return self.indptr[lo + 1 : hi + 1] - self.indptr[lo:hi]

    def panel_indices(self, lo: int, hi: int) -> np.ndarray:
        """All minor ids of major slices ``[lo, hi)``, concatenated."""
        return self.indices[self.indptr[lo] : self.indptr[hi]]

    def gather(self, major_ids: np.ndarray) -> np.ndarray:
        """Concatenated minor ids of the given major slices (with repeats).

        ``gather([a, b])`` is ``concat(slice(a), slice(b))`` — the wedge
        continuation gather every counting kernel is built on.
        """
        from repro.sparsela.kernels import gather_slices

        return gather_slices(self.indptr, self.indices, major_ids)

    def entry_range(self, lo: int, hi: int) -> tuple[int, int]:
        """Stored-entry offsets ``(start, stop)`` of major range ``[lo, hi)``."""
        return int(self.indptr[lo]), int(self.indptr[hi])

    def entries(self, start: int, stop: int) -> np.ndarray:
        """Minor ids of stored entries ``[start, stop)`` (entry-indexed)."""
        return self.indices[start:stop]

    def entry_offsets(self) -> np.ndarray:
        """The major-axis offset vector (length ``major_dim + 1``).

        Returned for *reading* (prefix-sum bookkeeping, segment reductions);
        treat it as immutable.
        """
        return self.indptr

    def minor_degrees(self) -> np.ndarray:
        """Number of entries per minor id (degree along the other axis)."""
        return np.bincount(self.indices, minlength=self.minor_dim).astype(
            INDEX_DTYPE
        )

    def expand_major(self) -> np.ndarray:
        """Per-entry major ids (the COO view of the compressed axis)."""
        return expand_indptr(self.indptr)

    def to_dense(self, dtype=np.int64) -> np.ndarray:
        """Materialise as a dense 0/1 array (small matrices / tests only)."""
        out = np.zeros(self.shape, dtype=dtype)
        major = self.expand_major()
        if self.MAJOR_AXIS == 0:
            out[major, self.indices] = 1
        else:
            out[self.indices, major] = 1
        return out

    def __matmul__(self, other):
        """``A @ B`` over the integer plus_times semiring.

        Sugar over :func:`repro.sparsela.semiring.mxm`; returns a
        :class:`~repro.sparsela.semiring.ValuedCSR` (products generally
        carry multiplicities even when the operands are patterns).
        """
        from repro.sparsela.semiring import PLUS_TIMES, ValuedCSR, mxm

        if isinstance(other, (CompressedPattern, ValuedCSR)):
            return mxm(self, other, PLUS_TIMES)
        return NotImplemented

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CompressedPattern):
            return NotImplemented
        return (
            type(self) is type(other)
            and self.shape == other.shape
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

    def __hash__(self) -> None:  # pragma: no cover - explicit unhashable
        raise TypeError(f"{type(self).__name__} is not hashable")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(shape={self.shape}, nnz={self.nnz})"
