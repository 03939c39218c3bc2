"""Self-contained sparse pattern-matrix substrate.

This subpackage implements, from scratch on top of NumPy, the storage
formats and kernels the paper's algorithm family needs:

- :class:`~repro.sparsela.coo.PatternCOO` — coordinate interchange format.
- :class:`~repro.sparsela.csr.PatternCSR` — row-compressed storage
  (invariants 5–8 of the paper).
- :class:`~repro.sparsela.csc.PatternCSC` — column-compressed storage
  (invariants 1–4 of the paper).
- :mod:`~repro.sparsela.kernels` — vectorised gather / multiplicity /
  Σ C(·,2) / SpMV kernels.
- :mod:`~repro.sparsela.linalg` — dense trace/Hadamard helpers mirroring the
  paper's notation, used by the specification oracle.

scipy.sparse is deliberately *not* used here; it appears only in
:mod:`repro.baselines` as an independent cross-check.
"""

from repro.sparsela.coo import PatternCOO
from repro.sparsela.csc import PatternCSC
from repro.sparsela.csr import PatternCSR
from repro.sparsela._compressed import CompressedPattern, compress_pairs, expand_indptr
from repro.sparsela.kernels import (
    DEFAULT_KEYSPACE_CAP,
    choose2,
    choose2_sum,
    gather_slices,
    multiplicity_counts,
    panel_choose2_per_owner,
    panel_choose2_sum,
    segment_sums,
    spmv_pattern,
    spmv_pattern_transposed,
)
from repro.sparsela import linalg, semiring
from repro.sparsela.stack import hstack_patterns, vstack_patterns
from repro.sparsela.semiring import (
    ANY_PAIR,
    PLUS_PAIR,
    PLUS_TIMES,
    Semiring,
    ValuedCSR,
    ewise_mult,
    gram,
    mxm,
    reduce_scalar,
    tril,
    triu,
)

__all__ = [
    "Semiring",
    "ValuedCSR",
    "PLUS_TIMES",
    "PLUS_PAIR",
    "ANY_PAIR",
    "mxm",
    "gram",
    "ewise_mult",
    "reduce_scalar",
    "tril",
    "triu",
    "semiring",
    "hstack_patterns",
    "vstack_patterns",
    "PatternCOO",
    "PatternCSR",
    "PatternCSC",
    "CompressedPattern",
    "compress_pairs",
    "expand_indptr",
    "gather_slices",
    "multiplicity_counts",
    "choose2",
    "choose2_sum",
    "segment_sums",
    "panel_choose2_sum",
    "panel_choose2_per_owner",
    "DEFAULT_KEYSPACE_CAP",
    "spmv_pattern",
    "spmv_pattern_transposed",
    "linalg",
]
