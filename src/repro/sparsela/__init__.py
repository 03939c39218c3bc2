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

from repro._lazy import lazy_exports

_LAZY = {
    "PatternCOO": "repro.sparsela.coo",
    "PatternCSC": "repro.sparsela.csc",
    "PatternCSR": "repro.sparsela.csr",
    "CompressedPattern": "repro.sparsela._compressed",
    "compress_pairs": "repro.sparsela._compressed",
    "expand_indptr": "repro.sparsela._compressed",
    "DEFAULT_KEYSPACE_CAP": "repro.sparsela.kernels",
    "choose2": "repro.sparsela.kernels",
    "choose2_sum": "repro.sparsela.kernels",
    "gather_slices": "repro.sparsela.kernels",
    "multiplicity_counts": "repro.sparsela.kernels",
    "panel_choose2_per_owner": "repro.sparsela.kernels",
    "panel_choose2_sum": "repro.sparsela.kernels",
    "segment_sums": "repro.sparsela.kernels",
    "spmv_pattern": "repro.sparsela.kernels",
    "spmv_pattern_transposed": "repro.sparsela.kernels",
    "linalg": "repro.sparsela.linalg",
    "semiring": "repro.sparsela.semiring",
    "hstack_patterns": "repro.sparsela.stack",
    "vstack_patterns": "repro.sparsela.stack",
    "ANY_PAIR": "repro.sparsela.semiring",
    "PLUS_PAIR": "repro.sparsela.semiring",
    "PLUS_TIMES": "repro.sparsela.semiring",
    "Semiring": "repro.sparsela.semiring",
    "ValuedCSR": "repro.sparsela.semiring",
    "ewise_mult": "repro.sparsela.semiring",
    "gram": "repro.sparsela.semiring",
    "mxm": "repro.sparsela.semiring",
    "reduce_scalar": "repro.sparsela.semiring",
    "tril": "repro.sparsela.semiring",
    "triu": "repro.sparsela.semiring",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

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
