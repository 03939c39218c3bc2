"""Self-contained sparse pattern-matrix substrate.

This subpackage implements, from scratch on top of NumPy, the storage
formats and kernels the paper's algorithm family needs:

- :class:`~repro.sparsela.coo.PatternCOO` — coordinate interchange format.
- :class:`~repro.sparsela.csr.PatternCSR` — row-compressed storage
  (invariants 5–8 of the paper).
- :class:`~repro.sparsela.csc.PatternCSC` — column-compressed storage
  (invariants 1–4 of the paper).
- :mod:`~repro.sparsela.kernels` — vectorised gather, segment-sum and
  keyed Σ C(·,2) kernels.
- :mod:`~repro.sparsela.linalg` — dense trace/Hadamard helpers mirroring the
  paper's notation, used by the specification oracle.

scipy.sparse is deliberately *not* used here; it appears only in the
independent cross-checks (:mod:`repro.baselines` and the matrix-form peel
references in :mod:`repro.core.peeling.linear_algebra`).
"""

from repro._lazy import lazy_exports

_LAZY = {
    "PatternCOO": "repro.sparsela.coo",
    "PatternCSC": "repro.sparsela.csc",
    "PatternCSR": "repro.sparsela.csr",
    "CompressedPattern": "repro.sparsela._compressed",
    "compress_pairs": "repro.sparsela._compressed",
    "expand_indptr": "repro.sparsela._compressed",
    "integral_ids": "repro.sparsela.coo",
    "DEFAULT_KEYSPACE_CAP": "repro.sparsela.kernels",
    "choose2": "repro.sparsela.kernels",
    "choose2_sum": "repro.sparsela.kernels",
    "gather_slices": "repro.sparsela.kernels",
    "keyed_choose2_sum": "repro.sparsela.kernels",
    "panel_choose2_per_owner": "repro.sparsela.kernels",
    "panel_choose2_sum": "repro.sparsela.kernels",
    "segment_sums": "repro.sparsela.kernels",
    "linalg": "repro.sparsela.linalg",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [*_LAZY]
