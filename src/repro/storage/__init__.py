"""Graph storage layouts (the plan's ``layout`` axis).

``raw`` is the :class:`~repro.graphs.bipartite.BipartiteGraph` itself,
its own int64 CSR/CSC arrays.  :class:`MmapCSR` holds the same arrays as
memory-mapped column files for out-of-core graphs; it duck-types the
graph for the counting kernels and keeps the caller's vertex ids, so
per-vertex results need no translation.  :func:`make_storage` builds the
layout a plan names.  (Degree ordering, the cache lever of Wang et al.,
arXiv:1812.00283, is not a layout: the vertex-priority kernel relabels
by degree internally, see :mod:`repro.core.priority`.)
"""

from repro._lazy import lazy_exports

_LAZY = {
    "MmapCSR": "repro.storage.mmapcsr",
    "make_storage": "repro.storage.mmapcsr",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [*_LAZY]
