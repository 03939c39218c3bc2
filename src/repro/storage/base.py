"""The :class:`GraphStorage` protocol — storage as a first-class plan axis.

Wang et al. (arXiv:1812.00283) make vertex-priority reordering the central
constant-factor lever for butterfly kernels, and Shi & Shun
(arXiv:1907.08607) show the same locality effects dominate the parallel
setting.  Historically this repo baked one layout — raw int64 CSR/CSC
built at graph construction — into every kernel, the shm publication path
and the planner.  This package promotes the layout decision to an explicit
object:

- :class:`~repro.storage.raw.RawCSR` — today's arrays behind the interface.
- :class:`~repro.storage.reorder.ReorderedCSR` — degree-ordered relabeling
  with the inverse permutation retained, so user-facing vertex ids survive.
- :class:`~repro.storage.mmapcsr.MmapCSR` — column files memory-mapped with
  ``np.memmap`` so graphs larger than RAM run through the blocked path.

A storage object **duck-types** :class:`~repro.graphs.bipartite.BipartiteGraph`
for everything the counting kernels need (``n_left`` / ``n_right`` /
``n_edges`` / ``shape`` / ``csr`` / ``csc``), so
:func:`repro.engine.execute` and every kernel accept one unchanged.  Every
layout's ``csr`` / ``csc`` is a plain index-array pattern: the
:class:`~repro.graphs.bipartite.BipartiteGraph`'s own for ``raw``, the
relabelled graph's for ``reorder``, and a
:class:`~repro.sparsela.PatternCSR` over memmaps for ``mmap``.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.bipartite import BipartiteGraph

__all__ = ["GraphStorage", "LAYOUTS", "make_storage", "resolve_storage"]

#: Storage layouts the planner and CLI know about, in preference order.
LAYOUTS: tuple[str, ...] = ("raw", "reorder", "mmap")


class GraphStorage:
    """Base class for concrete graph layouts.

    Subclasses fix :attr:`layout` and provide ``csr`` / ``csc`` pattern
    views.  The id-mapping hooks are identity here;
    :class:`~repro.storage.reorder.ReorderedCSR` overrides them so
    per-vertex results can be returned in the caller's labelling.
    """

    #: layout tag, one of :data:`LAYOUTS`.
    layout: str = "raw"

    def __init__(self, graph: BipartiteGraph) -> None:
        self._graph = graph

    # -- BipartiteGraph duck-type surface ------------------------------
    @property
    def graph(self) -> BipartiteGraph:
        """The graph in *storage* labelling (relabeled for ``reorder``)."""
        return self._graph

    @property
    def n_left(self) -> int:
        return self._graph.n_left

    @property
    def n_right(self) -> int:
        return self._graph.n_right

    @property
    def n_edges(self) -> int:
        return self._graph.n_edges

    @property
    def shape(self) -> tuple[int, int]:
        return self._graph.shape

    @property
    def csr(self):
        return self._graph.csr

    @property
    def csc(self):
        return self._graph.csc

    # -- id mapping hooks ----------------------------------------------
    def to_storage_ids(self, ids: np.ndarray, side: str) -> np.ndarray:
        """Map user-facing vertex ids of ``side`` to storage ids."""
        return np.asarray(ids)

    def to_user_ids(self, ids: np.ndarray, side: str) -> np.ndarray:
        """Map storage vertex ids of ``side`` back to user-facing ids."""
        return np.asarray(ids)

    def vertex_values_to_user(self, values: np.ndarray, side: str) -> np.ndarray:
        """Reorder a per-vertex result vector into user-facing id order."""
        return values

    # -- bookkeeping ---------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes held by the layout's index structures (both views)."""
        total = 0
        for pattern in (self.csr, self.csc):
            total += int(np.asarray(pattern.indptr).nbytes)
            total += int(np.asarray(pattern.indices).nbytes)
        return total

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(layout={self.layout!r}, "
            f"|V1|={self.n_left}, |V2|={self.n_right}, |E|={self.n_edges})"
        )


def make_storage(graph: BipartiteGraph, layout: str, **kwargs) -> GraphStorage:
    """Build the requested layout over ``graph`` (factory for the engine).

    ``layout="mmap"`` spills the CSR/CSC arrays to a temporary directory
    (or ``kwargs["directory"]``) and memory-maps them back.
    """
    if isinstance(graph, GraphStorage):
        if graph.layout == layout:
            return graph
        raise TypeError(
            f"graph is already {graph.layout!r} storage; cannot re-wrap as "
            f"{layout!r}"
        )
    if layout == "raw":
        from repro.storage.raw import RawCSR

        return RawCSR(graph, **kwargs)
    if layout == "reorder":
        from repro.storage.reorder import ReorderedCSR

        return ReorderedCSR(graph, **kwargs)
    if layout == "mmap":
        from repro.storage.mmapcsr import MmapCSR

        return MmapCSR.from_graph(graph, **kwargs)
    raise ValueError(f"unknown storage layout {layout!r}; expected one of {LAYOUTS}")


def resolve_storage(graph, layout: str | None):
    """Normalise an (object, layout) pair at an engine entry point.

    Returns a :class:`GraphStorage`: pass-through when ``graph`` already is
    one, a wrap otherwise.  ``layout=None`` defaults to ``"raw"``.
    """
    if isinstance(graph, GraphStorage):
        return graph
    return make_storage(graph, layout or "raw")
