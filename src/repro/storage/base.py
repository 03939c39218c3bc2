"""The :class:`GraphStorage` protocol — storage as a first-class plan axis.

Historically this repo baked one layout — raw int64 CSR/CSC built at
graph construction — into every kernel, the shm publication path and the
planner.  This package promotes the layout decision to an explicit
object.  (Degree ordering, the cache lever of Wang et al.,
arXiv:1812.00283, is not a layout: the vertex-priority kernel relabels
by degree internally, see :mod:`repro.core.priority`.)

- :class:`~repro.storage.raw.RawCSR` — today's arrays behind the interface.
- :class:`~repro.storage.mmapcsr.MmapCSR` — column files memory-mapped with
  ``np.memmap`` so graphs larger than RAM run through the blocked path.

A storage object **duck-types** :class:`~repro.graphs.bipartite.BipartiteGraph`
for everything the counting kernels need (``n_left`` / ``n_right`` /
``n_edges`` / ``shape`` / ``csr`` / ``csc``), so
:func:`repro.engine.execute` and every kernel accept one unchanged.  Every
layout's ``csr`` / ``csc`` is a plain index-array pattern: the
:class:`~repro.graphs.bipartite.BipartiteGraph`'s own for ``raw`` and a
:class:`~repro.sparsela.PatternCSR` over memmaps for ``mmap``.  Both keep
the caller's vertex ids, so per-vertex results need no translation.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.bipartite import BipartiteGraph

__all__ = ["GraphStorage", "LAYOUTS", "make_storage", "resolve_storage"]

#: Storage layouts the planner and CLI know about, in preference order.
LAYOUTS: tuple[str, ...] = ("raw", "mmap")


class GraphStorage:
    """Base class for concrete graph layouts.

    Subclasses fix :attr:`layout` and provide ``csr`` / ``csc`` pattern
    views in the caller's vertex labelling.
    """

    #: layout tag, one of :data:`LAYOUTS`.
    layout: str = "raw"

    def __init__(self, graph: BipartiteGraph) -> None:
        self._graph = graph

    # -- BipartiteGraph duck-type surface ------------------------------
    @property
    def graph(self) -> BipartiteGraph:
        """The wrapped graph."""
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
