"""``MmapCSR`` — out-of-core graphs through memory-mapped column files,
and :func:`make_storage`, the factory behind the plan's ``layout`` field.

Both compressed views are persisted as four ``.npy`` files plus a JSON
sidecar, then mapped back with ``np.load(..., mmap_mode="r")``.  The
memmaps are plain ``ndarray`` subclasses, so the kernels (and the storage
accessor protocol) run on them unchanged; the OS pages index data in and
out on demand, which is what lets the blocked-panel path count graphs
whose CSR arrays exceed the process' heap budget — file-backed read-only
mappings are served from the page cache and do not count against
``RLIMIT_DATA`` (pinned by a subprocess test under an rlimit cap).
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro._types import INDEX_DTYPE
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import PatternCSC, PatternCSR

__all__ = ["MmapCSR", "make_storage"]

#: on-disk file names, in (view, array) order.
_FILES = ("csr_indptr", "csr_indices", "csc_indptr", "csc_indices")
_META = "meta.json"
#: rows copied per chunk when spilling an in-memory graph to disk.
_SPILL_CHUNK = 1 << 20


class MmapCSR:
    """Graph storage over memory-mapped CSR/CSC column files.

    Build with :meth:`from_graph` (spill an in-memory graph to a
    directory, then map it back) or :meth:`load` (attach to files written
    earlier — including files produced out-of-core by external tooling, as
    the rlimit test does).  It duck-types
    :class:`~repro.graphs.bipartite.BipartiteGraph` for everything the
    counting kernels read (sizes, ``n_edges``, ``csr``, ``csc``), in the
    caller's vertex ids, so :func:`repro.engine.execute` and every count
    kernel accept it unchanged.
    """

    layout = "mmap"

    def __init__(self, directory: str, csr: PatternCSR, csc: PatternCSC) -> None:
        # deliberately no BipartiteGraph: building one would materialise a
        # COO copy of the whole edge set in memory
        self.directory = str(directory)
        self._mmap_csr = csr
        self._mmap_csc = csc

    # -- construction --------------------------------------------------
    @classmethod
    def save(cls, graph: BipartiteGraph, directory: str) -> str:
        """Spill ``graph``'s four index arrays to ``directory`` (chunked)."""
        os.makedirs(directory, exist_ok=True)
        arrays = {
            "csr_indptr": graph.csr.entry_offsets(),
            "csr_indices": graph.csr.entries(0, graph.csr.nnz),
            "csc_indptr": graph.csc.entry_offsets(),
            "csc_indices": graph.csc.entries(0, graph.csc.nnz),
        }
        for name, arr in arrays.items():
            out = np.lib.format.open_memmap(
                os.path.join(directory, f"{name}.npy"),
                mode="w+",
                dtype=INDEX_DTYPE,
                shape=arr.shape,
            )
            for lo in range(0, arr.size, _SPILL_CHUNK):
                out[lo : lo + _SPILL_CHUNK] = arr[lo : lo + _SPILL_CHUNK]
            out.flush()
            del out
        meta = {"n_left": graph.n_left, "n_right": graph.n_right,
                "n_edges": graph.n_edges}
        with open(os.path.join(directory, _META), "w") as fh:
            json.dump(meta, fh)
        return directory

    @classmethod
    def from_graph(
        cls, graph: BipartiteGraph, directory: str | None = None
    ) -> "MmapCSR":
        """Spill ``graph`` to ``directory`` (a fresh tempdir when omitted).

        A tempdir the method created itself is removed again when the
        returned storage is garbage-collected; a caller-provided
        directory is the caller's to keep.
        """
        own_tempdir = directory is None
        if own_tempdir:
            import tempfile

            directory = tempfile.mkdtemp(prefix="repro-mmap-")
        cls.save(graph, directory)
        store = cls.load(directory)
        if own_tempdir:
            import shutil
            import weakref

            store._tempdir_finalizer = weakref.finalize(
                store, shutil.rmtree, directory, True
            )
        return store

    @classmethod
    def load(cls, directory: str) -> "MmapCSR":
        """Attach to column files previously written under ``directory``."""
        with open(os.path.join(directory, _META)) as fh:
            meta = json.load(fh)
        shape = (int(meta["n_left"]), int(meta["n_right"]))
        maps = {
            name: np.load(
                os.path.join(directory, f"{name}.npy"), mmap_mode="r"
            )
            for name in _FILES
        }
        csr = PatternCSR(
            maps["csr_indptr"], maps["csr_indices"], shape, check=False
        )
        csc = PatternCSC(
            maps["csc_indptr"], maps["csc_indices"], shape, check=False
        )
        return cls(directory, csr, csc)

    # -- BipartiteGraph duck-type surface (no backing graph object) ----
    @property
    def graph(self):
        raise TypeError(
            "MmapCSR has no in-memory BipartiteGraph; use .csr/.csc views"
        )

    @property
    def n_left(self) -> int:
        return self._mmap_csr.shape[0]

    @property
    def n_right(self) -> int:
        return self._mmap_csr.shape[1]

    @property
    def n_edges(self) -> int:
        return self._mmap_csr.nnz

    @property
    def shape(self) -> tuple[int, int]:
        return self._mmap_csr.shape

    @property
    def csr(self) -> PatternCSR:
        return self._mmap_csr

    @property
    def csc(self) -> PatternCSC:
        return self._mmap_csc

    @property
    def nbytes(self) -> int:
        """Bytes of the four mapped index arrays."""
        return sum(
            int(a.nbytes)
            for view in (self._mmap_csr, self._mmap_csc)
            for a in (view.indptr, view.indices)
        )

    def __repr__(self) -> str:
        return (
            f"MmapCSR(layout={self.layout!r}, |V1|={self.n_left}, "
            f"|V2|={self.n_right}, |E|={self.n_edges})"
        )


def make_storage(graph, layout: str, **kwargs):
    """``graph`` in the plan's storage ``layout``: the graph itself for
    ``"raw"``, an :class:`MmapCSR` spilled to a temporary directory (or
    ``kwargs["directory"]``) for ``"mmap"``.  Storage already in the
    asked layout passes through; an :class:`MmapCSR` cannot become raw.
    """
    from repro.engine.plan import LAYOUTS

    if layout not in LAYOUTS:
        raise ValueError(
            f"unknown storage layout {layout!r}; expected one of {LAYOUTS}"
        )
    if isinstance(graph, MmapCSR) and layout != "mmap":
        raise TypeError(
            f"graph is already 'mmap' storage; cannot re-wrap as {layout!r}"
        )
    if layout == "raw" or isinstance(graph, MmapCSR):
        return graph
    return MmapCSR.from_graph(graph, **kwargs)
