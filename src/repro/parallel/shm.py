"""Zero-copy shared-memory transport for compressed graph buffers.

This module places a graph's four CSR/CSC arrays (two ``indptr``, two
``indices``) in a single POSIX shared-memory segment once
(``O(nnz)`` memcpy total), after which any number of workers attach
zero-copy: the kernels in the workers operate directly on the parent's
pages.

Layout of a raw segment (all :data:`~repro._types.INDEX_DTYPE` = int64)::

    [ csr_indptr (n_left+1) | csr_indices (nnz) |
      csc_indptr (n_right+1) | csc_indices (nnz) ]

so a tiny metadata tuple ``(name, n_left, n_right, nnz)`` is all a task
message needs to carry — offsets are implied by the dims.

Lifecycle discipline (the part that actually matters in production):

- :class:`SharedGraphBuffers` is a context manager; ``__exit__`` always
  unlinks.
- Every live segment is recorded in a module registry and an ``atexit``
  hook unlinks stragglers, so no ``/dev/shm`` garbage survives the
  process even on unclean error paths.
- Worker-side attachment suppresses CPython resource-tracker
  registration (which would otherwise *also* try to unlink the parent's
  segment — the well-known double-unlink wart of
  ``multiprocessing.shared_memory`` before Python 3.13's ``track=False``).
"""

from __future__ import annotations

import atexit
import secrets
from multiprocessing import shared_memory

import numpy as np

from repro._types import INDEX_DTYPE
from repro.graphs.bipartite import BipartiteGraph
from repro.sparsela import PatternCSC, PatternCSR

__all__ = ["SharedGraphBuffers", "ShmGraphMeta", "attach_graph", "live_segment_names"]

_ITEMSIZE = np.dtype(INDEX_DTYPE).itemsize

#: Prefix of every segment created here — lets tests (and operators) audit
#: ``/dev/shm`` for leaks without false positives from other libraries.
SEGMENT_PREFIX = "bfly"

#: name -> SharedGraphBuffers for every segment this process owns.
_LIVE: dict[str, "SharedGraphBuffers"] = {}


def live_segment_names() -> list[str]:
    """Names of the shared-memory segments this process currently owns."""
    return sorted(_LIVE)


def _cleanup_all() -> None:  # pragma: no cover - exercised via atexit
    for buffers in list(_LIVE.values()):
        buffers.unlink()


atexit.register(_cleanup_all)


#: (segment name, n_left, n_right, nnz) — everything a worker needs.
ShmGraphMeta = tuple


def _offsets(n_left: int, n_right: int, nnz: int) -> tuple[int, int, int, int, int]:
    """Byte offsets of the four arrays and the total size."""
    o0 = 0
    o1 = o0 + (n_left + 1) * _ITEMSIZE
    o2 = o1 + nnz * _ITEMSIZE
    o3 = o2 + (n_right + 1) * _ITEMSIZE
    total = o3 + nnz * _ITEMSIZE
    return o0, o1, o2, o3, total


def _views(buf, n_left: int, n_right: int, nnz: int) -> tuple[np.ndarray, ...]:
    o0, o1, o2, o3, _ = _offsets(n_left, n_right, nnz)
    mk = lambda off, n: np.ndarray((n,), dtype=INDEX_DTYPE, buffer=buf, offset=off)
    return (
        mk(o0, n_left + 1),
        mk(o1, nnz),
        mk(o2, n_right + 1),
        mk(o3, nnz),
    )


class SharedGraphBuffers:
    """Owner-side handle of one graph's shared CSR+CSC buffers.

    Create with :meth:`publish`, hand :attr:`meta` to workers, and let the
    context manager (or :meth:`unlink`) tear the segment down.  The handle
    is idempotent: ``unlink`` may be called any number of times, from
    ``finally`` blocks, ``atexit``, or ``weakref.finalize`` callbacks.
    """

    __slots__ = ("_shm", "name", "n_left", "n_right", "nnz", "__weakref__")

    def __init__(self, shm: shared_memory.SharedMemory, n_left: int,
                 n_right: int, nnz: int) -> None:
        self._shm = shm
        self.name = shm.name
        self.n_left = n_left
        self.n_right = n_right
        self.nnz = nnz

    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, graph: BipartiteGraph) -> "SharedGraphBuffers":
        """Copy ``graph``'s CSR and CSC arrays into one fresh segment.

        One ``O(nnz)`` memcpy, independent of the worker count — the whole
        point of the transport.  ``graph`` may be a plain
        :class:`~repro.graphs.bipartite.BipartiteGraph` or an
        :class:`~repro.storage.MmapCSR`.
        """
        csr, csc = graph.csr, graph.csc
        n_left, n_right = graph.n_left, graph.n_right
        nnz = csr.nnz
        *_, total = _offsets(n_left, n_right, nnz)
        name = f"{SEGMENT_PREFIX}_{secrets.token_hex(8)}"
        shm = shared_memory.SharedMemory(
            create=True, size=max(total, 1), name=name
        )
        try:
            a, b, c, d = _views(shm.buf, n_left, n_right, nnz)
            a[:] = csr.entry_offsets()
            b[:] = csr.entries(0, nnz)
            c[:] = csc.entry_offsets()
            d[:] = csc.entries(0, nnz)
        except BaseException:  # pragma: no cover - defensive
            shm.close()
            shm.unlink()
            raise
        buffers = cls(shm, n_left, n_right, nnz)
        _LIVE[buffers.name] = buffers
        return buffers

    # ------------------------------------------------------------------
    @property
    def meta(self) -> ShmGraphMeta:
        """The task-message handle: ``(name, n_left, n_right, nnz)``."""
        return (self.name, self.n_left, self.n_right, self.nnz)

    @property
    def nbytes(self) -> int:
        """Total payload bytes of the segment (the published memcpy size)."""
        *_, total = _offsets(self.n_left, self.n_right, self.nnz)
        return total

    # ------------------------------------------------------------------
    def unlink(self) -> None:
        """Unmap *and* remove the segment.  Idempotent."""
        shm, self._shm = self._shm, None
        _LIVE.pop(self.name, None)
        if shm is None:
            return
        try:
            shm.close()
        except OSError:  # pragma: no cover - defensive; repro: noqa[RPR006] unlink below is the operation that matters
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover; repro: noqa[RPR006] racing cleanup with the resource tracker is expected
            pass

    # ------------------------------------------------------------------
    def __enter__(self) -> "SharedGraphBuffers":
        return self

    def __exit__(self, *exc) -> None:
        self.unlink()

    def __repr__(self) -> str:
        state = "unlinked" if self._shm is None else "live"
        return (
            f"SharedGraphBuffers({self.name!r}, shape=({self.n_left}, "
            f"{self.n_right}), nnz={self.nnz}, {state})"
        )


def attach_graph(
    meta: ShmGraphMeta,
) -> tuple[shared_memory.SharedMemory, PatternCSR, PatternCSC]:
    """Worker-side zero-copy attach.

    Returns the segment handle (the caller owns closing it) plus read-only
    CSR/CSC pattern views backed directly by the shared pages.  The
    attachment is hidden from the resource tracker so worker exit never
    unlinks (or double-unlinks) the parent's segment.
    """
    name, n_left, n_right, nnz = meta
    # Python < 3.13 registers *attachments* with the resource tracker too
    # (bpo-39959), and under fork the tracker state is shared with the
    # parent — so a later worker-side unregister would delete the owner's
    # entry and the owner's unlink would double-unregister.  Suppress the
    # registration for the duration of the attach instead.
    from multiprocessing import resource_tracker

    _orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **kw: None  # bpo-39959 tracker suppression, scoped to this attach and restored in the finally below
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = _orig_register  # restores the original tracker hook patched above
    a, b, c, d = _views(shm.buf, n_left, n_right, nnz)
    for arr in (a, b, c, d):
        arr.flags.writeable = False
    shape = (n_left, n_right)
    return (
        shm,
        PatternCSR(a, b, shape, check=False),
        PatternCSC(c, d, shape, check=False),
    )
