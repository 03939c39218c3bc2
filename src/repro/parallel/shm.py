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
message needs to carry — offsets are implied by the dims.  Publishing a
:class:`~repro.storage.CompactCSR` view instead writes the varint/delta
payloads (int64 bookkeeping first, byte payloads last, so every int64
block stays 8-aligned)::

    [ csr_indptr (n_left+1) | csr_byte_offsets (n_left+1) |
      csc_indptr (n_right+1) | csc_byte_offsets (n_right+1) |
      csr_payload (p1 bytes)  | csc_payload (p2 bytes) ]

with meta ``(name, n_left, n_right, nnz, "compact", p1, p2)`` — a legacy
4-tuple always means a raw segment, so old task messages keep working.
Compressed publication shrinks the segment by the codec's ratio (tracked
as ``storage.publish_bytes`` in bench), and workers attach the same
zero-copy way: the accessor-protocol kernels run directly on the
compact views.

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
#: Compact segments append ("compact", csr_payload_bytes, csc_payload_bytes).
ShmGraphMeta = tuple


def _offsets(n_left: int, n_right: int, nnz: int) -> tuple[int, int, int, int, int]:
    """Byte offsets of the four arrays and the total size (raw layout)."""
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


def _compact_offsets(
    n_left: int, n_right: int, p1: int, p2: int
) -> tuple[int, ...]:
    """Byte offsets of the six blocks and the total size (compact layout)."""
    o0 = 0
    o1 = o0 + (n_left + 1) * _ITEMSIZE
    o2 = o1 + (n_left + 1) * _ITEMSIZE
    o3 = o2 + (n_right + 1) * _ITEMSIZE
    o4 = o3 + (n_right + 1) * _ITEMSIZE
    o5 = o4 + p1
    total = o5 + p2
    return o0, o1, o2, o3, o4, o5, total


def _compact_views(
    buf, n_left: int, n_right: int, p1: int, p2: int
) -> tuple[np.ndarray, ...]:
    o0, o1, o2, o3, o4, o5, _ = _compact_offsets(n_left, n_right, p1, p2)
    i64 = lambda off, n: np.ndarray((n,), dtype=INDEX_DTYPE, buffer=buf, offset=off)
    u8 = lambda off, n: np.ndarray((n,), dtype=np.uint8, buffer=buf, offset=off)
    return (
        i64(o0, n_left + 1),
        i64(o1, n_left + 1),
        i64(o2, n_right + 1),
        i64(o3, n_right + 1),
        u8(o4, p1),
        u8(o5, p2),
    )


def _compact_patterns(views, n_left: int, n_right: int):
    """(CompactPattern CSR-major, CompactPatternMinor CSC-major) over views."""
    from repro.storage.compact import CompactPattern, CompactPatternMinor

    csr_ip, csr_bo, csc_ip, csc_bo, csr_pl, csc_pl = views
    shape = (n_left, n_right)
    return (
        CompactPattern(csr_ip, csr_pl, csr_bo, shape),
        CompactPatternMinor(csc_ip, csc_pl, csc_bo, shape),
    )


class SharedGraphBuffers:
    """Owner-side handle of one graph's shared CSR+CSC buffers.

    Create with :meth:`publish`, hand :attr:`meta` to workers, and let the
    context manager (or :meth:`unlink`) tear the segment down.  The handle
    is idempotent: ``close``/``unlink`` may be called any number of times,
    from ``finally`` blocks, ``atexit``, or ``weakref.finalize`` callbacks.
    """

    __slots__ = ("_shm", "name", "n_left", "n_right", "nnz", "layout",
                 "_payload_bytes", "__weakref__")

    def __init__(self, shm: shared_memory.SharedMemory, n_left: int,
                 n_right: int, nnz: int, layout: str = "raw",
                 payload_bytes: tuple[int, int] = (0, 0)) -> None:
        self._shm = shm
        self.name = shm.name
        self.n_left = n_left
        self.n_right = n_right
        self.nnz = nnz
        self.layout = layout
        self._payload_bytes = payload_bytes

    # ------------------------------------------------------------------
    @classmethod
    def publish(cls, graph: BipartiteGraph) -> "SharedGraphBuffers":
        """Copy ``graph``'s CSR and CSC arrays into one fresh segment.

        One ``O(nnz)`` memcpy, independent of the worker count — the whole
        point of the transport.  ``graph`` may be a plain
        :class:`~repro.graphs.bipartite.BipartiteGraph` or any
        :class:`~repro.storage.GraphStorage` view: a compact view is
        published in its compressed form (the varint payloads are what
        crosses into ``/dev/shm``), everything else ships its raw arrays.
        """
        csr, csc = graph.csr, graph.csc
        if hasattr(csr, "payload"):  # a CompactPattern pair
            return cls._publish_compact(graph, csr, csc)
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

    @classmethod
    def _publish_compact(cls, graph, csr, csc) -> "SharedGraphBuffers":
        """Publish a compact storage view without decompressing it."""
        n_left, n_right = graph.n_left, graph.n_right
        nnz = csr.nnz
        p1 = int(csr.payload.nbytes)
        p2 = int(csc.payload.nbytes)
        *_, total = _compact_offsets(n_left, n_right, p1, p2)
        name = f"{SEGMENT_PREFIX}_{secrets.token_hex(8)}"
        shm = shared_memory.SharedMemory(
            create=True, size=max(total, 1), name=name
        )
        try:
            views = _compact_views(shm.buf, n_left, n_right, p1, p2)
            csr_ip, csr_bo, csc_ip, csc_bo, csr_pl, csc_pl = views
            csr_ip[:] = csr.indptr
            csr_bo[:] = csr.byte_offsets
            csc_ip[:] = csc.indptr
            csc_bo[:] = csc.byte_offsets
            csr_pl[:] = csr.payload
            csc_pl[:] = csc.payload
        except BaseException:  # pragma: no cover - defensive
            shm.close()
            shm.unlink()
            raise
        buffers = cls(shm, n_left, n_right, nnz, "compact", (p1, p2))
        _LIVE[buffers.name] = buffers
        return buffers

    # ------------------------------------------------------------------
    @property
    def meta(self) -> ShmGraphMeta:
        """The task-message handle: ``(name, n_left, n_right, nnz)`` for a
        raw segment, plus ``("compact", p1, p2)`` for a compact one."""
        if self.layout == "compact":
            return (self.name, self.n_left, self.n_right, self.nnz,
                    "compact", *self._payload_bytes)
        return (self.name, self.n_left, self.n_right, self.nnz)

    @property
    def nbytes(self) -> int:
        """Total payload bytes of the segment (the published memcpy size)."""
        if self.layout == "compact":
            *_, total = _compact_offsets(
                self.n_left, self.n_right, *self._payload_bytes
            )
        else:
            *_, total = _offsets(self.n_left, self.n_right, self.nnz)
        return total

    def matrices(self):
        """Owner-side zero-copy (read-only) CSR/CSC views of the segment."""
        if self.layout == "compact":
            views = _compact_views(
                self._shm.buf, self.n_left, self.n_right, *self._payload_bytes
            )
            for arr in views:
                arr.flags.writeable = False
            return _compact_patterns(views, self.n_left, self.n_right)
        a, b, c, d = _views(self._shm.buf, self.n_left, self.n_right, self.nnz)
        for arr in (a, b, c, d):
            arr.flags.writeable = False
        shape = (self.n_left, self.n_right)
        return (
            PatternCSR(a, b, shape, check=False),
            PatternCSC(c, d, shape, check=False),
        )

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Unmap the owner's view (segment persists until :meth:`unlink`)."""
        if self._shm is not None:
            try:
                self._shm.close()
            except OSError:  # pragma: no cover - defensive; repro: noqa[RPR006] close() is best-effort on teardown
                pass

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
    name, n_left, n_right, nnz = meta[:4]
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
    if len(meta) > 4 and meta[4] == "compact":
        p1, p2 = int(meta[5]), int(meta[6])
        views = _compact_views(shm.buf, n_left, n_right, p1, p2)
        for arr in views:
            arr.flags.writeable = False
        csr, csc = _compact_patterns(views, n_left, n_right)
        return shm, csr, csc
    a, b, c, d = _views(shm.buf, n_left, n_right, nnz)
    for arr in (a, b, c, d):
        arr.flags.writeable = False
    shape = (n_left, n_right)
    return (
        shm,
        PatternCSR(a, b, shape, check=False),
        PatternCSC(c, d, shape, check=False),
    )
