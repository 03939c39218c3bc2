"""Snapshot round-trip and fault-injection tests for the stream tier.

Every decode failure must surface as a *typed*
:class:`~repro.core.stream.snapshot.SnapshotError` subclass (never a
bare exception or a numpy shape error), and a failed
:meth:`StreamingButterflyCounter.restore` must leave the counter
bitwise untouched — validation happens before the first attribute swap.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from repro.core.stream import (
    SnapshotChecksumError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotTruncatedError,
    SnapshotVersionError,
    StreamingButterflyCounter,
)
from repro.core.stream.snapshot import (
    SNAPSHOT_VERSION,
    decode_snapshot,
    encode_snapshot,
)
from repro.graphs import BipartiteGraph, erdos_renyi_bipartite


@pytest.fixture
def counter():
    c = StreamingButterflyCounter(erdos_renyi_bipartite(12, 15, 0.3, seed=7))
    c.apply(insert=[(0, 0), (0, 1), (1, 0), (1, 1)], delete=[(2, 2)])
    return c


def _state(c):
    return (
        c.count,
        c.n_edges,
        c.vertex_counts("left").copy(),
        c.vertex_counts("right").copy(),
    )


def _assert_same_state(a, b):
    assert a[0] == b[0] and a[1] == b[1]
    assert np.array_equal(a[2], b[2])
    assert np.array_equal(a[3], b[3])


# ----------------------------------------------------------------------
# round trips
# ----------------------------------------------------------------------
def test_round_trip_restores_identical_state(counter):
    blob = counter.snapshot()
    other = StreamingButterflyCounter(
        BipartiteGraph.empty(counter.n_left, counter.n_right)
    )
    other.restore(blob)
    _assert_same_state(_state(counter), _state(other))
    # the restored counter keeps evolving correctly
    s1 = counter.apply(insert=[(3, 3), (3, 4), (4, 3), (4, 4)])
    s2 = other.apply(insert=[(3, 3), (3, 4), (4, 3), (4, 4)])
    assert s1["created"] == s2["created"]
    _assert_same_state(_state(counter), _state(other))


def test_empty_counter_round_trip():
    c = StreamingButterflyCounter(BipartiteGraph.empty(5, 7))
    other = StreamingButterflyCounter(BipartiteGraph.empty(5, 7))
    other.restore(c.snapshot())
    assert other.count == 0 and other.n_edges == 0


def test_decode_is_pure(counter):
    blob = counter.snapshot()
    state = decode_snapshot(blob)
    assert state["count"] == counter.count
    assert state["keys"].size == counter.n_edges
    # decoding twice yields independent arrays
    again = decode_snapshot(blob)
    assert state["keys"] is not again["keys"]
    assert np.array_equal(state["keys"], again["keys"])


# ----------------------------------------------------------------------
# fault injection — every defect maps to a typed error
# ----------------------------------------------------------------------
def test_truncated_prefix_raises():
    with pytest.raises(SnapshotTruncatedError):
        decode_snapshot(b"RBSN")


def test_truncated_payload_raises_typed(counter):
    # the frame length is only known after the header, so a chopped tail
    # first fails the CRC — still a typed SnapshotError, never a numpy
    # shape error
    blob = counter.snapshot()
    with pytest.raises((SnapshotTruncatedError, SnapshotChecksumError)):
        decode_snapshot(blob[:-5])


def test_truncated_payload_with_valid_crc_raises_truncated(counter):
    # re-sign the chopped frame so the CRC passes and the array-length
    # validation is what fires
    import zlib

    blob = counter.snapshot()
    prefix_size = struct.calcsize("<4sHLL")
    magic, version, header_len, _ = struct.unpack_from("<4sHLL", blob, 0)
    body = blob[prefix_size:-8]
    crc = zlib.crc32(body) & 0xFFFFFFFF
    patched = struct.pack("<4sHLL", magic, version, header_len, crc) + body
    with pytest.raises(SnapshotTruncatedError):
        decode_snapshot(patched)


def test_corrupted_payload_raises_checksum(counter):
    blob = bytearray(counter.snapshot())
    blob[-3] ^= 0xFF
    with pytest.raises(SnapshotChecksumError):
        decode_snapshot(bytes(blob))


def test_wrong_magic_raises_format(counter):
    blob = bytearray(counter.snapshot())
    blob[:4] = b"NOPE"
    with pytest.raises(SnapshotFormatError):
        decode_snapshot(bytes(blob))


def test_wrong_version_raises_version(counter):
    blob = bytearray(counter.snapshot())
    struct.pack_into("<H", blob, 4, SNAPSHOT_VERSION + 1)
    with pytest.raises(SnapshotVersionError):
        decode_snapshot(bytes(blob))


def test_non_bytes_raises_format():
    with pytest.raises(SnapshotFormatError):
        decode_snapshot("not bytes")


def test_unsorted_keys_raise_format():
    blob = encode_snapshot(
        n_left=3,
        n_right=3,
        count=0,
        keys=np.asarray([5, 2], dtype=np.int64),  # not increasing
        per_left=np.zeros(3, dtype=np.int64),
        per_right=np.zeros(3, dtype=np.int64),
    )
    with pytest.raises(SnapshotFormatError):
        decode_snapshot(blob)


def test_key_out_of_id_space_raises_format():
    blob = encode_snapshot(
        n_left=2,
        n_right=2,
        count=0,
        keys=np.asarray([9], dtype=np.int64),  # id space is [0, 4)
        per_left=np.zeros(2, dtype=np.int64),
        per_right=np.zeros(2, dtype=np.int64),
    )
    with pytest.raises(SnapshotFormatError):
        decode_snapshot(blob)


def test_all_typed_errors_share_base():
    for err in (
        SnapshotFormatError,
        SnapshotVersionError,
        SnapshotChecksumError,
        SnapshotTruncatedError,
    ):
        assert issubclass(err, SnapshotError)


# ----------------------------------------------------------------------
# restore leaves the counter untouched on failure
# ----------------------------------------------------------------------
def test_failed_restore_leaves_counter_untouched(counter):
    before = _state(counter)
    good = counter.snapshot()
    for bad in (
        good[:-5],                       # truncated
        b"NOPE" + good[4:],              # wrong magic
        good[:10] + bytes([good[10] ^ 0xFF]) + good[11:],  # corrupted
    ):
        with pytest.raises(SnapshotError):
            counter.restore(bad)
        _assert_same_state(before, _state(counter))


def test_restore_rejects_shape_mismatch(counter):
    blob = counter.snapshot()
    other = StreamingButterflyCounter(BipartiteGraph.empty(2, 2))
    before = _state(other)
    with pytest.raises(SnapshotError):
        other.restore(blob)
    _assert_same_state(before, _state(other))

# ----------------------------------------------------------------------
# snapshot × storage layouts (repro.storage)
# ----------------------------------------------------------------------


def _graph_in_storage_labelling(store):
    """Materialise a BipartiteGraph from whatever patterns the layout holds."""
    from repro.sparsela import PatternCSR

    csr = store.csr
    if not csr.indices.flags.writeable:
        # mmap: copy the read-only memmaps into process memory
        csr = PatternCSR(
            np.array(csr.indptr), np.array(csr.indices), csr.shape
        )
    return BipartiteGraph.from_csr(csr)


@pytest.mark.parametrize("layout", ("raw", "mmap"))
def test_snapshot_round_trip_through_each_layout(layout):
    """A counter seeded from any storage layout snapshots and restores.

    The graph travels user graph → storage layout → BipartiteGraph →
    counter → snapshot bytes → fresh counter; the global count must match
    the original graph throughout.
    """
    from repro.core import count_butterflies
    from repro.storage import make_storage

    g = erdos_renyi_bipartite(14, 17, 0.3, seed=23)
    truth = count_butterflies(g)
    store = make_storage(g, layout)
    counter = StreamingButterflyCounter(_graph_in_storage_labelling(store))
    assert counter.count == truth
    other = StreamingButterflyCounter(
        BipartiteGraph.empty(counter.n_left, counter.n_right)
    )
    other.restore(counter.snapshot())
    _assert_same_state(_state(counter), _state(other))
    # both keep evolving in lock-step after the restore
    edges = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0)]
    assert counter.apply(insert=edges) == other.apply(insert=edges)
    _assert_same_state(_state(counter), _state(other))


def test_snapshot_restore_from_mmap_backed_bytes(tmp_path, counter):
    """Restore straight off a memory-mapped snapshot file.

    ``decode_snapshot`` accepts any bytes-like object; an ``mmap.mmap``
    view of the file means the payload is paged in lazily — the
    out-of-core restore path for checkpoint files larger than RAM.
    """
    import mmap

    path = tmp_path / "counter.rbsn"
    path.write_bytes(counter.snapshot())
    with open(path, "rb") as fh:
        with mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
            other = StreamingButterflyCounter(
                BipartiteGraph.empty(counter.n_left, counter.n_right)
            )
            other.restore(memoryview(mapped))
    _assert_same_state(_state(counter), _state(other))
