"""Versioned, checksummed snapshot format for streaming counters.

Layout (all integers little-endian)::

    offset  size  field
    0       4     magic  b"RBSN"
    4       2     format version (u16)
    6       4     header length H (u32)
    10      4     CRC-32 of header + payload (u32)
    14      H     JSON header (utf-8)
    14+H    ...   payload: raw little-endian int64 array bytes, in the
                  order listed by the header's ``arrays`` descriptors

The header records ``n_left`` / ``n_right`` / ``count`` and an
``arrays`` list of ``{"name": ..., "length": ...}`` descriptors, so the
payload is self-describing and forward-extensible (a newer version can
append arrays without invalidating the frame).

Every decode failure raises a typed :class:`SnapshotError` subclass —
callers can catch the base class (itself a ``ValueError``), and
:meth:`~repro.core.stream.counter.StreamingButterflyCounter.restore`
guarantees the counter is untouched when any of them fires.
"""

from __future__ import annotations

import json
import struct
import zlib

import numpy as np

from repro import obs
from repro._types import COUNT_DTYPE

__all__ = [
    "SNAPSHOT_MAGIC",
    "SNAPSHOT_VERSION",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotVersionError",
    "SnapshotChecksumError",
    "SnapshotTruncatedError",
    "encode_snapshot",
    "decode_snapshot",
]

SNAPSHOT_MAGIC = b"RBSN"
SNAPSHOT_VERSION = 1

_PREFIX = struct.Struct("<4sHLL")  # magic, version, header_len, crc32


class SnapshotError(ValueError):
    """Base class for all snapshot encode/decode failures.

    A ``ValueError``: a corrupt, truncated or mismatched snapshot is bad
    input, reported like any other malformed value.
    """


class SnapshotFormatError(SnapshotError):
    """Bytes are not a snapshot, or the header is malformed/inconsistent."""


class SnapshotVersionError(SnapshotError):
    """The snapshot's format version is not supported by this build."""


class SnapshotChecksumError(SnapshotError):
    """The CRC-32 over header + payload does not match — corrupted bytes."""


class SnapshotTruncatedError(SnapshotError):
    """The byte string ends before the declared frame does."""


def encode_snapshot(
    *,
    n_left: int,
    n_right: int,
    count: int,
    keys: np.ndarray,
    per_left: np.ndarray,
    per_right: np.ndarray,
) -> bytes:
    """Serialise counter state into one self-contained byte frame."""
    with obs.span("stream.snapshot.save"):
        arrays = [
            ("keys", np.ascontiguousarray(keys, dtype=np.int64)),
            ("per_left", np.ascontiguousarray(per_left, dtype=np.int64)),
            ("per_right", np.ascontiguousarray(per_right, dtype=np.int64)),
        ]
        header = {
            "n_left": int(n_left),
            "n_right": int(n_right),
            "n_edges": int(keys.size),
            "count": int(count),
            "arrays": [
                {"name": name, "length": int(a.size)} for name, a in arrays
            ],
        }
        header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
        payload = b"".join(
            a.astype("<i8", copy=False).tobytes() for _, a in arrays
        )
        crc = zlib.crc32(header_bytes + payload) & 0xFFFFFFFF
        prefix = _PREFIX.pack(
            SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(header_bytes), crc
        )
        frame = prefix + header_bytes + payload
        if obs._enabled:
            obs.inc("stream.snapshot.bytes", len(frame))
            obs.inc("stream.snapshot.saves")
        return frame


def decode_snapshot(data: bytes) -> dict:
    """Validate and decode a snapshot frame into a state dict.

    Returns ``{"n_left", "n_right", "count", "keys", "per_left",
    "per_right"}`` with freshly-allocated int64 arrays.  Raises a typed
    :class:`SnapshotError` subclass on any defect; no partial results
    escape (rejections bump ``stream.snapshot.restore_failures``).
    """
    with obs.span("stream.snapshot.restore"):
        try:
            return _decode_snapshot(data)
        except SnapshotError:
            obs.inc("stream.snapshot.restore_failures")
            raise


def _decode_snapshot(data: bytes) -> dict:
    if not isinstance(data, (bytes, bytearray, memoryview)):
        raise SnapshotFormatError(
            f"snapshot must be bytes, got {type(data).__name__}"
        )
    data = bytes(data)
    if len(data) < _PREFIX.size:
        raise SnapshotTruncatedError(
            f"snapshot prefix needs {_PREFIX.size} bytes, got {len(data)}"
        )
    magic, version, header_len, crc = _PREFIX.unpack_from(data, 0)
    if magic != SNAPSHOT_MAGIC:
        raise SnapshotFormatError(
            f"bad magic {magic!r}; expected {SNAPSHOT_MAGIC!r}"
        )
    if version != SNAPSHOT_VERSION:
        raise SnapshotVersionError(
            f"unsupported snapshot version {version}; this build reads "
            f"version {SNAPSHOT_VERSION}"
        )
    body = data[_PREFIX.size:]
    if len(body) < header_len:
        raise SnapshotTruncatedError(
            f"header declares {header_len} bytes but only {len(body)} follow"
        )
    header_bytes = body[:header_len]
    payload = body[header_len:]
    if (zlib.crc32(header_bytes + payload) & 0xFFFFFFFF) != crc:
        raise SnapshotChecksumError("CRC-32 mismatch; snapshot bytes corrupted")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SnapshotFormatError(f"snapshot header is not valid JSON: {exc}") from exc
    try:
        n_left = int(header["n_left"])
        n_right = int(header["n_right"])
        count = int(header["count"])
        descriptors = header["arrays"]
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotFormatError(f"snapshot header missing field: {exc}") from exc
    if n_left < 0 or n_right < 0 or count < 0:
        raise SnapshotFormatError("snapshot header has negative dimensions")

    arrays: dict[str, np.ndarray] = {}
    offset = 0
    for desc in descriptors:
        try:
            name, length = desc["name"], int(desc["length"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SnapshotFormatError(
                f"malformed array descriptor {desc!r}"
            ) from exc
        if length < 0:
            raise SnapshotFormatError(f"array {name!r} has negative length")
        nbytes = length * 8
        if offset + nbytes > len(payload):
            raise SnapshotTruncatedError(
                f"payload ends inside array {name!r} "
                f"(need {offset + nbytes} bytes, have {len(payload)})"
            )
        arrays[name] = np.frombuffer(
            payload, dtype="<i8", count=length, offset=offset
        ).astype(COUNT_DTYPE, copy=True)
        offset += nbytes
    if offset != len(payload):
        raise SnapshotFormatError(
            f"{len(payload) - offset} trailing payload bytes after declared arrays"
        )
    for required in ("keys", "per_left", "per_right"):
        if required not in arrays:
            raise SnapshotFormatError(f"snapshot missing array {required!r}")
    if arrays["per_left"].size != n_left or arrays["per_right"].size != n_right:
        raise SnapshotFormatError(
            "per-vertex array lengths disagree with header dimensions"
        )
    keys = arrays["keys"]
    if keys.size:
        if n_right == 0 or n_left == 0:
            raise SnapshotFormatError("edges present in a zero-sized graph")
        if keys.min() < 0 or keys.max() >= n_left * n_right:
            raise SnapshotFormatError("edge key outside the declared id space")
        if not (np.diff(keys) > 0).all():
            raise SnapshotFormatError("edge keys are not strictly increasing")
    return {
        "n_left": n_left,
        "n_right": n_right,
        "count": count,
        "keys": keys,
        "per_left": arrays["per_left"],
        "per_right": arrays["per_right"],
    }
