"""Streaming tier: exact batched maintenance and snapshots.

This package holds the dynamic/streaming subsystem:

- :class:`StreamingButterflyCounter` — exact global + per-vertex counts
  under *batched* insert/delete updates, vectorised with the panel
  wedge kernels; snapshot/restore included.
- :class:`DynamicButterflyCounter` — the original per-edge counter,
  kept as the simple reference implementation and bench baseline.
- :mod:`~repro.core.stream.script` — the edge-script format shared by
  the CLI ``stream`` subcommand and the conformance harness.
- :mod:`~repro.core.stream.snapshot` — versioned, checksummed counter
  serialisation with typed error hierarchy.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "StreamingButterflyCounter": "repro.core.stream.counter",
    "DynamicButterflyCounter": "repro.core.stream.dynamic",
    "SnapshotChecksumError": "repro.core.stream.snapshot",
    "SnapshotError": "repro.core.stream.snapshot",
    "SnapshotFormatError": "repro.core.stream.snapshot",
    "SnapshotTruncatedError": "repro.core.stream.snapshot",
    "SnapshotVersionError": "repro.core.stream.snapshot",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [*_LAZY]
