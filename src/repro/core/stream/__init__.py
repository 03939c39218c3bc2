"""Streaming tier: batched maintenance, sketch estimation, snapshots.

This package holds the dynamic/streaming subsystem:

- :class:`StreamingButterflyCounter` — exact global + per-vertex counts
  under *batched* insert/delete updates, vectorised with the panel
  wedge kernels; snapshot/restore included.
- :class:`DynamicButterflyCounter` — the original per-edge counter,
  kept as the simple reference implementation and bench baseline.
- :class:`StreamingEstimator` — FLEET-style reservoir sketch with
  ``estimate() -> (value, ci_low, ci_high)``.
- :class:`HybridStreamCounter` — exact hot window + sketch tail.
- :mod:`~repro.core.stream.script` — the edge-script format shared by
  the CLI ``stream`` subcommand and the conformance harness.
- :mod:`~repro.core.stream.snapshot` — versioned, checksummed counter
  serialisation with typed error hierarchy.
"""

from repro.core.stream.counter import (
    STREAM_APPLY_STRATEGIES,
    StreamingButterflyCounter,
)
from repro.core.stream.dynamic import DynamicButterflyCounter
from repro.core.stream.estimator import (
    DEFAULT_VARIANCE_SCALE,
    StreamingEstimator,
    calibrate_variance,
)
from repro.core.stream.hybrid import HybridStreamCounter
from repro.core.stream.snapshot import (
    SnapshotChecksumError,
    SnapshotError,
    SnapshotFormatError,
    SnapshotTruncatedError,
    SnapshotVersionError,
)

__all__ = [
    "StreamingButterflyCounter",
    "STREAM_APPLY_STRATEGIES",
    "DynamicButterflyCounter",
    "StreamingEstimator",
    "DEFAULT_VARIANCE_SCALE",
    "calibrate_variance",
    "HybridStreamCounter",
    "SnapshotError",
    "SnapshotFormatError",
    "SnapshotVersionError",
    "SnapshotChecksumError",
    "SnapshotTruncatedError",
]
