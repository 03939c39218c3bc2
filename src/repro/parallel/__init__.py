"""Zero-copy shared-memory parallel execution subsystem.

Two layers:

- :mod:`repro.parallel.shm` — :class:`SharedGraphBuffers`, the transport
  that places a graph's four CSR/CSC arrays in one POSIX shared-memory
  segment (a single ``O(nnz)`` memcpy) so workers attach zero-copy.
- :mod:`repro.parallel.executor` — :class:`ButterflyExecutor`, the
  persistent warm-pool counter behind Fig. 11's parallel sweep, plus
  the process-wide defaults behind ``executor="shared"``.  It counts and
  does nothing else: the tip and wing decompositions run in-process.

See ``docs/api.md`` ("Parallel execution") for the usage guide and
``DESIGN.md`` for the lifecycle discipline.
"""

from repro.parallel.executor import (
    ButterflyExecutor,
    get_default_executor,
    shutdown_default_executors,
)
from repro.parallel.shm import SharedGraphBuffers, attach_graph, live_segment_names

__all__ = [
    "ButterflyExecutor",
    "SharedGraphBuffers",
    "attach_graph",
    "get_default_executor",
    "live_segment_names",
    "shutdown_default_executors",
]
