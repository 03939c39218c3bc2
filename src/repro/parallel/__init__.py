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

from repro._lazy import lazy_exports

_LAZY = {
    "ButterflyExecutor": "repro.parallel.executor",
    "get_default_executor": "repro.parallel.executor",
    "shutdown_default_executors": "repro.parallel.executor",
    "SharedGraphBuffers": "repro.parallel.shm",
    "attach_graph": "repro.parallel.shm",
    "live_segment_names": "repro.parallel.shm",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [*_LAZY]
