"""Cache-aware graph storage layouts (the planner's storage axis).

See :mod:`repro.storage.base` for the design rationale.  Public surface:

- :class:`GraphStorage` / :func:`make_storage` / :func:`resolve_storage` —
  the protocol and its factory.
- :class:`RawCSR` — the seed layout behind the interface.
- :class:`MmapCSR` — memory-mapped column files for out-of-core graphs.
"""

from repro.storage.base import GraphStorage, LAYOUTS, make_storage, resolve_storage
from repro.storage.mmapcsr import MmapCSR
from repro.storage.raw import RawCSR

__all__ = [
    "GraphStorage",
    "LAYOUTS",
    "make_storage",
    "resolve_storage",
    "RawCSR",
    "MmapCSR",
]
