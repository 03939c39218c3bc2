"""Cache-aware graph storage layouts (the planner's storage axis).

See :mod:`repro.storage.base` for the design rationale.  Public surface:

- :class:`GraphStorage` / :func:`make_storage` / :func:`resolve_storage` —
  the protocol and its factory.
- :class:`RawCSR` — the seed layout behind the interface.
- :class:`MmapCSR` — memory-mapped column files for out-of-core graphs.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "GraphStorage": "repro.storage.base",
    "LAYOUTS": "repro.storage.base",
    "make_storage": "repro.storage.base",
    "resolve_storage": "repro.storage.base",
    "MmapCSR": "repro.storage.mmapcsr",
    "RawCSR": "repro.storage.raw",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [
    "GraphStorage",
    "LAYOUTS",
    "make_storage",
    "resolve_storage",
    "RawCSR",
    "MmapCSR",
]
