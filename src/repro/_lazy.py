"""PEP 562 lazy re-exports for the package ``__init__`` modules.

Every ``repro`` package re-exports its public names through one literal
``name -> module`` table instead of importing every submodule up front, so
``from repro.core import count_butterflies`` loads ``repro.core.family``
and what it needs, not the whole package.  Each ``__init__`` writes::

    _LAZY = {"count_butterflies": "repro.core.family", ...}
    __getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

A name whose module is ``<package>.<name>`` is that submodule itself
(``repro.engine``, ``repro.sparsela.linalg``).  A function that shares
its name with a submodule of the same package cannot be lazy: importing
the submodule binds the module under that name first.  Such names are
imported eagerly instead (``repro.engine`` does this for ``plan`` and
``execute``).  The project analyzer reads the ``_LAZY`` table as it reads
``from ... import`` re-exports (``repro.analysis.model``).
"""

from __future__ import annotations

from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(package: str, table: dict[str, str], namespace: dict):
    """The ``(__getattr__, __dir__)`` pair serving ``table`` for ``package``.

    The first lookup of a name imports its module and caches the value in
    ``namespace`` (the package's ``globals()``), so later lookups never
    reach ``__getattr__``.  A name outside the table raises
    ``AttributeError``, which keeps ``hasattr`` and the ``from pkg import
    submodule`` fallback working.
    """

    def __getattr__(name: str):
        target = table.get(name)
        if target is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = import_module(target)
        value = module if target == f"{package}.{name}" else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
