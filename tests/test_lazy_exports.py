"""The lazy re-export contract of every ``repro`` package ``__init__``.

Each package serves its public names through ``repro._lazy``: every
``__all__`` name resolves on first access, ``dir()`` lists them, an
unknown name is an ``AttributeError``, and a name whose function shares
its name with a submodule (``repro.engine.plan``/``execute``) still
resolves to the function.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.core.stream",
    "repro.core.peeling",
    "repro.graphs",
    "repro.engine",
    "repro.parallel",
    "repro.sparsela",
    "repro.storage",
    "repro.baselines",
    "repro.bench",
    "repro.metrics",
    "repro.flame",
    "repro.reference",
    "repro.analysis",
    "repro.obs",
]


@pytest.fixture(params=PACKAGES)
def package(request):
    return importlib.import_module(request.param)


def test_every_all_name_resolves(package):
    for name in package.__all__:
        assert getattr(package, name) is not None, name


def test_lazy_table_entries_are_the_defining_values(package):
    for name, target in package._LAZY.items():
        module = importlib.import_module(target)
        expected = module if target == f"{package.__name__}.{name}" else getattr(module, name)
        assert getattr(package, name) is expected, name


def test_dir_lists_every_all_name(package):
    assert set(package.__all__) <= set(dir(package))


def test_unknown_name_is_an_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_from_import_of_an_unknown_name_fails_cleanly():
    with pytest.raises(ImportError):
        from repro.core import no_such_name  # noqa: F401


def test_engine_plan_and_execute_stay_functions_after_submodule_imports():
    """Importing the ``plan``/``execute`` submodules first must not leave
    the modules bound where the functions belong."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import types, repro.engine.plan, repro.engine.execute\n"
        "from repro import BipartiteGraph, engine\n"
        "assert isinstance(engine.plan, types.FunctionType), engine.plan\n"
        "assert isinstance(engine.execute, types.FunctionType), engine.execute\n"
        "g = BipartiteGraph.complete(3, 3)\n"
        "print(engine.execute(engine.plan(g), g))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "9"  # C(3,2)^2 butterflies in K_{3,3}

