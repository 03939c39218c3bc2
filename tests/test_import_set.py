"""What ``import repro``, ``import repro.cli`` and a ``count`` run load.

Every CLI call pays for the modules its import graph drags in, so the
package ``__init__`` modules re-export lazily (``repro._lazy``) and each
CLI handler imports what it runs.  These tests pin that: each scenario
runs in a fresh interpreter and reports ``sys.modules`` at its end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.graphs import gnm_bipartite, save_konect

#: Modules a count never needs: the process pool, the peels and the stream
#: tier, the analyzer and the bench harness, the profiler, the metric
#: sinks and the drift ledger, and the stdlib they would pull in.
FORBIDDEN = frozenset({
    "repro.parallel",
    "repro.core.parallel",
    "repro.core.stream",
    "repro.core.peeling",
    "repro.analysis",
    "repro.baselines",
    "repro.bench",
    "repro.obs.profile",
    "repro.obs.sinks",
    "repro.engine.drift",
    "concurrent.futures.process",
    "multiprocessing",
    "hashlib",
    "statistics",
    "http.server",
    "socketserver",
})

_REPORT = "import json, sys; print(json.dumps(sorted(sys.modules)))"


def _loaded(code: str, env_extra: dict | None = None) -> tuple[set[str], str]:
    """``sys.modules`` at the end of ``python -c code`` (its last stdout
    line), and the rest of its stdout."""
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=src, **(env_extra or {}))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{_REPORT}"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *head, last = proc.stdout.strip().splitlines()
    return set(json.loads(last)), "\n".join(head)


@pytest.mark.parametrize(
    "code, repro_modules",
    [
        ("import repro", {"repro", "repro._lazy"}),
        ("import repro.cli", {"repro", "repro._lazy", "repro.cli"}),
    ],
    ids=["import-repro", "import-repro-cli"],
)
def test_import_loads_only_what_it_names(code, repro_modules):
    mods, _ = _loaded(code)
    assert {m for m in mods if m.split(".")[0] == "repro"} == repro_modules
    assert "numpy" not in mods
    assert sorted(FORBIDDEN & mods) == []


def test_count_run_loads_no_forbidden_module(tmp_path):
    """A whole ``count --auto --json`` with obs and the drift ledger off."""
    from repro import count_butterflies

    graph = tmp_path / "g.konect"
    g = gnm_bipartite(30, 40, 200, seed=3)
    save_konect(g, graph)
    code = (
        "from repro.cli import main\n"
        f"assert main(['count', {str(graph)!r}, '--auto', '--json']) == 0"
    )
    mods, out = _loaded(code, {
        "REPRO_OBS": "0",
        "REPRO_DRIFT_LEDGER": "off",
        "REPRO_CALIBRATION": str(tmp_path / "no-calibration.json"),
    })
    # what ``import numpy`` loads by itself is numpy's, not the program's
    # (older numpy imports numpy.random, and with it ``secrets``, eagerly)
    numpy_mods, _ = _loaded("import numpy")
    assert sorted(FORBIDDEN & (mods - numpy_mods)) == []
    result = json.loads(out)
    assert result["plan"] == "priority-serial"
    assert result["butterflies"] == count_butterflies(g)
