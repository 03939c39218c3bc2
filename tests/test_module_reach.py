"""Every module of ``src/repro`` is run by a subcommand or is an oracle.

One fresh interpreter drives every subcommand in-process through
``repro.cli.main`` (about 1 s) and reports the ``repro`` modules it
loaded.  A module that none of them loads must be named in
:data:`ORACLES` with the reason it stays: an independent check an exact
path is compared with, a tool an EXPERIMENTS table is regenerated with,
or a route a benchmark takes that no subcommand does.  Library surface
that only its own tests call fails here.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: Paths under ``src/repro`` that no subcommand loads, each with why it
#: stays; a key ending in ``/`` covers the whole package.
ORACLES = {
    "core/spec.py": "the dense eq. (4)/(7) specification every count is "
    "checked against (test_spec, test_exhaustive_small)",
    "baselines/__init__.py": "the lazy re-exports of the oracles below",
    "baselines/bruteforce.py": "the pairwise C(k, 2) brute force of "
    "Sanei-Mehri et al. (test_exhaustive_small, test_family_integration)",
    "baselines/scipy_reference.py": "the scipy B = A·Aᵀ counter "
    "(test_family_integration, the ablD scipy-spgemm column)",
    "baselines/wang2014.py": "Wang et al. (2014)'s counters "
    "(test_wang2014, the ablD wang2014-space column)",
    "baselines/chiba_nishizeki.py": "degree-ordered side counting "
    "(the ablD degree-ordered column, test_baselines)",
    "reference/": "the per-invariant pure-Python loop references "
    "(test_reference, test_exhaustive_small)",
    "flame/": "the FLAME partition views and the paper's worksheet "
    "(test_flame_invariants, test_worksheet)",
    "core/local_counts.py": "the fixed-side per-vertex and per-edge "
    "loops and their dense forms, the oracles of the priority passes "
    "(test_local_counts, test_priority, the heap decompositions)",
    "sparsela/linalg.py": "the dense helpers (choose2_dense, gamma, "
    "hadamard) of the specification and the dense local-count oracles",
    "core/peeling/decompose.py": "the heap tip and wing decompositions, "
    "the oracle of the bucket peels (test_decompose, test_peeling_parallel)",
    "core/peeling/linear_algebra.py": "k-tip and k-wing as the literal "
    "eqs. (19)-(27) on scipy products (test_la_peeling_workmodel)",
    "core/stream/dynamic.py": "the per-edge streaming reference "
    "(test_dynamic, test_stream_conformance)",
    "bench/cachesim.py": "the LRU replay behind the ablG table "
    "(benchmarks/test_cache_locality.py)",
    "bench/registry.py": "the ablA/ablB workload sweeps "
    "(benchmarks/test_ablation_crossover.py, test_ablation_sparsity.py)",
    "bench/report.py": "`make report`",
    "bench/results.py": "run persistence for `make report` and the "
    "benchmark suite (test_results_persistence)",
    "graphs/cleanup.py": "the (2,2)-core prefilter of the ablF table "
    "(benchmarks/test_workmodel_reduction.py)",
    "graphs/ordering.py": "the degree-ordered relabels of the ablE table "
    "(benchmarks/test_ablation_extensions.py)",
    "storage/raw.py": "the raw layout the e2e benchmark builds through "
    "make_storage(graph, plan.layout)",
}

#: Argument lists that between them reach every subcommand and option
#: family (test_every_subcommand_is_invoked); run in this order inside
#: one scratch directory.
INVOCATIONS = [
    ["generate", "g.tsv", "--n-left", "30", "--n-right", "40", "--edges",
     "200", "--seed", "1"],
    ["info", "g.tsv"],
    ["info", "g.tsv", "--json"],
    ["count", "g.tsv"],
    ["count", "g.tsv", "--auto", "--json"],
    ["count", "g.tsv", "--strategy", "spmv"],
    ["count", "g.tsv", "--strategy", "wedge"],
    ["count", "g.tsv", "--workers", "2"],
    ["count", "g.tsv", "--storage", "mmap"],
    ["count", "g.tsv", "--blocked"],
    ["--metrics-out", "m.jsonl", "--trace-out", "t.json", "--profile-out",
     "p.txt", "count", "g.tsv", "--auto"],
    ["stats", "--from-metrics", "m.jsonl"],
    ["profile", "p.txt"],
    ["peel", "g.tsv", "--k", "2", "--auto"],
    ["peel", "g.tsv", "--k", "2", "--mode", "wing"],
    ["decompose", "g.tsv"],
    ["decompose", "g.tsv", "--mode", "wing"],
    ["explain", "g.tsv"],
    ["explain", "g.tsv", "--workload", "tip", "--k", "2"],
    ["explain", "--drift"],
    ["calibrate", "--no-persist", "--repeats", "1"],
    ["algorithms", "--run", "g.tsv"],
    ["stream", "g.tsv", "s.script", "--snapshot-out", "snap"],
    ["stream", "g.tsv", "s.script", "--snapshot-in", "snap", "--json"],
    ["bench", "--dataset", "arxiv"],
    ["analyze", "a.py"],
]

_DRIVER = """
import contextlib, io, json, sys
from repro.cli import main
with open("s.script", "w") as f:
    f.write("+ 0 1\\n+ 1 1\\nflush\\n- 0 1\\n")
with open("a.py", "w") as f:
    f.write("import os\\n\\nos.getcwd()\\n")
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps([codes, sorted(m for m in sys.modules if m.split(".")[0] == "repro")]))
"""

PACKAGE = Path(repro.__file__).parent


def _module_paths() -> list[str]:
    return sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py"))


def _loaded_by_subcommands(tmp_path) -> set[str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=str(PACKAGE.parent),
        REPRO_CALIBRATION=str(tmp_path / "cal.json"),
        REPRO_DRIFT_LEDGER=str(tmp_path / "drift.jsonl"),
    )
    proc = subprocess.run(
        [sys.executable, "-c", _DRIVER, json.dumps(INVOCATIONS)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    codes, modules = json.loads(proc.stdout.strip().splitlines()[-1])
    assert codes == [0] * len(INVOCATIONS), list(zip(codes, INVOCATIONS))
    paths = set()
    for name in modules:
        rel = Path(*name.split(".")[1:])
        paths.add((rel / "__init__.py").as_posix() if (PACKAGE / rel).is_dir()
                  else rel.with_suffix(".py").as_posix())
    return paths


def _covers(key: str, path: str) -> bool:
    return path == key or (key.endswith("/") and path.startswith(key))


def test_every_module_is_reached_or_named(tmp_path):
    loaded = _loaded_by_subcommands(tmp_path)
    orphans = [p for p in _module_paths()
               if p not in loaded and not any(_covers(k, p) for k in ORACLES)]
    assert orphans == [], (
        "loaded by no subcommand and not in ORACLES: delete them, or name "
        f"each in ORACLES with the test or table that needs it: {orphans}"
    )


def test_every_oracle_entry_names_existing_code():
    paths = _module_paths()
    stale = [k for k in ORACLES if not any(_covers(k, p) for p in paths)]
    assert stale == []


def _subcommand(argv: list[str]) -> str:
    """The subcommand ``argv`` runs: its first word after the global
    options, each of which takes one value."""
    i = 0
    while argv[i].startswith("-"):
        i += 2
    return argv[i]


def test_every_subcommand_is_invoked():
    """A subcommand no invocation runs would leave the modules only it
    loads reading as orphans above."""
    from repro.cli import build_parser

    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    invoked = {_subcommand(argv) for argv in INVOCATIONS}
    assert sorted(set(subparsers.choices) - invoked) == []
