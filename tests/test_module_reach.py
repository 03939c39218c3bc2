"""Every module of ``src/repro`` is run by a subcommand or is an oracle,
and every public name outside the oracles has a caller.

One fresh interpreter drives every subcommand in-process through
``repro.cli.main`` (about 1 s) and reports the ``repro`` modules it
loaded.  A module that none of them loads must be named in
:data:`ORACLES` with the reason it stays: an independent check an exact
path is compared with, a tool an EXPERIMENTS table is regenerated with,
or a route a benchmark takes that no subcommand does.

Inside the reached modules the same rule holds per name: an AST scan
finds every public function, class and public method of a public class,
and each must be named (``ast.Name``, ``ast.Attribute`` or a
``from ... import`` name) somewhere outside its own ``def`` in
``src/repro``, ``benchmarks/``, ``examples/`` or ``scripts/``, or be a
key of :data:`KEPT` with the reason it stays.  A package ``__init__``'s
``from ... import`` is a re-export, not a caller, and does not count;
nor does a use inside a module that defines a top-level function or
class of the same name, except for that module's own definition (a
script calling its own ``replay`` is no caller of the library's).
Library surface that only its own tests call fails here.
"""

from __future__ import annotations

import argparse
import ast
import functools
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
}

#: Public names (``module::name`` or ``module::Class.method``) outside
#: ORACLES that nothing in ``src/repro``, ``benchmarks/``, ``examples/``
#: or ``scripts/`` names, each with why it stays.
KEPT = {
    "graphs/generators.py::erdos_renyi_bipartite": "test tool: the G(m, n, "
    "p) graphs of the conformance, stream and peel corpora",
    "graphs/io.py::load_edge_list": "the plain edge-list reader kept beside "
    "KONECT (CHANGELOG: \"KONECT and plain edge lists stay\"; test_io)",
    "graphs/io.py::save_edge_list": "the writer of that pair (test_io, "
    "test_loader_fuzz)",
    "core/stream/script.py::format_script": "test tool: renders generated "
    "op lists as script text (test_stream_conformance)",
    "core/stream/counter.py::StreamingButterflyCounter.add_edges": "test "
    "tool: one-sided batches in test_dynamic and the stream properties",
    "core/stream/counter.py::StreamingButterflyCounter.remove_edges": "the "
    "deleting half of that pair (test_dynamic, test_properties_extensions)",
    "core/stream/counter.py::StreamingButterflyCounter.vertex_counts": "the "
    "only read of the maintained per-vertex counts, which the stream "
    "conformance and snapshot tests check against the oracle",
    "obs/__init__.py::capture": "test tool: the hermetic registry and "
    "tracer every obs-reading test records into",
    "obs/__init__.py::disabled": "test tool: pins the no-op path in "
    "test_obs, test_engine and test_peeling_parallel",
    "obs/__init__.py::trace_records": "test tool: reads the spans a "
    "capture() block recorded (test_trace_export, test_engine)",
    "obs/__init__.py::profile_samples": "test tool: reads the live profiler "
    "samples (test_profile)",
    "obs/trace.py::span_tree": "test tool: the parent→children index the "
    "cross-process trace tests walk (test_trace_export, test_executor_faults)",
    "obs/metrics.py::Metrics.histogram": "test tool: reads one histogram "
    "of a captured registry (test_obs, test_drift, test_engine)",
    "obs/sinks.py::MemorySink": "test tool: the in-memory sink double "
    "(test_obs)",
    "sparsela/coo.py::PatternCOO.is_canonical": "test tool: the "
    "canonical-form predicate the ingestion and view tests assert",
    "analysis/engine.py::analyze_source": "test tool: runs the analyzer "
    "rules on one in-memory source (test_analysis)",
    "analysis/engine.py::analyze_sources": "test tool: runs the "
    "whole-program rules on in-memory sources (test_analysis_project)",
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


# ----------------------------------------------------------------------
# every public name has a caller
# ----------------------------------------------------------------------
#: Trees whose code counts as a caller, beside ``src/repro`` itself.
CALLER_ROOTS = ("benchmarks", "examples", "scripts")


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _public_defs(tree: ast.Module):
    """``(qualname, node)`` of every public top-level function and
    class, and of every public method of a public class."""
    for node in tree.body:
        if not isinstance(node, _DEFS) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and not sub.name.startswith("_"):
                    yield f"{node.name}.{sub.name}", sub


class _Uses(ast.NodeVisitor):
    """Every name a tree uses, with the tree's path and the ids of the
    defs around each use."""

    def __init__(
        self, uses: dict[str, list[tuple[Path, frozenset[int]]]], path: Path
    ) -> None:
        self.uses = uses
        self.path = path
        # a package __init__ imports to re-export, which calls nothing
        self.count_imports = path.name != "__init__.py"
        self.stack: list[int] = []

    def _enter(self, node) -> None:
        self.stack.append(id(node))
        self.generic_visit(node)
        self.stack.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _enter

    def _use(self, name: str) -> None:
        self.uses.setdefault(name, []).append((self.path, frozenset(self.stack)))

    def visit_Name(self, node: ast.Name) -> None:
        self._use(node.id)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        self._use(node.attr)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if self.count_imports:
            for alias in node.names:
                self._use(alias.name)


@functools.lru_cache(maxsize=1)
def _uncalled_public_names() -> frozenset[str]:
    """``module::qualname`` of every public name outside ORACLES that no
    code but its own ``def`` names.  A use in a module with a top-level
    def of that name counts for that module's def only."""
    repo = Path(__file__).resolve().parents[1]
    files = list(PACKAGE.rglob("*.py"))
    for root in CALLER_ROOTS:
        files.extend((repo / root).rglob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    uses: dict[str, list[tuple[Path, frozenset[int]]]] = {}
    defines = {}
    for path, tree in trees.items():
        _Uses(uses, path).visit(tree)
        defines[path] = {n.name for n in tree.body if isinstance(n, _DEFS)}
    uncalled = set()
    for path in PACKAGE.rglob("*.py"):
        rel = path.relative_to(PACKAGE).as_posix()
        if any(_covers(k, rel) for k in ORACLES):
            continue
        for qualname, node in _public_defs(trees[path]):
            name = qualname.rpartition(".")[2]
            if not any(
                id(node) not in around
                and (where == path or name not in defines[where])
                for where, around in uses.get(name, ())
            ):
                uncalled.add(f"{rel}::{qualname}")
    return frozenset(uncalled)


def test_every_public_name_has_a_caller():
    orphans = sorted(_uncalled_public_names() - set(KEPT))
    assert orphans == [], (
        "named by no code in src/repro, benchmarks, examples or scripts: "
        "delete them with their tests, or name each in KEPT with why it "
        f"stays: {orphans}"
    )


def test_every_kept_entry_is_an_uncalled_name():
    """A KEPT key that no longer exists, or that a caller now names,
    is stale."""
    stale = sorted(set(KEPT) - _uncalled_public_names())
    assert stale == []
