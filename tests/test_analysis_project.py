"""Whole-program analyzer tests: model, call graph, RPR009–RPR012,
relaxed profile, SARIF.

Per-rule positive/negative/noqa fixtures run through
:func:`analysis.analyze_sources` (in-memory multi-module projects), and
the call-graph resolver is unit-tested on its own.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro import analysis
from repro.analysis.model import ProjectModel, extract_module_facts


def project(sources: dict[str, str], rules=None, api_doc=None):
    findings, _ = analysis.analyze_sources(
        {m: textwrap.dedent(s) for m, s in sources.items()},
        rules=rules,
        api_doc=api_doc,
    )
    return findings


def rule_ids(findings) -> list[str]:
    return [f.rule for f in findings]


def model_of(sources: dict[str, str]) -> ProjectModel:
    import ast

    facts = []
    for module, source in sources.items():
        tree = ast.parse(textwrap.dedent(source))
        is_pkg = any(
            other.startswith(module + ".") for other in sources if other != module
        )
        facts.append(
            extract_module_facts(
                tree,
                path=f"<memory:{module}>",
                module=module,
                is_package=is_pkg,
            )
        )
    return ProjectModel(facts)


# ----------------------------------------------------------------------
# the call-graph resolver
# ----------------------------------------------------------------------


class TestCallGraph:
    def test_direct_same_module_call(self):
        m = model_of(
            {
                "repro.a": """
                def helper():
                    return 1

                def caller():
                    return helper()
                """
            }
        )
        assert "repro.a:helper" in m.edges["repro.a:caller"]

    def test_aliased_import_call(self):
        m = model_of(
            {
                "repro.a": """
                def helper():
                    return 1
                """,
                "repro.b": """
                from repro import a as alias

                def caller():
                    return alias.helper()
                """,
            }
        )
        assert "repro.a:helper" in m.edges["repro.b:caller"]

    def test_from_import_function_call(self):
        m = model_of(
            {
                "repro.a": """
                def helper():
                    return 1
                """,
                "repro.b": """
                from repro.a import helper

                def caller():
                    return helper()
                """,
            }
        )
        assert "repro.a:helper" in m.edges["repro.b:caller"]

    def test_self_method_call(self):
        m = model_of(
            {
                "repro.a": """
                class Thing:
                    def one(self):
                        return self.two()

                    def two(self):
                        return 2
                """
            }
        )
        assert "repro.a:Thing.two" in m.edges["repro.a:Thing.one"]

    def test_unresolvable_dynamic_call_makes_no_edge(self):
        m = model_of(
            {
                "repro.a": """
                def caller(fn, registry):
                    fn()
                    registry["key"]()
                    return getattr(registry, "dyn")()
                """
            }
        )
        assert m.edges["repro.a:caller"] == []

    def test_reachable_is_transitive(self):
        m = model_of(
            {
                "repro.a": """
                def c():
                    return 3

                def b():
                    return c()

                def a():
                    return b()
                """
            }
        )
        assert m.reachable(["repro.a:a"]) == {
            "repro.a:a",
            "repro.a:b",
            "repro.a:c",
        }

    def test_dispatch_roots_direct_and_indirect(self):
        m = model_of(
            {
                "repro.a": """
                def _task(x):
                    return x

                def _other(x):
                    return x

                class Ex:
                    def _map(self, fn, tasks):
                        return self.pool.map(fn, tasks)

                    def run(self, tasks):
                        return self._map(_other, tasks)

                def direct(pool, items):
                    return pool.map(_task, items)
                """
            }
        )
        roots = m.dispatch_roots()
        assert "repro.a:_task" in roots  # direct pool.map(_task, ...)
        assert "repro.a:_other" in roots  # via the _map dispatcher param


# ----------------------------------------------------------------------
# RPR009 — resource lifecycle
# ----------------------------------------------------------------------


class TestResourceLifecycle:
    def test_leak_flagged(self):
        findings = project(
            {
                "repro.m": """
                from multiprocessing.shared_memory import SharedMemory

                def leaky(name):
                    shm = SharedMemory(name=name)
                    return bytes(shm.buf[:4])
                """
            },
            rules=["RPR009"],
        )
        assert rule_ids(findings) == ["RPR009"]
        assert "release" in findings[0].message

    @pytest.mark.parametrize(
        "acquire, kind",
        [
            ("np.load(path, mmap_mode='r')", "mmap-handle"),
            ("open(path)", "file-handle"),
        ],
    )
    def test_mmap_and_file_leaks_flagged(self, acquire, kind):
        findings = project(
            {
                "repro.m": f"""
                import numpy as np

                def leaky(path):
                    handle = {acquire}
                    return handle.size
                """
            },
            rules=["RPR009"],
        )
        assert rule_ids(findings) == ["RPR009"]
        assert findings[0].message.startswith(kind)

    def test_straight_line_close_still_flagged(self):
        # path-insensitive: a close() not in a finally leaks on error paths
        findings = project(
            {
                "repro.m": """
                from multiprocessing.shared_memory import SharedMemory

                def risky(name):
                    shm = SharedMemory(name=name)
                    data = bytes(shm.buf[:4])
                    shm.close()
                    return data
                """
            },
            rules=["RPR009"],
        )
        assert rule_ids(findings) == ["RPR009"]

    def test_with_block_ok(self):
        findings = project(
            {
                "repro.m": """
                def ok(path):
                    with open(path) as fh:
                        return fh.read()
                """
            },
            rules=["RPR009"],
        )
        assert findings == []

    def test_try_finally_ok(self):
        findings = project(
            {
                "repro.m": """
                from multiprocessing.shared_memory import SharedMemory

                def ok(name):
                    shm = SharedMemory(name=name)
                    try:
                        return bytes(shm.buf[:4])
                    finally:
                        shm.close()
                """
            },
            rules=["RPR009"],
        )
        assert findings == []

    def test_registered_finalizer_ok(self):
        findings = project(
            {
                "repro.m": """
                import weakref
                from multiprocessing.shared_memory import SharedMemory

                class Holder:
                    def __init__(self, name):
                        self.shm = SharedMemory(name=name)
                        weakref.finalize(self, self.shm.close)
                """
            },
            rules=["RPR009"],
        )
        assert findings == []

    def test_returned_resource_transfers_obligation_to_caller(self):
        # the acquirer is clean (ownership transferred); the caller that
        # drops the handle is the finding
        findings = project(
            {
                "repro.m": """
                from multiprocessing.shared_memory import SharedMemory

                def acquire(name):
                    shm = SharedMemory(name=name)
                    return shm

                def drops(name):
                    shm = acquire(name)
                    return bytes(shm.buf[:4])

                def holds(name):
                    shm = acquire(name)
                    try:
                        return bytes(shm.buf[:4])
                    finally:
                        shm.close()
                """
            },
            rules=["RPR009"],
        )
        assert len(findings) == 1
        assert findings[0].rule == "RPR009"

    def test_noqa_suppresses(self):
        findings, suppressed = analysis.analyze_sources(
            {
                "repro.m": textwrap.dedent(
                    """
                    from multiprocessing.shared_memory import SharedMemory

                    def leaky(name):
                        shm = SharedMemory(name=name)  # repro: noqa[RPR009] attach cache owns it
                        return bytes(shm.buf[:4])
                    """
                )
            },
            rules=["RPR009"],
        )
        assert findings == []
        assert suppressed == 1


# ----------------------------------------------------------------------
# RPR010 — worker-boundary purity
# ----------------------------------------------------------------------

_DISPATCH_PRELUDE = """
def _dispatch(pool, items):
    return pool.map(_task, items)
"""


class TestWorkerPurity:
    def test_global_write_in_worker_flagged(self):
        findings = project(
            {
                "repro.m": textwrap.dedent(
                    """
                    _CACHE = {}

                    def _task(item):
                        _CACHE[item] = 1
                        return item
                    """
                )
                + _DISPATCH_PRELUDE
            },
            rules=["RPR010"],
        )
        assert rule_ids(findings) == ["RPR010"]

    def test_global_rebind_in_worker_flagged(self):
        findings = project(
            {
                "repro.m": textwrap.dedent(
                    """
                    _STATE = None

                    def _task(item):
                        global _STATE
                        _STATE = item
                        return item
                    """
                )
                + _DISPATCH_PRELUDE
            },
            rules=["RPR010"],
        )
        assert rule_ids(findings) == ["RPR010"]

    def test_reachable_callee_is_checked_too(self):
        findings = project(
            {
                "repro.m": textwrap.dedent(
                    """
                    _CACHE = {}

                    def _helper(item):
                        _CACHE[item] = 1

                    def _task(item):
                        _helper(item)
                        return item
                    """
                )
                + _DISPATCH_PRELUDE
            },
            rules=["RPR010"],
        )
        assert rule_ids(findings) == ["RPR010"]

    def test_obs_switch_call_in_worker_flagged(self):
        findings = project(
            {
                "repro.m": textwrap.dedent(
                    """
                    from repro import obs

                    def _task(item):
                        obs.reset()
                        return item
                    """
                )
                + _DISPATCH_PRELUDE
            },
            rules=["RPR010"],
        )
        assert rule_ids(findings) == ["RPR010"]

    def test_obs_metric_recording_in_worker_ok(self):
        # obs.inc in a worker writes the worker's own registry, which is
        # merged back through worker_delta() — the sanctioned delta path
        findings = project(
            {
                "repro.m": textwrap.dedent(
                    """
                    from repro import obs

                    def _task(item):
                        obs.inc("worker.items")
                        return item
                    """
                )
                + _DISPATCH_PRELUDE
            },
            rules=["RPR010"],
        )
        assert findings == []

    def test_local_mutation_ok(self):
        findings = project(
            {
                "repro.m": textwrap.dedent(
                    """
                    def _task(item):
                        local = {}
                        local[item] = 1
                        return local
                    """
                )
                + _DISPATCH_PRELUDE
            },
            rules=["RPR010"],
        )
        assert findings == []

    def test_unreachable_function_not_flagged(self):
        # same impure body, but never handed to a pool -> out of scope
        findings = project(
            {
                "repro.m": """
                _CACHE = {}

                def not_a_worker(item):
                    _CACHE[item] = 1
                    return item
                """
            },
            rules=["RPR010"],
        )
        assert findings == []

    def test_noqa_suppresses(self):
        findings, suppressed = analysis.analyze_sources(
            {
                "repro.m": textwrap.dedent(
                    """
                    _CACHE = {}

                    def _task(item):
                        _CACHE[item] = 1  # repro: noqa[RPR010] worker-local by design
                        return item

                    def _dispatch(pool, items):
                        return pool.map(_task, items)
                    """
                )
            },
            rules=["RPR010"],
        )
        assert findings == []
        assert suppressed == 1


# ----------------------------------------------------------------------
# RPR011 — interprocedural dtype propagation
# ----------------------------------------------------------------------


class TestInterprocDtype:
    def test_reduction_over_narrow_helper_flagged(self):
        findings = project(
            {
                "repro.a": """
                import numpy as np

                def small(n):
                    return np.zeros(n, dtype=np.int32)
                """,
                "repro.b": """
                from repro import a

                def total(n):
                    return int(a.small(n).sum())
                """,
            },
            rules=["RPR011"],
        )
        assert rule_ids(findings) == ["RPR011"]
        assert findings[0].path == "<memory:repro.b>"

    def test_wide_helper_ok(self):
        findings = project(
            {
                "repro.a": """
                import numpy as np

                def wide(n):
                    return np.zeros(n, dtype=np.int64)
                """,
                "repro.b": """
                from repro import a

                def total(n):
                    return int(a.wide(n).sum())
                """,
            },
            rules=["RPR011"],
        )
        assert findings == []

    def test_narrowness_propagates_through_wrappers(self):
        findings = project(
            {
                "repro.a": """
                import numpy as np

                def small(n):
                    return np.zeros(n, dtype=np.int32)

                def wrapper(n):
                    return small(n)
                """,
                "repro.b": """
                from repro import a

                def total(n):
                    return int(a.wrapper(n).sum())
                """,
            },
            rules=["RPR011"],
        )
        assert rule_ids(findings) == ["RPR011"]

    def test_unknown_return_not_flagged(self):
        # conservative: no proof of narrowness -> no finding
        findings = project(
            {
                "repro.a": """
                def opaque(x):
                    return x
                """,
                "repro.b": """
                from repro import a

                def total(x):
                    return int(a.opaque(x).sum())
                """,
            },
            rules=["RPR011"],
        )
        assert findings == []

    def test_noqa_suppresses(self):
        findings, suppressed = analysis.analyze_sources(
            {
                "repro.a": textwrap.dedent(
                    """
                    import numpy as np

                    def small(n):
                        return np.zeros(n, dtype=np.int32)
                    """
                ),
                "repro.b": textwrap.dedent(
                    """
                    from repro import a

                    def total(n):
                        return int(a.small(n).sum())  # repro: noqa[RPR011] bounded by construction
                    """
                ),
            },
            rules=["RPR011"],
        )
        assert findings == []
        assert suppressed == 1


# ----------------------------------------------------------------------
# RPR012 — API surface drift
# ----------------------------------------------------------------------

_DOC_WITH_WIDGET = """\
# API reference

## repro.pkg

`widget` does things.
"""


class TestApiSurfaceDrift:
    def test_undocumented_export_flagged(self):
        findings = project(
            {
                "repro.pkg": """
                __all__ = ["widget", "gadget"]

                def widget():
                    return 1

                def gadget():
                    return 2
                """,
                "repro.pkg.impl": "x = 1\n",
            },
            rules=["RPR012"],
            api_doc=_DOC_WITH_WIDGET,
        )
        assert rule_ids(findings) == ["RPR012"]
        assert "gadget" in findings[0].message

    def test_documented_exports_ok(self):
        findings = project(
            {
                "repro.pkg": """
                __all__ = ["widget"]

                def widget():
                    return 1
                """,
                "repro.pkg.impl": "x = 1\n",
            },
            rules=["RPR012"],
            api_doc=_DOC_WITH_WIDGET,
        )
        assert findings == []

    def test_ghost_doc_header_flagged(self):
        doc = _DOC_WITH_WIDGET + "\n## repro.vanished\n\ngone.\n"
        findings = project(
            {
                "repro": "",
                "repro.pkg": """
                __all__ = ["widget"]

                def widget():
                    return 1
                """,
                "repro.pkg.impl": "x = 1\n",
            },
            rules=["RPR012"],
            api_doc=doc,
        )
        assert rule_ids(findings) == ["RPR012"]
        assert "repro.vanished" in findings[0].message

    def test_noqa_suppresses_drift(self):
        findings, suppressed = analysis.analyze_sources(
            {
                "repro.pkg": (
                    '__all__ = ["widget", "gadget"]'
                    "  # repro: noqa[RPR012] staging exports\n"
                    "\n"
                    "def widget():\n"
                    "    return 1\n"
                    "\n"
                    "def gadget():\n"
                    "    return 2\n"
                ),
                "repro.pkg.impl": "x = 1\n",
            },
            rules=["RPR012"],
            api_doc=_DOC_WITH_WIDGET,
        )
        assert findings == []
        assert suppressed == 1

    def test_no_doc_no_findings(self):
        findings = project(
            {
                "repro.pkg": """
                __all__ = ["widget"]

                def widget():
                    return 1
                """,
                "repro.pkg.impl": "x = 1\n",
            },
            rules=["RPR012"],
            api_doc=None,
        )
        assert findings == []


# ----------------------------------------------------------------------
# the relaxed profile for tests/ and scripts/
# ----------------------------------------------------------------------


class TestRelaxedProfile:
    def test_excluded_ids_pinned(self):
        assert analysis.RELAXED_PROFILE_EXCLUDES == frozenset(
            {"RPR003", "RPR006"}
        )

    def test_rpr006_off_under_tests_dir(self, tmp_path: Path):
        src = (
            "def f():\n"
            "    try:\n"
            "        risky()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        strict = tmp_path / "pkg" / "mod.py"
        strict.parent.mkdir()
        strict.write_text(src)
        relaxed = tmp_path / "tests" / "test_mod.py"
        relaxed.parent.mkdir()
        relaxed.write_text(src)
        strict_report = analysis.analyze_paths([str(strict)])
        relaxed_report = analysis.analyze_paths([str(relaxed)])
        assert "RPR006" in [f.rule for f in strict_report.findings]
        assert relaxed_report.findings == []


# ----------------------------------------------------------------------
# SARIF export
# ----------------------------------------------------------------------


@pytest.fixture()
def small_tree(tmp_path: Path):
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "mod.py").write_text(
        "from repro.sparsela._compressed import CompressedPattern\n"
    )
    return tmp_path


class TestSarif:
    def test_round_trip(self, small_tree):
        report = analysis.analyze_paths([str(small_tree)])
        assert report.findings  # fixture must exercise a real finding
        payload = json.loads(analysis.render_sarif(report))
        assert payload["version"] == analysis.SARIF_VERSION
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analyze"
        rule_ids_in_driver = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert list(analysis.ALL_RULE_IDS) == rule_ids_in_driver
        back = analysis.findings_from_sarif(payload)
        assert [f.to_dict() for f in back] == [
            f.to_dict() for f in report.findings
        ]

    def test_parse_errors_become_notifications(self, tmp_path: Path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = analysis.analyze_paths([str(bad)])
        payload = analysis.sarif_payload(report)
        notes = payload["runs"][0]["invocations"][0][
            "toolExecutionNotifications"
        ]
        assert len(notes) == 1
        assert notes[0]["level"] == "error"

    def test_columns_are_one_based(self, small_tree):
        report = analysis.analyze_paths([str(small_tree)])
        payload = analysis.sarif_payload(report)
        for result in payload["runs"][0]["results"]:
            region = result["locations"][0]["physicalLocation"]["region"]
            assert region["startColumn"] >= 1
