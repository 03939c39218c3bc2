"""Whole-program analyzer tests: model, call resolution, RPR009 and
RPR012, relaxed profile.

Per-rule positive/negative/noqa fixtures run through
:func:`analysis.analyze_sources` (in-memory multi-module projects), and
the call-graph resolver is unit-tested on its own.
"""

from __future__ import annotations

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


def callees(m: ProjectModel, fid: str) -> list[str]:
    """Function ids the calls inside ``fid`` resolve to."""
    mod, fn = m.functions[fid]
    resolved = (m.resolve_call(mod, fn, call.callee) for call in fn.calls)
    return [target for target in resolved if target is not None]


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
        assert "repro.a:helper" in callees(m, "repro.a:caller")

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
        assert "repro.a:helper" in callees(m, "repro.b:caller")

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
        assert "repro.a:helper" in callees(m, "repro.b:caller")

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
        assert "repro.a:Thing.two" in callees(m, "repro.a:Thing.one")

    def test_lazy_reexport_table_call(self):
        # a package re-exporting through a PEP 562 ``_LAZY`` table
        # (repro._lazy) resolves like ``from ... import`` re-exports
        m = model_of(
            {
                "repro.pkg": """
                from repro._lazy import lazy_exports

                _LAZY = {"helper": "repro.pkg.impl", "impl": "repro.pkg.impl"}
                __getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())
                """,
                "repro.pkg.impl": """
                def helper():
                    return 1
                """,
                "repro.b": """
                from repro import pkg
                from repro.pkg import helper, impl

                def direct():
                    return helper()

                def through_package():
                    return pkg.helper()

                def through_submodule():
                    return impl.helper()
                """,
            }
        )
        for caller in ("direct", "through_package", "through_submodule"):
            assert callees(m, f"repro.b:{caller}") == ["repro.pkg.impl:helper"]

    def test_non_literal_lazy_table_makes_no_edge(self):
        m = model_of(
            {
                "repro.pkg": """
                _LAZY = dict(helper="repro.pkg.impl")
                """,
                "repro.pkg.impl": """
                def helper():
                    return 1
                """,
                "repro.b": """
                from repro.pkg import helper

                def caller():
                    return helper()
                """,
            }
        )
        assert callees(m, "repro.b:caller") == []

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
        assert callees(m, "repro.a:caller") == []

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

    def test_acquirer_behind_lazy_reexport_flagged(self):
        # the caller imports the acquirer through a package's lazy table
        findings = project(
            {
                "repro.pool": """
                _LAZY = {"acquire": "repro.pool.shm"}
                """,
                "repro.pool.shm": """
                from multiprocessing.shared_memory import SharedMemory

                def acquire(name):
                    shm = SharedMemory(name=name)
                    return shm
                """,
                "repro.user": """
                from repro.pool import acquire

                def drops(name):
                    shm = acquire(name)
                    return bytes(shm.buf[:4])
                """,
            },
            rules=["RPR009"],
        )
        assert [(f.rule, f.path) for f in findings] == [
            ("RPR009", "<memory:repro.user>")
        ]

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
