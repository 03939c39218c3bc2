"""Tests for repro.analysis — the project-native static analyzer.

Per-rule positive/negative/noqa fixtures through :func:`analyze_source`,
the JSON report schema, stale-pragma rejection, and the self-scan: the
repo's own ``src/repro`` tree must be clean under every rule, with the
pragma count pinned so new suppressions are an explicit, reviewed event.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro import analysis

SRC_REPRO = Path(__file__).resolve().parent.parent / "src" / "repro"


def run(source: str, module: str, rules: list[str] | None = None):
    findings, _ = analysis.analyze_source(
        textwrap.dedent(source), path="fixture.py", module=module, rules=rules
    )
    return findings


def rule_ids(findings) -> list[str]:
    return [f.rule for f in findings]


# ----------------------------------------------------------------------
# RPR001 — private imports across package boundaries
# ----------------------------------------------------------------------


class TestPrivateImports:
    def test_private_module_cross_boundary(self):
        src = "from repro.sparsela._compressed import CompressedPattern\n"
        (f,) = run(src, "repro.core.blocked", rules=["RPR001"])
        assert f.rule == "RPR001"
        assert "_compressed" in f.message

    def test_private_module_inside_owner_ok(self):
        src = "from repro.sparsela._compressed import CompressedPattern\n"
        assert run(src, "repro.sparsela.csr", rules=["RPR001"]) == []

    def test_private_symbol_cross_boundary(self):
        src = "from repro.core.family import _resolve_invariant\n"
        (f,) = run(src, "repro.bench.cachesim", rules=["RPR001"])
        assert "_resolve_invariant" in f.message
        assert "repro.core" in f.message

    def test_private_symbol_sibling_module_ok(self):
        # workinfo and family share the repro.core package
        src = "from repro.core.family import _resolve_invariant\n"
        assert run(src, "repro.core.workinfo", rules=["RPR001"]) == []

    def test_private_symbol_from_package_scoped_to_package(self):
        # a private name re-exported *by the package itself* is owned by
        # the package, not its parent
        src = "from repro.sparsela import _secret\n"
        (f,) = run(src, "repro.core.family", rules=["RPR001"])
        assert "'repro.sparsela'" in f.message

    def test_public_import_ok(self):
        src = "from repro.sparsela import CompressedPattern\n"
        assert run(src, "repro.core.blocked", rules=["RPR001"]) == []

    def test_dunder_not_private(self):
        src = "from repro.core.family import __doc__\n"
        assert run(src, "repro.bench.cachesim", rules=["RPR001"]) == []

    def test_relative_import_resolved(self):
        src = "from ._compressed import compress_pairs\n"
        assert run(src, "repro.sparsela.csr", rules=["RPR001"]) == []

    def test_noqa_suppresses(self):
        src = (
            "from repro.core.family import _resolve_invariant"
            "  # repro: noqa[RPR001] bootstrap cycle\n"
        )
        assert run(src, "repro.bench.cachesim", rules=["RPR001"]) == []


# ----------------------------------------------------------------------
# RPR002 — integer reductions without explicit COUNT_DTYPE
# ----------------------------------------------------------------------


class TestUnsafeAccumulation:
    def test_bare_sum_flagged(self):
        src = """
            def f(lengths):
                return int(lengths.sum())
        """
        (f,) = run(src, "repro.sparsela.kernels", rules=["RPR002"])
        assert "dtype=" in f.message

    def test_sum_with_dtype_ok(self):
        src = """
            from repro._types import COUNT_DTYPE

            def f(lengths):
                return int(lengths.sum(dtype=COUNT_DTYPE))
        """
        assert run(src, "repro.sparsela.kernels", rules=["RPR002"]) == []

    def test_cumsum_with_out_ok(self):
        src = """
            import numpy as np
            from repro._types import INDEX_DTYPE

            def f(lengths, n):
                indptr = np.zeros(n + 1, dtype=INDEX_DTYPE)
                np.cumsum(lengths, out=indptr[1:])
                return indptr
        """
        assert run(src, "repro.sparsela.csr", rules=["RPR002"]) == []

    def test_safe_cast_tracked(self):
        src = """
            from repro._types import COUNT_DTYPE

            def f(arr):
                wide = arr.astype(COUNT_DTYPE)
                return wide.sum()
        """
        assert run(src, "repro.core.local_counts", rules=["RPR002"]) == []

    def test_branch_local_cast_tracked(self):
        # flow-insensitive: a cast inside one branch marks the name safe
        src = """
            from repro._types import COUNT_DTYPE

            def f(counts, chosen):
                if chosen == "sort":
                    counts = counts.astype(COUNT_DTYPE)
                return counts.sum()
        """
        assert run(src, "repro.sparsela.kernels", rules=["RPR002"]) == []

    def test_promotion_through_binop(self):
        # int64 * narrower promotes to int64: one wide operand is enough
        src = """
            from repro._types import COUNT_DTYPE

            def f(counts):
                contrib = (counts.astype(COUNT_DTYPE) * (counts - 1)) // 2
                return contrib.sum()
        """
        assert run(src, "repro.core.peeling.tip", rules=["RPR002"]) == []

    def test_reassignment_invalidates(self):
        src = """
            from repro._types import COUNT_DTYPE

            def f(arr, raw):
                x = arr.astype(COUNT_DTYPE)
                x = raw
                return x.sum()
        """
        (f,) = run(src, "repro.core.family", rules=["RPR002"])
        assert f.rule == "RPR002"

    def test_outside_scope_not_flagged(self):
        src = """
            def f(lengths):
                return int(lengths.sum())
        """
        assert run(src, "repro.graphs.bipartite", rules=["RPR002"]) == []

    def test_narrow_dtype_banned(self):
        src = """
            import numpy as np

            def f(n):
                return np.zeros(n, dtype=np.int32)
        """
        (f,) = run(src, "repro.sparsela.kernels", rules=["RPR002"])
        assert "np.int32" in f.message

    def test_noqa_with_justification(self):
        src = (
            "def f(x):\n"
            "    return x.sum()  # repro: noqa[RPR002] float oracle\n"
        )
        assert run(src, "repro.sparsela.linalg", rules=["RPR002"]) == []


# ----------------------------------------------------------------------
# RPR003 — observability hygiene
# ----------------------------------------------------------------------


class TestObsHygiene:
    def test_span_outside_with_flagged(self):
        src = """
            from repro import obs

            def f():
                sp = obs.span("cli.run")
                return sp
        """
        (f,) = run(src, "repro.cli", rules=["RPR003"])
        assert "with" in f.message

    def test_span_in_with_ok(self):
        src = """
            from repro import obs

            def f():
                with obs.span("cli.run"):
                    pass
        """
        assert run(src, "repro.cli", rules=["RPR003"]) == []

    def test_bad_metric_name(self):
        src = """
            from repro import obs

            def f():
                obs.inc("BadName")
        """
        (f,) = run(src, "repro.cli", rules=["RPR003"])
        assert "convention" in f.message

    def test_hot_layer_computed_arg_unguarded(self):
        src = """
            from repro import obs

            def f(endpoints):
                obs.inc("kernels.panel.wedges", int(endpoints.size))
        """
        (f,) = run(src, "repro.sparsela.kernels", rules=["RPR003"])
        assert "_enabled" in f.message

    def test_hot_layer_guarded_ok(self):
        src = """
            from repro import obs

            def f(endpoints):
                if obs._enabled:
                    obs.inc("kernels.panel.wedges", int(endpoints.size))
        """
        assert run(src, "repro.sparsela.kernels", rules=["RPR003"]) == []

    def test_cold_layer_computed_arg_ok(self):
        src = """
            from repro import obs

            def f(tasks):
                obs.inc("cli.tasks", len(tasks))
        """
        assert run(src, "repro.cli", rules=["RPR003"]) == []

    def test_fstring_name_needs_static_prefix(self):
        src = """
            from repro import obs

            def f(chosen):
                if obs._enabled:
                    obs.inc(f"{chosen}.calls")
        """
        (f,) = run(src, "repro.bench.report", rules=["RPR003"])
        assert "static" in f.message


# ----------------------------------------------------------------------
# RPR004 — engine-plan purity
# ----------------------------------------------------------------------


class TestEnginePurity:
    def test_plan_mutation_flagged(self):
        src = """
            def f(plan):
                plan.invariant = 3
        """
        (f,) = run(src, "repro.core.family", rules=["RPR004"])
        assert "frozen" in f.message

    def test_setattr_escape_hatch_flagged(self):
        src = """
            def f(plan):
                object.__setattr__(plan, "invariant", 3)
        """
        (f,) = run(src, "repro.parallel.executor", rules=["RPR004"])
        assert "replace" in f.message

    def test_inline_side_selection_flagged(self):
        src = """
            def f(graph):
                return 2 if graph.n_right <= graph.n_left else 6
        """
        (f,) = run(src, "repro.core.family", rules=["RPR004"])
        assert "select_count_invariant" in f.message

    def test_engine_itself_exempt(self):
        src = """
            def f(graph):
                return 2 if graph.n_right <= graph.n_left else 6
        """
        assert run(src, "repro.engine.planner", rules=["RPR004"]) == []

    def test_graph_utilities_exempt(self):
        # side comparisons in repro.graphs are algorithm semantics
        src = """
            def f(graph):
                return graph.n_left <= graph.n_right
        """
        assert run(src, "repro.graphs.bipartite", rules=["RPR004"]) == []


# ----------------------------------------------------------------------
# RPR006 — exception discipline
# ----------------------------------------------------------------------


class TestExceptionDiscipline:
    def test_bare_except(self):
        src = """
            def f():
                try:
                    g()
                except:
                    pass
        """
        ids = rule_ids(run(src, "repro.cli", rules=["RPR006"]))
        assert "RPR006" in ids

    def test_broad_except_without_reraise(self):
        src = """
            def f():
                try:
                    g()
                except Exception:
                    log()
        """
        (f,) = run(src, "repro.cli", rules=["RPR006"])
        assert "Exception" in f.message

    def test_broad_except_with_reraise_ok(self):
        src = """
            def f():
                try:
                    g()
                except BaseException:
                    cleanup()
                    raise
        """
        assert run(src, "repro.parallel.shm", rules=["RPR006"]) == []

    def test_swallowed_oserror(self):
        src = """
            def f(shm):
                try:
                    shm.close()
                except OSError:
                    pass
        """
        (f,) = run(src, "repro.parallel.shm", rules=["RPR006"])
        assert "swallowed OSError" in f.message

    def test_handled_oserror_ok(self):
        src = """
            def f(shm):
                try:
                    shm.close()
                except OSError as exc:
                    record(exc)
        """
        assert run(src, "repro.parallel.shm", rules=["RPR006"]) == []

    def test_noqa_composes_with_pragma_comment(self):
        src = (
            "def f(shm):\n"
            "    try:\n"
            "        shm.close()\n"
            "    except OSError:  # pragma: no cover; repro: noqa[RPR006] teardown\n"
            "        pass\n"
        )
        findings, supp = analysis.analyze_source(
            src, path="fixture.py", module="repro.parallel.shm", rules=["RPR006"]
        )
        assert findings == []
        assert supp.used == 1


# ----------------------------------------------------------------------
# RPR013 — unused imports
# ----------------------------------------------------------------------


class TestUnusedImports:
    def test_unused_import_flagged(self):
        src = "import os\nfrom numpy import zeros, ones\n\nzeros(3)\n"
        findings = run(src, "repro.core.fixture", rules=["RPR013"])
        assert [(f.rule, f.line) for f in findings] == [("RPR013", 1), ("RPR013", 2)]
        assert "'os'" in findings[0].message and "'ones'" in findings[1].message

    def test_dotted_import_binds_its_root(self):
        src = "import os.path\nimport numpy as np\n\nos.getcwd()\nnp.zeros(1)\n"
        assert run(src, "repro.core.fixture", rules=["RPR013"]) == []

    def test_package_init_reexports_exempt(self):
        findings, _ = analysis.analyze_source(
            "from repro.core.family import count_butterflies\n",
            path="pkg/__init__.py", module="repro.pkg", rules=["RPR013"],
        )
        assert findings == []

    def test_names_in_all_exempt(self):
        src = ('from repro.core.family import count_butterflies\n'
               '__all__ = ["count_butterflies"]\n')
        assert run(src, "repro.core.fixture", rules=["RPR013"]) == []

    def test_future_import_exempt(self):
        src = "from __future__ import annotations\n"
        assert run(src, "repro.core.fixture", rules=["RPR013"]) == []

    def test_quoted_annotation_counts_as_use(self):
        src = ("from repro.analysis.model import ProjectModel\n\n"
               "def f(model: \"ProjectModel\") -> None:\n    return None\n")
        assert run(src, "repro.core.fixture", rules=["RPR013"]) == []

    def test_import_inside_a_function_not_checked(self):
        src = "def f():\n    import os\n"
        assert run(src, "repro.core.fixture", rules=["RPR013"]) == []

    def test_noqa_suppresses(self):
        findings, supp = analysis.analyze_source(
            "import os  # repro: noqa[RPR013] imported for its side effect\n",
            path="fixture.py", module="repro.core.fixture", rules=["RPR013"],
        )
        assert findings == [] and supp.used == 1


# ----------------------------------------------------------------------
# engine plumbing: rule selection, reports, pragmas, JSON schema
# ----------------------------------------------------------------------


def test_resolve_rules_unknown_id():
    with pytest.raises(ValueError, match="RPR999"):
        analysis.resolve_rules(["RPR999"])


def test_resolve_rules_case_insensitive():
    (rule,) = analysis.resolve_rules(["rpr001"])
    assert rule.id == "RPR001"


def test_all_rule_ids_catalogued():
    assert analysis.ALL_RULE_IDS == (
        "RPR001",
        "RPR002",
        "RPR003",
        "RPR004",
        "RPR006",
        "RPR009",
        "RPR012",
        "RPR013",
    )


def test_finding_rejects_bad_severity():
    with pytest.raises(ValueError, match="severity"):
        analysis.Finding(
            rule="RPR001", path="x.py", line=1, col=0, message="m", severity="fatal"
        )


@pytest.fixture()
def dirty_tree(tmp_path: Path) -> Path:
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (tmp_path / "repro" / "__init__.py").write_text("")
    (pkg / "__init__.py").write_text("")
    (pkg / "bad.py").write_text(
        "from repro.sparsela._compressed import CompressedPattern\n"
        "\n"
        "def f(lengths):\n"
        "    return int(lengths.sum())\n"
    )
    return tmp_path


def test_analyze_paths_report(dirty_tree: Path):
    report = analysis.analyze_paths([str(dirty_tree)])
    assert report.exit_code == 1
    assert report.files == 3
    # the private import is never used, too
    assert report.counts_by_rule() == {"RPR001": 1, "RPR002": 1, "RPR013": 1}
    assert all(f.line >= 1 for f in report.findings)


def test_json_schema(dirty_tree: Path):
    report = analysis.analyze_paths([str(dirty_tree)])
    payload = json.loads(analysis.render_json(report))
    assert payload["schema"] == analysis.JSON_SCHEMA_ID
    assert set(payload) == {
        "schema",
        "generated",
        "files",
        "rules",
        "elapsed_ms",
        "exit_code",
        "counts",
        "findings",
        "parse_errors",
    }
    assert payload["counts"]["total"] == len(payload["findings"])
    for f in payload["findings"]:
        assert set(f) == {"rule", "path", "line", "col", "severity", "message"}


#: Assembled at run time: a literal stale pragma in this file would be
#: parsed by the repo scan (pragmas are matched on physical lines).
_STALE_ID = "RPR0" + "99"


def test_stale_pragma_is_a_finding():
    """A pragma naming an unknown rule id suppresses nothing: report it."""
    src = f"x = 1  # repro: noqa[RPR001,{_STALE_ID}] rule since deleted\n"
    findings, _ = analysis.analyze_source(
        src, path="fixture.py", module="repro.core.m"
    )
    (f,) = findings
    assert (f.rule, f.line) == ("RPR000", 1)
    assert _STALE_ID in f.message
    assert "RPR001" not in f.message  # known ids in the same pragma are fine


def test_stale_pragma_fails_the_gate(tmp_path: Path):
    (tmp_path / "mod.py").write_text(f"x = 1  # repro: noqa[{_STALE_ID}]\n")
    report = analysis.analyze_paths([str(tmp_path)], rules=["RPR001"])
    assert report.counts_by_rule() == {"RPR000": 1}
    assert report.exit_code == 1


def test_parse_error_reported(tmp_path: Path):
    """A file the gate could not parse is exit 2, rendered apart."""
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n")
    report = analysis.analyze_paths([str(bad)])
    assert report.findings == []
    assert len(report.parse_errors) == 1
    assert report.exit_code == 2
    rendered = analysis.render_text(report)
    assert "parse-error:" in rendered
    assert "ERROR:" in rendered
    assert "FAIL" not in rendered


def test_parse_error_outranks_findings(dirty_tree: Path, tmp_path: Path):
    (dirty_tree / "repro" / "core" / "broken.py").write_text("def f(:\n")
    report = analysis.analyze_paths([str(dirty_tree)])
    assert report.findings  # the parseable files still produced findings
    assert report.exit_code == 2


def test_render_text_ok_and_fail(dirty_tree: Path):
    dirty = analysis.analyze_paths([str(dirty_tree)])
    assert "FAIL" in analysis.render_text(dirty)
    clean = analysis.analyze_paths([str(dirty_tree)], rules=["RPR006"])
    assert "OK" in analysis.render_text(clean)


# ----------------------------------------------------------------------
# the self-scan: this repo holds itself to its own rules
# ----------------------------------------------------------------------


def test_self_scan_clean():
    report = analysis.analyze_paths([str(SRC_REPRO)])
    rendered = analysis.render_text(report)
    assert report.findings == [], f"analyzer findings on src/repro:\n{rendered}"
    assert report.parse_errors == []
    assert report.exit_code == 0


def test_self_scan_pragma_count_pinned():
    """Every ``# repro: noqa`` in the tree is an explicit, reviewed event.

    The six sanctioned sites, also listed in docs/analysis.md: RPR006
    best-effort cleanup at parallel/executor.py (evicted-segment close)
    and parallel/shm.py (close on teardown, close before unlink, racing
    unlink), and RPR002 float-or-int oracles at sparsela/linalg.py (two).
    Adding one means updating this number *and* that list in the same
    change.
    """
    report = analysis.analyze_paths([str(SRC_REPRO)])
    assert report.suppressed == 6


def test_repo_scan_clean_with_relaxed_roots():
    """tests/ and scripts/ are in scope (relaxed profile) and clean.

    The three extra suppressions over the src/repro pin are the RPR001
    white-box imports in tests/test_kernels.py, tests/test_storage.py
    and tests/test_types.py (docs/analysis.md).
    """
    repo = SRC_REPRO.parent.parent
    roots = [str(SRC_REPRO)] + [
        str(repo / d) for d in ("tests", "scripts") if (repo / d).is_dir()
    ]
    report = analysis.analyze_paths(roots)
    rendered = analysis.render_text(report)
    assert report.findings == [], f"analyzer findings:\n{rendered}"
    assert report.parse_errors == []
    assert report.suppressed == 9


# ----------------------------------------------------------------------
# RPR003 — reserved ``profile.`` layer (Obs v3)
# ----------------------------------------------------------------------


class TestObsProfileLayerReserved:
    def test_profile_metric_name_flagged_outside_obs(self):
        src = """
            from repro import obs

            def f():
                obs.inc("profile.samples")
        """
        (f,) = run(src, "repro.cli", rules=["RPR003"])
        assert "reserved" in f.message
        assert "profile" in f.message

    def test_profile_span_name_flagged(self):
        src = """
            from repro import obs

            def f():
                with obs.span("profile.collect"):
                    pass
        """
        (f,) = run(src, "repro.bench.report", rules=["RPR003"])
        assert "reserved" in f.message

    def test_profile_fstring_prefix_flagged(self):
        src = """
            from repro import obs

            def f(kind):
                if obs._enabled:
                    obs.inc(f"profile.{kind}.count")
        """
        (f,) = run(src, "repro.cli", rules=["RPR003"])
        assert "reserved" in f.message

    def test_profile_inside_repro_obs_exempt(self):
        src = """
            from repro import obs

            def f():
                obs.inc("profile.samples")
        """
        assert run(src, "repro.obs.profile", rules=["RPR003"]) == []

    def test_profiler_like_names_in_other_layers_ok(self):
        src = """
            from repro import obs

            def f():
                obs.inc("bench.profiler.samples")
        """
        assert run(src, "repro.bench.report", rules=["RPR003"]) == []
