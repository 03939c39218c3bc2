"""File discovery, parsing, two-pass rule dispatch.

The engine is deliberately stdlib-only (``ast`` + ``os``): the analyzer
must run in the leanest CI container (``make lint``) without dragging
optional dependencies in.

A scan is two passes, both in-process.  **Pass 1** is one loop over the
files: read and parse each file exactly once, build its
:class:`ModuleContext` (source text, parsed tree, dotted module name,
suppression table), run the per-file rules over it, and keep its
:class:`~repro.analysis.model.ModuleFacts` slice of the project model.
**Pass 2** assembles the facts into a
:class:`~repro.analysis.model.ProjectModel` and runs the interprocedural
rules (RPR009, RPR012) over the whole program.  A cold scan of
``src/repro tests scripts`` takes about 1.5 s on a 2-vCPU host, so there
is no result cache and no worker pool.

Scan profiles: files under a ``tests``/``scripts`` directory get the
*relaxed* profile (RPR003 and RPR006 off — test code legitimately
spot-checks spans and catches broad exceptions); everything else gets
the full profile.

Exit codes: ``0`` clean, ``1`` findings, ``2`` parse errors (a file the
analyzer could not read is a broken gate, not a finding).
"""

from __future__ import annotations

import ast
import os
import time
from dataclasses import dataclass, field

from repro.analysis.findings import Finding, Suppressions, parse_suppressions
from repro.analysis.model import ModuleFacts, ProjectModel, extract_module_facts

__all__ = [
    "ModuleContext",
    "Report",
    "analyze_paths",
    "analyze_source",
    "analyze_sources",
    "iter_python_files",
    "module_name_for",
    "RELAXED_PROFILE_EXCLUDES",
]

#: Rules switched off for files under ``tests/`` or ``scripts/``.
RELAXED_PROFILE_EXCLUDES: frozenset[str] = frozenset({"RPR003", "RPR006"})

#: Rule id of the engine's own finding: a pragma naming no known rule.
STALE_PRAGMA_RULE = "RPR000"


@dataclass
class ModuleContext:
    """Everything a per-file rule needs to know about one source file."""

    path: str  #: path reported in findings (repo-relative when possible)
    module: str  #: dotted module name, e.g. ``"repro.core.family"``
    source: str
    tree: ast.Module
    suppressions: Suppressions
    #: dotted names of scanned packages (directories with ``__init__.py``);
    #: lets RPR001 distinguish ``from pkg import _submodule`` from
    #: ``from module import _symbol`` precisely.
    known_packages: frozenset[str] = frozenset()

    @property
    def is_package(self) -> bool:
        return os.path.basename(self.path) == "__init__.py"

    def in_package(self, *prefixes: str) -> bool:
        """True when the module lives under any of the dotted prefixes."""
        return any(
            self.module == p or self.module.startswith(p + ".") for p in prefixes
        )


@dataclass
class Report:
    """Result of one analyzer run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: int = 0  #: findings absorbed by ``# repro: noqa`` pragmas
    files: int = 0
    rules: tuple[str, ...] = ()
    elapsed_ms: float = 0.0
    parse_errors: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """``2`` on parse errors, ``1`` on findings, ``0`` clean.

        A file the analyzer cannot parse means the gate did not actually
        run over it — that is an infrastructure failure, distinct from
        "the gate ran and objected" (exit 1).
        """
        if self.parse_errors:
            return 2
        return 1 if self.findings else 0

    def counts_by_rule(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.rule] = out.get(f.rule, 0) + 1
        return out


def iter_python_files(paths: list[str]) -> list[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                out.append(path)
        elif os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames if d != "__pycache__" and not d.startswith(".")
                )
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        out.append(os.path.join(dirpath, name))
        else:
            raise FileNotFoundError(f"no such file or directory: {path!r}")
    # de-duplicate while preserving order
    seen: set[str] = set()
    unique = []
    for p in out:
        key = os.path.abspath(p)
        if key not in seen:
            seen.add(key)
            unique.append(p)
    return unique


def module_name_for(path: str) -> str:
    """Dotted module name for a file path, anchored at the ``repro`` root.

    ``src/repro/core/family.py`` → ``repro.core.family``;
    ``src/repro/sparsela/__init__.py`` → ``repro.sparsela``.  Files outside
    a ``repro`` tree (test fixtures, ``tests/``, ``scripts/``) fall back to
    their stem.
    """
    parts = os.path.normpath(os.path.abspath(path)).split(os.sep)
    name = parts[-1]
    stem = name[:-3] if name.endswith(".py") else name
    try:
        # anchor at the *last* 'repro' directory component (handles
        # repo checkouts that are themselves named 'repro')
        idx = len(parts) - 1 - parts[-2::-1].index("repro") - 1
    except ValueError:
        return stem
    dotted = parts[idx:-1] + ([] if stem == "__init__" else [stem])
    return ".".join(dotted)


def known_packages_for(files: list[str]) -> frozenset[str]:
    """Dotted names of every package (``__init__.py``) among ``files``."""
    return frozenset(
        module_name_for(f) for f in files if os.path.basename(f) == "__init__.py"
    )


def _display_path(path: str) -> str:
    rel = os.path.relpath(path)
    return path if rel.startswith("..") else rel


def profile_excludes_for(path: str) -> frozenset[str]:
    """Rule ids disabled for ``path`` (the relaxed tests/scripts profile)."""
    parts = os.path.normpath(path).split(os.sep)
    if "tests" in parts or "scripts" in parts:
        return RELAXED_PROFILE_EXCLUDES
    return frozenset()


def _split_rules(selected) -> tuple[list, list]:
    """(per-file rules, project rules) from a resolved rule tuple."""
    from repro.analysis.rules import ProjectRule

    file_rules = [r for r in selected if not isinstance(r, ProjectRule)]
    project_rules = [r for r in selected if isinstance(r, ProjectRule)]
    return file_rules, project_rules


def _scan_module(
    source: str,
    display: str,
    module: str,
    file_rules: list,
    known_packages: frozenset[str],
    *,
    is_package: bool,
) -> tuple[list[Finding], Suppressions, ModuleFacts]:
    """Pass 1 for one file: parse once, run the per-file rules, extract facts.

    Returns the findings before pragma filtering, the file's suppression
    table and its model slice; raises :class:`SyntaxError` when the source
    does not parse.
    """
    tree = ast.parse(source, filename=display)
    suppressions = parse_suppressions(source)
    ctx = ModuleContext(
        path=display,
        module=module,
        source=source,
        tree=tree,
        suppressions=suppressions,
        known_packages=known_packages,
    )
    raw = [f for rule in file_rules for f in rule.check(ctx)]
    facts = extract_module_facts(tree, display, module, is_package=is_package)
    return raw, suppressions, facts


def _project_findings(
    project_rules: list,
    facts: list[ModuleFacts],
    api_doc: str | None = None,
    api_doc_path: str | None = None,
) -> list[Finding]:
    """Pass 2: assemble the whole-program model and run the project rules."""
    if not project_rules:
        return []
    model = ProjectModel(facts, api_doc=api_doc, api_doc_path=api_doc_path)
    return [f for rule in project_rules for f in rule.check_project(model)]


def _apply_suppressions(
    raw: list[Finding], suppressions: dict[str, Suppressions]
) -> tuple[list[Finding], int]:
    """(sorted findings no pragma absorbs, how many pragmas absorbed).

    A pragma naming an unknown rule id (a typo, or a rule since deleted)
    would silently suppress nothing, so it is itself a finding — one no
    pragma can absorb.
    """
    from repro.analysis.rules import ALL_RULE_IDS

    kept: list[Finding] = []
    suppressed = 0
    for f in raw:
        supp = suppressions.get(f.path)
        if supp is not None and supp.suppresses(f):
            suppressed += 1
        else:
            kept.append(f)
    for path, supp in suppressions.items():
        for line, ids in supp.by_line.items():
            for rule_id in sorted(ids.difference(ALL_RULE_IDS)):
                kept.append(Finding(
                    STALE_PRAGMA_RULE, path, line, 0,
                    f"'# repro: noqa[{rule_id}]' names no known rule; fix "
                    "the id or delete the stale pragma",
                ))
    kept.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return kept, suppressed


def analyze_source(
    source: str,
    path: str = "<memory>",
    module: str | None = None,
    rules: list[str] | None = None,
    known_packages: frozenset[str] | None = None,
) -> tuple[list[Finding], Suppressions]:
    """Run the selected rules over one in-memory source blob.

    The fixture entry point used by ``tests/test_analysis.py``; returns
    (unsuppressed findings, suppression table with ``used`` filled in).
    Project rules (RPR009+) run over a single-module model, so
    intraprocedural instances of the interprocedural rules work here too.
    """
    from repro.analysis.rules import DEFAULT_KNOWN_PACKAGES, resolve_rules

    mod_name = module if module is not None else module_name_for(path)
    packages = (
        known_packages if known_packages is not None else DEFAULT_KNOWN_PACKAGES
    )
    selected = resolve_rules(rules)
    file_rules, project_rules = _split_rules(selected)

    raw, suppressions, facts = _scan_module(
        source, path, mod_name, file_rules, packages,
        is_package=os.path.basename(path) == "__init__.py",
    )
    raw.extend(_project_findings(project_rules, [facts]))
    kept, suppressions.used = _apply_suppressions(raw, {path: suppressions})
    return kept, suppressions


def analyze_sources(
    sources: dict[str, str],
    rules: list[str] | None = None,
    api_doc: str | None = None,
    api_doc_path: str = "docs/api.md",
    packages: frozenset[str] | None = None,
) -> tuple[list[Finding], int]:
    """Multi-module in-memory scan: the interprocedural fixture helper.

    ``sources`` maps dotted module names to source text.  A module is
    treated as a package when another key nests under it (or when named
    in ``packages``).  Returns (findings, suppressed count); findings
    from both passes, suppression-filtered per module.
    """
    from repro.analysis.rules import DEFAULT_KNOWN_PACKAGES, resolve_rules

    selected = resolve_rules(rules)
    file_rules, project_rules = _split_rules(selected)
    inferred_packages = set(packages or ())
    for module in sources:
        for other in sources:
            if other != module and other.startswith(module + "."):
                inferred_packages.add(module)
    known = DEFAULT_KNOWN_PACKAGES | frozenset(inferred_packages)

    facts: list[ModuleFacts] = []
    suppressions: dict[str, Suppressions] = {}
    raw: list[Finding] = []
    for module in sorted(sources):
        is_pkg = module in inferred_packages
        display = f"<memory:{module}>" if not is_pkg else f"<memory:{module}/__init__.py>"
        found, suppressions[display], mod_facts = _scan_module(
            sources[module], display, module, file_rules, known,
            is_package=is_pkg,
        )
        raw.extend(found)
        facts.append(mod_facts)
    raw.extend(_project_findings(project_rules, facts, api_doc, api_doc_path))
    return _apply_suppressions(raw, suppressions)


def _locate_api_doc(paths: list[str]) -> tuple[str | None, str | None]:
    """Find ``docs/api.md`` by walking up from the scan roots.

    Returns (text, display path) or (None, None).  Walking up from the
    *scan paths* — not the CWD — keeps fixture scans in temp dirs from
    accidentally picking up the real repo's docs.
    """
    seen: set[str] = set()
    for path in paths:
        directory = os.path.abspath(path)
        if os.path.isfile(directory):
            directory = os.path.dirname(directory)
        for _ in range(8):
            candidate = os.path.join(directory, "docs", "api.md")
            if candidate not in seen:
                seen.add(candidate)
                if os.path.isfile(candidate):
                    text = _read_text_or_none(candidate)
                    if text is not None:
                        return text, _display_path(candidate)
            parent = os.path.dirname(directory)
            if parent == directory:
                break
            directory = parent
    return None, None


def _read_text_or_none(path: str) -> str | None:
    """Read a UTF-8 file; a read failure degrades to 'no doc found'."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return None


def analyze_paths(paths: list[str], rules: list[str] | None = None) -> Report:
    """Analyze files/directories and return a :class:`Report`.

    Every file is read and parsed exactly once, in this process.
    """
    from repro.analysis.rules import resolve_rules

    t0 = time.perf_counter()
    selected = resolve_rules(rules)
    file_rules, project_rules = _split_rules(selected)
    files = iter_python_files(paths)
    packages = known_packages_for(files)
    report = Report(rules=tuple(r.id for r in selected), files=len(files))

    facts: list[ModuleFacts] = []
    suppressions: dict[str, Suppressions] = {}
    raw: list[Finding] = []
    for filepath in files:
        display = _display_path(filepath)
        excludes = profile_excludes_for(display)
        try:
            with open(filepath, "rb") as fh:
                source = fh.read().decode("utf-8")
            found, supp, mod_facts = _scan_module(
                source, display, module_name_for(filepath),
                [r for r in file_rules if r.id not in excludes], packages,
                is_package=os.path.basename(display) == "__init__.py",
            )
        except (OSError, UnicodeDecodeError, SyntaxError) as exc:
            report.parse_errors.append(f"{display}: {exc}")
            continue
        raw.extend(found)
        facts.append(mod_facts)
        suppressions[display] = supp

    if project_rules:
        api_doc, api_doc_path = _locate_api_doc(paths)
        raw.extend(_project_findings(project_rules, facts, api_doc, api_doc_path))
    report.findings, report.suppressed = _apply_suppressions(raw, suppressions)
    report.elapsed_ms = (time.perf_counter() - t0) * 1e3
    _record_obs(report)
    return report


def _record_obs(report: Report) -> None:
    """Fold scan cost into the observability stream (no-op when off)."""
    try:
        from repro import obs
    except ImportError:  # pragma: no cover - analysis is importable alone
        return
    if obs._enabled:
        obs.inc("analysis.scans")
        obs.inc("analysis.files", report.files)
        obs.inc("analysis.findings", len(report.findings))
        obs.observe("analysis.scan_ms", report.elapsed_ms)
