"""repro.analysis — project-native static analysis (domain lint rules).

An AST-walking analyzer enforcing *this repo's* correctness conventions,
not generic style: the int64 overflow discipline that keeps eq. (4) /
eq. (18) butterfly counts exact, the layer boundaries between sparsela /
core / parallel / engine, the observability hygiene contract, and the
exception policy.  Stdlib-only, so it runs in the leanest CI job
(``make lint``).

The analyzer runs in **two passes**, in one process: pass 1 reads and
parses each file once, runs the per-file rules and extracts its slice of
the project model; pass 2 assembles the model — symbol tables, imports,
conservative call resolution — and runs the interprocedural rules over
it.  Every scan is cold (about 1.5 s for ``src/repro tests scripts``).

Entry points::

    repro-butterfly analyze src/repro            # human output, exit 1 on findings
    repro-butterfly analyze --format json        # repro.analysis.report/v3
    repro-butterfly analyze --rules RPR001,RPR002
    make lint                                    # analyzer + ruff + mypy (if present)

Library use::

    from repro import analysis
    report = analysis.analyze_paths(["src/repro"])
    print(analysis.render_text(report))

Rule catalog (full rationale in ``docs/analysis.md``):

========  ==============================================================
RPR001    private-module/symbol import across a package boundary
RPR002    sum/cumsum without explicit ``COUNT_DTYPE`` in sparsela/core
RPR003    observability hygiene (span usage, names, disabled-path cost)
RPR004    engine-plan purity (no plan mutation / inline member selection)
RPR006    exception discipline (no bare/broad/swallowed handlers)
RPR009    resource lifecycle (shm/file release on every path)
RPR012    public-API surface drift (``__all__`` vs ``docs/api.md``)
RPR013    module-level import the module never references
========  ==============================================================

Per-line suppression: ``# repro: noqa[RPR006] <justification>``; a
pragma naming an unknown rule id is itself a finding (``RPR000``).
Exit codes: 0 clean, 1 findings, 2 parse errors or bad CLI input.
"""

from repro._lazy import lazy_exports

_LAZY = {
    "ModuleContext": "repro.analysis.engine",
    "RELAXED_PROFILE_EXCLUDES": "repro.analysis.engine",
    "Report": "repro.analysis.engine",
    "analyze_paths": "repro.analysis.engine",
    "analyze_source": "repro.analysis.engine",
    "analyze_sources": "repro.analysis.engine",
    "iter_python_files": "repro.analysis.engine",
    "module_name_for": "repro.analysis.engine",
    "SEVERITIES": "repro.analysis.findings",
    "Finding": "repro.analysis.findings",
    "Suppressions": "repro.analysis.findings",
    "parse_suppressions": "repro.analysis.findings",
    "ModuleFacts": "repro.analysis.model",
    "ProjectModel": "repro.analysis.model",
    "extract_module_facts": "repro.analysis.model",
    "JSON_SCHEMA_ID": "repro.analysis.render",
    "render_json": "repro.analysis.render",
    "render_text": "repro.analysis.render",
    "report_payload": "repro.analysis.render",
    "ALL_RULE_IDS": "repro.analysis.rules",
    "RULES": "repro.analysis.rules",
    "ProjectRule": "repro.analysis.rules",
    "Rule": "repro.analysis.rules",
    "resolve_rules": "repro.analysis.rules",
}
__getattr__, __dir__ = lazy_exports(__name__, _LAZY, globals())

__all__ = [*_LAZY]
