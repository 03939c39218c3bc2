"""Human and machine renderers for analyzer reports."""

from __future__ import annotations

import datetime as _dt
import json
from typing import Any

from repro.analysis.engine import Report

__all__ = ["render_text", "render_json", "report_payload", "JSON_SCHEMA_ID"]

#: Schema identifier stamped into every JSON report (bump on shape change).
JSON_SCHEMA_ID = "repro.analysis.report/v3"


def render_text(report: Report, *, verbose: bool = False) -> str:
    """Compiler-style ``path:line:col RULE message`` lines plus a summary."""
    lines: list[str] = []
    for f in report.findings:
        lines.append(f"{f.location}: {f.severity}: {f.rule} {f.message}")
    for err in report.parse_errors:
        lines.append(f"parse-error: {err}")
    by_rule = report.counts_by_rule()
    if report.parse_errors:
        # A file the analyzer could not parse means the gate never ran
        # over it — rendered apart from findings, and exit code 2.
        lines.append(
            f"ERROR: {len(report.parse_errors)} file(s) could not be "
            f"parsed — the gate did not run over them (exit 2); "
            f"{len(report.findings)} finding(s) on the rest"
        )
    elif report.findings:
        breakdown = ", ".join(f"{k}={v}" for k, v in sorted(by_rule.items()))
        lines.append(
            f"FAIL: {len(report.findings)} finding(s) "
            f"[{breakdown}] across {report.files} file(s) "
            f"in {report.elapsed_ms:.1f} ms"
        )
    else:
        lines.append(
            f"OK: {report.files} file(s) clean under rules "
            f"{', '.join(report.rules)} in {report.elapsed_ms:.1f} ms"
        )
    if report.suppressed or verbose:
        lines.append(f"   ({report.suppressed} suppressed by noqa)")
    return "\n".join(lines)


def report_payload(report: Report) -> dict[str, Any]:
    """The JSON report as a plain dict (schema ``repro.analysis.report/v3``)."""
    return {
        "schema": JSON_SCHEMA_ID,
        "generated": _dt.datetime.now(_dt.timezone.utc).isoformat(),
        "files": report.files,
        "rules": list(report.rules),
        "elapsed_ms": round(report.elapsed_ms, 3),
        "exit_code": report.exit_code,
        "counts": {
            "total": len(report.findings),
            "suppressed": report.suppressed,
            "by_rule": report.counts_by_rule(),
        },
        "findings": [f.to_dict() for f in report.findings],
        "parse_errors": list(report.parse_errors),
    }


def render_json(report: Report, *, indent: int = 2) -> str:
    return json.dumps(report_payload(report), indent=indent, sort_keys=False)
