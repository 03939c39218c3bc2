"""SARIF 2.1.0 export for analyzer reports.

SARIF (Static Analysis Results Interchange Format) is what GitHub code
scanning ingests: uploading the output of ``analyze --format sarif``
turns each finding into an inline pull-request annotation.  Only the
small, stable subset of the spec that code scanning actually reads is
emitted — ``tool.driver.rules`` for the catalog and one ``result`` per
finding with a ``physicalLocation``/``region``; parse errors ride along
as ``tool.driver`` notifications so a failing parse is visible in the
run metadata rather than silently dropped.

``findings_from_sarif`` inverts the mapping for the round-trip schema
test: every field the exporter writes must survive a decode.
"""

from __future__ import annotations

import json

from repro.analysis.engine import Report
from repro.analysis.findings import Finding

__all__ = [
    "ANALYZER_VERSION",
    "SARIF_VERSION",
    "sarif_payload",
    "render_sarif",
    "findings_from_sarif",
]

#: Analyzer version stamped into ``tool.driver.version``; bump on any
#: semantic change to rules, facts extraction, or the model.
ANALYZER_VERSION = "2.1"

SARIF_VERSION = "2.1.0"
_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: analyzer severity -> SARIF result level (same words, made explicit)
_LEVELS = {"note": "note", "warning": "warning", "error": "error"}


def _rule_descriptors(report: Report) -> list[dict]:
    from repro.analysis.rules import RULES

    by_id = {rule.id: rule for rule in RULES}
    descriptors = []
    for rule_id in report.rules:
        rule = by_id.get(rule_id)
        descriptors.append(
            {
                "id": rule_id,
                "name": type(rule).__name__ if rule else rule_id,
                "shortDescription": {"text": rule.title if rule else rule_id},
                "defaultConfiguration": {
                    "level": _LEVELS.get(rule.severity if rule else "error", "error")
                },
            }
        )
    return descriptors


def sarif_payload(report: Report) -> dict:
    """The SARIF 2.1.0 log object for one analyzer run."""
    rule_index = {rule_id: i for i, rule_id in enumerate(report.rules)}
    results = []
    for f in report.findings:
        result = {
            "ruleId": f.rule,
            "level": _LEVELS.get(f.severity, "error"),
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.path.replace("\\", "/"),
                            "uriBaseId": "%SRCROOT%",
                        },
                        "region": {
                            "startLine": f.line,
                            # SARIF columns are 1-based; findings are 0-based
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
        }
        if f.rule in rule_index:
            result["ruleIndex"] = rule_index[f.rule]
        results.append(result)
    notifications = [
        {
            "level": "error",
            "message": {"text": f"parse error: {err}"},
        }
        for err in report.parse_errors
    ]
    run = {
        "tool": {
            "driver": {
                "name": "repro-analyze",
                "informationUri": "docs/analysis.md",
                "version": ANALYZER_VERSION,
                "rules": _rule_descriptors(report),
            }
        },
        "results": results,
        "properties": {
            "files": report.files,
            "suppressed": report.suppressed,
            "baselined": report.baselined,
            "elapsed_ms": round(report.elapsed_ms, 3),
        },
    }
    if notifications:
        run["invocations"] = [
            {
                "executionSuccessful": False,
                "toolExecutionNotifications": notifications,
            }
        ]
    return {"$schema": _SCHEMA_URI, "version": SARIF_VERSION, "runs": [run]}


def render_sarif(report: Report) -> str:
    return json.dumps(sarif_payload(report), indent=2, sort_keys=True)


def findings_from_sarif(payload: dict) -> list[Finding]:
    """Decode a SARIF log back into :class:`Finding` records.

    Used by the round-trip test: the exporter and this decoder must
    agree on every field, so schema drift fails loudly.
    """
    findings: list[Finding] = []
    for run in payload.get("runs", []):
        for result in run.get("results", []):
            location = result["locations"][0]["physicalLocation"]
            findings.append(
                Finding(
                    rule=result["ruleId"],
                    path=location["artifactLocation"]["uri"],
                    line=location["region"]["startLine"],
                    col=location["region"]["startColumn"] - 1,
                    message=result["message"]["text"],
                    severity=result.get("level", "error"),
                )
            )
    return findings
