"""SARIF 2.1.0 rendering of a lint report (``repro lint --format sarif``).

SARIF (Static Analysis Results Interchange Format, OASIS standard) is what
code-scanning UIs ingest; emitting it lets CI upload the strict-gate run as an
artifact that standard viewers annotate onto the diff. One run object, one
driver (``repro-lint``), every executed rule declared with its description and
rationale, every finding a ``result`` with a single physical location.

The document is deterministic for a given report: rules sort by id, results
follow :meth:`~repro.lint.findings.LintReport.sorted_findings`, and the JSON is
dumped with sorted keys — the same canonical-bytes discipline the linter
enforces on the repo.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.findings import Finding, LintReport, SEVERITY_ERROR

#: SARIF spec version and the schema URI code-scanning consumers validate against.
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: Synthesized finding ids that are not registered rules (parse failures and the
#: strict escape-hatch audit); they get stub rule metadata so every result's
#: ``ruleId`` is declared in the driver, as the spec recommends.
_SYNTHETIC_RULES: Dict[str, str] = {
    "parse-error": "the file does not parse; nothing else can be checked",
    "unknown-suppression": (
        "a suppression comment or allowlist entry names an unregistered rule"
    ),
    "unused-suppression": "an inline suppression matched no finding",
    "unused-allowlist": "an allowlist entry matched no finding",
    "allowlist-path-form": (
        "an allowlist entry uses a non-canonical path spelling"
    ),
}


def _level(finding: Finding) -> str:
    return "error" if finding.severity == SEVERITY_ERROR else "warning"


def _rule_metadata(report: LintReport) -> List[Dict[str, object]]:
    from repro.lint.registry import get_rule, load_builtin_rules, rule_ids

    load_builtin_rules()
    known = set(rule_ids())
    ids = set(report.rules_run) | {finding.rule for finding in report.findings}
    rules: List[Dict[str, object]] = []
    for rule_id in sorted(ids):
        entry: Dict[str, object] = {"id": rule_id}
        if rule_id in known:
            rule = get_rule(rule_id)
            entry["shortDescription"] = {"text": rule.description}
            if rule.rationale:
                entry["fullDescription"] = {"text": rule.rationale}
        else:
            entry["shortDescription"] = {
                "text": _SYNTHETIC_RULES.get(rule_id, "synthesized lint finding")
            }
        entry["defaultConfiguration"] = {"level": "error"}
        rules.append(entry)
    return rules


def _result(finding: Finding, rule_index: Dict[str, int]) -> Dict[str, object]:
    return {
        "ruleId": finding.rule,
        "ruleIndex": rule_index[finding.rule],
        "level": _level(finding),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": max(finding.line, 1),
                        # SARIF columns are 1-based; findings carry ast's 0-based.
                        "startColumn": finding.col + 1,
                    },
                },
                "logicalLocations": [
                    {"fullyQualifiedName": finding.scope, "kind": "function"}
                ],
            }
        ],
    }


def report_to_sarif(report: LintReport) -> Dict[str, object]:
    """The report as a SARIF 2.1.0 document (a plain dict, ready to dump)."""
    rules = _rule_metadata(report)
    rule_index = {rule["id"]: index for index, rule in enumerate(rules)}
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": (
                            "https://example.invalid/repro/docs/determinism_lint"
                        ),
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///repo/"}},
                "results": [
                    _result(finding, rule_index)
                    for finding in report.sorted_findings()
                ],
                "columnKind": "utf16CodeUnits",
                "properties": {
                    "filesChecked": report.files_checked,
                    "suppressed": report.suppressed,
                    "allowlisted": report.allowlisted,
                },
            }
        ],
    }


def to_sarif_json(report: LintReport) -> str:
    """Canonical SARIF bytes: sorted keys, one-space indent, trailing-newline-free."""
    return json.dumps(report_to_sarif(report), sort_keys=True, indent=1)
