"""Reporters for lint results: text, machine-usable JSON, GitHub annotations.

The JSON schema (version 2) is stable for CI consumption::

    {
      "version": 2,
      "summary": {
        "files": <int>,        # files scanned
        "findings": <int>,     # findings reported
        "clean": <bool>        # findings == 0
      },
      "findings": [
        {
          "rule": "<rule id>",
          "path": "<file>",
          "line": <int>, "col": <int>,
          "message": "<description>"
        }, ...
      ]
    }

``--format github`` emits one `workflow command
<https://docs.github.com/actions/reference/workflow-commands-for-github-actions>`__
per finding (``::error file=...,line=...,col=...,title=...::message``) so
CI findings annotate the PR diff inline.

Exit-code policy (enforced by :mod:`repro.analysis.runner`): 0 when
``summary.clean`` is true, 1 when findings exist, 2 on analyzer-internal
errors (unknown rule, unreadable path, undecodable file).
"""

from __future__ import annotations

import json
from typing import List, Sequence

from repro.analysis.core import Finding

#: Version tag of the JSON report schema.
JSON_SCHEMA_VERSION = 2


def _summary_line(findings: Sequence[Finding], num_files: int) -> str:
    """The closing ``repro lint: ...`` line shared by text and github."""
    if not findings:
        return f"repro lint: clean — {num_files} files, 0 findings"
    return f"repro lint: {len(findings)} finding(s) in {num_files} files"


def render_text(findings: Sequence[Finding], num_files: int) -> str:
    """Render findings as ``path:line:col: rule: message`` lines + summary."""
    lines: List[str] = [finding.format() for finding in findings]
    lines.append(_summary_line(findings, num_files))
    return "\n".join(lines)


def _escape_data(value: str) -> str:
    """Escape a workflow-command message per the GitHub Actions spec."""
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _escape_property(value: str) -> str:
    """Escape a workflow-command property (``file=``/``title=``) value."""
    return (
        _escape_data(value).replace(":", "%3A").replace(",", "%2C")
    )


def render_github(findings: Sequence[Finding], num_files: int) -> str:
    """Render findings as GitHub Actions ``::error`` workflow commands.

    One command per finding annotates the PR diff at the offending line.
    The trailing summary line is ordinary log text.
    """
    lines: List[str] = [
        f"::error "
        f"file={_escape_property(finding.path)},"
        f"line={finding.line},"
        f"col={finding.col},"
        f"title={_escape_property(finding.rule)}::"
        f"{_escape_data(finding.message)}"
        for finding in findings
    ]
    lines.append(_summary_line(findings, num_files))
    return "\n".join(lines)


def render_json(findings: Sequence[Finding], num_files: int) -> str:
    """Render findings in the documented JSON schema (version 2)."""
    return json.dumps(
        {
            "version": JSON_SCHEMA_VERSION,
            "summary": {
                "files": num_files,
                "findings": len(findings),
                "clean": not findings,
            },
            "findings": [
                {
                    "rule": finding.rule,
                    "path": finding.path,
                    "line": finding.line,
                    "col": finding.col,
                    "message": finding.message,
                }
                for finding in findings
            ],
        },
        indent=2,
    )
