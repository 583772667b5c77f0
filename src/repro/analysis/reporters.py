"""Text and JSON renderings of a lint run."""

from __future__ import annotations

import json
from collections import Counter
from typing import Sequence

from .findings import Finding, Severity


def format_text(findings: Sequence[Finding]) -> str:
    """One clickable ``path:line:col`` line per finding, plus a summary."""
    lines = [f.format() for f in findings]
    n_err = sum(1 for f in findings if f.severity is Severity.ERROR)
    n_warn = len(findings) - n_err
    summary = f"{n_err} error(s), {n_warn} warning(s)"
    if not findings:
        summary = "clean: " + summary
    lines.append(summary)
    return "\n".join(lines)


def format_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report (the CI job consumes this shape)."""
    by_rule = Counter(f.rule_id for f in findings)
    doc = {
        "findings": [f.as_dict() for f in findings],
        "summary": {
            "total": len(findings),
            "errors": sum(
                1 for f in findings if f.severity is Severity.ERROR
            ),
            "warnings": sum(
                1 for f in findings if f.severity is Severity.WARNING
            ),
            "by_rule": dict(sorted(by_rule.items())),
        },
    }
    return json.dumps(doc, indent=2)
