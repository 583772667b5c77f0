"""Finding objects — what every checker produces.

A :class:`Finding` pins a rule violation to a ``path:line:col`` location
with a rule id (``RPR001``...), a severity, and a human message.
Findings are frozen values: two runs over the same tree compare equal
finding for finding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.  Every finding is an error: each fails the
    run unless a ``# noqa`` comment suppresses it."""

    ERROR = "error"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        path: file the finding is in, as given to the analyzer
            (kept verbatim so output locations are clickable).
        line: 1-based line number.
        col: 1-based column number.
        rule_id: ``"RPR001"``..., or ``"RPR000"`` for unparseable files.
        message: human-readable description of the violation.
        severity: :class:`Severity`.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: Severity = field(default=Severity.ERROR)

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.col, self.rule_id)

    def format(self) -> str:
        """The one-line text-reporter rendering."""
        return (f"{self.path}:{self.line}:{self.col}: {self.rule_id} "
                f"[{self.severity}] {self.message}")

    def as_dict(self) -> dict:
        """JSON-reporter rendering."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
        }
