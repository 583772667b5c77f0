"""Finding objects — what every checker produces.

A :class:`Finding` pins a rule violation to a ``path:line:col`` location
with a rule id (``RPR001``...), a severity, and a human message.  The
*fingerprint* deliberately omits the line number so that committed
baselines (:mod:`repro.analysis.baseline`) survive unrelated edits above
a suppressed finding; it anchors on the enclosing symbol plus a hash
of the flagged source line, so messages that merely *mention* a line
number (or any other location detail) do not churn the committed
baseline when code moves.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is; errors fail the lint run, warnings do not
    (both are reported, and both participate in baselines)."""

    WARNING = "warning"
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
        severity: :class:`Severity`; errors make ``repro lint`` exit 1.
        symbol: qualified name of the enclosing function/class at the
            finding's line (``"KinectFusion.process"``), or ``""`` at
            module level.  Filled in by
            :meth:`~repro.analysis.framework.ModuleContext.finding`.
        content: the flagged source line, stripped; ``""`` when the
            producer has no source at hand (the fingerprint then falls
            back to hashing the message).
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    severity: Severity = field(default=Severity.ERROR)
    symbol: str = ""
    content: str = ""

    @property
    def fingerprint(self) -> str:
        """Line-independent identity used by baseline suppression (v2).

        ``rule::path::symbol::sha1(content or message)[:12]`` — anchored
        on *what* is flagged (rule, file, enclosing symbol, the line's
        text), never on *where* in the file it sits, so edits elsewhere
        — even ones that renumber every line — do not churn a committed
        baseline.
        """
        anchor = self.content or self.message
        digest = hashlib.sha1(anchor.encode()).hexdigest()[:12]
        return f"{self.rule_id}::{self.path}::{self.symbol}::{digest}"

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
