"""The ``repro lint`` entry point (wired into :mod:`repro.cli`).

Runs every registered checker over the given paths, renders the
report, and returns the process exit code.  The contract is explicit so
CI can tell findings apart from analyzer crashes:

* :data:`LINT_EXIT_CLEAN` (0) — no unsuppressed findings;
* :data:`LINT_EXIT_FINDINGS` (1) — findings were reported;
* :data:`LINT_EXIT_INTERNAL` (2) — the analyzer itself failed (bad
  path, malformed policy, or an unexpected exception).

:func:`report_findings` and :func:`internal_errors` are that tail on
their own; ``repro graph check`` (RPR012) and the ``repro
arch``/``races`` commands report through them too.
"""

from __future__ import annotations

import traceback
from functools import lru_cache, wraps
from pathlib import Path
from typing import Callable, Sequence

from ..errors import ReproError
from .findings import Finding
from .framework import analyze_paths, drop_noqa
from .reporters import format_json, format_text

#: ``repro lint`` exit codes (see module docstring).
LINT_EXIT_CLEAN = 0
LINT_EXIT_FINDINGS = 1
LINT_EXIT_INTERNAL = 2


def internal_errors(tool: str):
    """Decorator giving a command the exit-2 half of the contract.

    An analyzer failure — :class:`~repro.errors.ReproError` (bad path,
    malformed policy) or any unexpected exception —
    is reported as ``<tool>: internal error: ...`` and exits
    :data:`LINT_EXIT_INTERNAL`; it never masquerades as a findings exit.
    """
    def wrap(command):
        @wraps(command)
        def run(*args, echo: Callable[[str], None] = print, **kwargs) -> int:
            try:
                return command(*args, echo=echo, **kwargs)
            except ReproError as exc:
                echo(f"{tool}: internal error: {exc}")
            except Exception:
                echo(f"{tool}: internal error:\n" + traceback.format_exc())
            return LINT_EXIT_INTERNAL
        return run
    return wrap


def report_findings(findings: Sequence[Finding], *,
                    output_format: str = "text",
                    echo: Callable[[str], None] = print) -> int:
    """Report ``findings``; exit 1 if any survive ``# noqa``, else 0.

    A ``# noqa`` comment on a finding's line suppresses it; the rest
    are rendered as ``"text"`` or ``"json"``.
    """
    @lru_cache(maxsize=None)
    def lines_of(path: str) -> list[str]:
        try:
            return Path(path).read_text().splitlines()
        except OSError:
            return []

    findings = sorted(drop_noqa(findings, lines_of), key=Finding.sort_key)
    render = format_json if output_format == "json" else format_text
    echo(render(findings))
    return LINT_EXIT_FINDINGS if findings else LINT_EXIT_CLEAN


@internal_errors("lint")
def run_lint(
    paths: Sequence[str],
    *,
    output_format: str = "text",
    select: Sequence[str] | None = None,
    echo: Callable[[str], None] = print,
) -> int:
    """Lint ``paths`` and report; see module docstring for the contract.

    Args:
        paths: files/directories to analyze (``repro lint`` defaults to
            ``src/repro``).
        output_format: ``"text"`` or ``"json"``.
        select: restrict to these rule ids (``None`` = all).
        echo: sink for the rendered report (tests capture it).
    """
    return report_findings(analyze_paths(paths, select=select),
                           output_format=output_format, echo=echo)
