"""The ``repro lint`` entry point (wired into :mod:`repro.cli`).

Runs every registered checker over the given paths, subtracts the
baseline when one exists, renders the report, and returns the process
exit code.  The contract is explicit so CI can tell findings apart from
analyzer crashes:

* :data:`LINT_EXIT_CLEAN` (0) — no unsuppressed findings;
* :data:`LINT_EXIT_FINDINGS` (1) — findings were reported;
* :data:`LINT_EXIT_INTERNAL` (2) — the analyzer itself failed (bad
  path, malformed policy/baseline, or an unexpected exception).

:func:`report_findings` and :func:`internal_errors` are that tail on
their own; ``repro dataflow check`` and the ``repro arch``/``races``
commands report through them too.
"""

from __future__ import annotations

import traceback
from functools import lru_cache, wraps
from pathlib import Path
from typing import Callable, Sequence

from ..errors import ReproError
from .baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
    write_baseline,
)
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
    malformed policy/baseline/snapshot) or any unexpected exception —
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
                    baseline_path: str | None = DEFAULT_BASELINE,
                    echo: Callable[[str], None] = print) -> int:
    """Report ``findings``; exit 1 if any survive suppression, else 0.

    ``# noqa`` comments on a finding's line and the baseline (applied
    only if the file exists) suppress findings; the rest are rendered
    as ``"text"`` or ``"json"``.
    """
    @lru_cache(maxsize=None)
    def lines_of(path: str) -> list[str]:
        try:
            return Path(path).read_text().splitlines()
        except OSError:
            return []

    findings = sorted(drop_noqa(findings, lines_of), key=Finding.sort_key)
    suppressed = 0
    if baseline_path and Path(baseline_path).is_file():
        findings, suppressed = apply_baseline(
            findings, load_baseline(baseline_path))
    render = format_json if output_format == "json" else format_text
    echo(render(findings, suppressed))
    return LINT_EXIT_FINDINGS if findings else LINT_EXIT_CLEAN


@internal_errors("lint")
def run_lint(
    paths: Sequence[str],
    *,
    output_format: str = "text",
    select: Sequence[str] | None = None,
    baseline_path: str = DEFAULT_BASELINE,
    update_baseline: bool = False,
    echo: Callable[[str], None] = print,
) -> int:
    """Lint ``paths`` and report; see module docstring for the contract.

    Args:
        paths: files/directories to analyze (``repro lint`` defaults to
            ``src/repro``).
        output_format: ``"text"`` or ``"json"``.
        select: restrict to these rule ids (``None`` = all).
        baseline_path: baseline file; applied only if it exists, so a
            repo without a baseline just reports everything.
        update_baseline: snapshot current findings into
            ``baseline_path`` and exit 0 instead of reporting.
        echo: sink for the rendered report (tests capture it).
    """
    findings = analyze_paths(paths, select=select)
    if update_baseline:
        count = write_baseline(findings, baseline_path)
        echo(f"wrote baseline with {count} finding(s) to {baseline_path}")
        return LINT_EXIT_CLEAN
    return report_findings(findings, output_format=output_format,
                           baseline_path=baseline_path, echo=echo)
