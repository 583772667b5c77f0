"""The static-analysis framework: checker registry and driver.

Checkers come in two shapes:

* :class:`Checker` — per-file AST passes.  Each gets a
  :class:`ModuleContext` (parsed tree, source lines, import-alias map)
  and yields :class:`~repro.analysis.findings.Finding` objects.
* :class:`ProjectChecker` — cross-module passes that see *all* analyzed
  files at once (e.g. the architecture rules RPR008-010).

:func:`analyze_paths` is the driver ``repro lint`` uses: collect the
``.py`` files under the given paths, parse each once, run every
registered checker, honour ``# noqa`` / ``# noqa: RPR001`` line
suppressions, and return the sorted findings.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from ..errors import ReproError
from .findings import Finding, Severity


class AnalysisError(ReproError):
    """The analyzer itself was misused (bad path, bad rule selection...)."""


#: Content-addressed :class:`ModuleContext` memo: parsing is the
#: dominant fixed cost of every analysis entry point, and one tool run
#: routinely wants the same tree several times (test suites drive
#: ``analyze_paths`` repeatedly).  Keyed by path +
#: source hash, so an edited file can never serve a stale tree.
_AST_CACHE: dict[str, "ModuleContext"] = {}

def parse_cached(source: str, path: str) -> "ModuleContext":
    """Parse via the content-addressed memo (see :data:`_AST_CACHE`).

    Reused contexts keep the :class:`~repro.analysis.program.Program` an
    earlier run attached; it is keyed on the exact context set (and
    policy) it was built from, so a run over a different file set
    recomputes rather than trusting a stale attachment.
    """
    key = hashlib.sha1(
        path.encode() + b"\0" + source.encode()).hexdigest()
    ctx = _AST_CACHE.get(key)
    if ctx is None:
        ctx = ModuleContext.parse(source, path)
        _AST_CACHE[key] = ctx
    return ctx


#: Rule id reported for files the parser rejects.
PARSE_RULE = "RPR000"

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<rules>[A-Z0-9 ,]+))?", re.IGNORECASE)


def _collect_import_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local names to the dotted path they were imported as.

    ``import numpy as np``           -> ``{"np": "numpy"}``
    ``from numpy import random``     -> ``{"random": "numpy.random"}``
    ``from time import perf_counter``-> ``{"perf_counter": "time.perf_counter"}``

    Relative imports keep their leading dots so checkers can still match
    suffixes (``from ..errors import ReproError`` -> ``..errors.ReproError``).
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            for alias in node.names:
                if alias.name == "*":
                    continue
                aliases[alias.asname or alias.name] = (
                    f"{module}.{alias.name}" if module else alias.name
                )
    return aliases


def dotted_name(node: ast.AST,
                aliases: dict[str, str] | None = None) -> str | None:
    """The dotted text of a Name/Attribute chain (``np.random.seed``).

    With ``aliases`` the head name is resolved through the import map;
    an un-imported bare name resolves to itself, which is how builtin
    exception names are matched.  Returns ``None`` for expressions that
    are not plain attribute chains (calls, subscripts, ...).
    """
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(aliases.get(node.id, node.id) if aliases else node.id)
    return ".".join(reversed(parts))


def param_names(func: ast.AST) -> set[str]:
    """Every parameter name of a def, ``*args``/``**kwargs`` included
    (empty for anything that is not a function)."""
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return set()
    a = func.args
    names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
    names.update(p.arg for p in (a.vararg, a.kwarg) if p is not None)
    return names


@dataclass
class ModuleContext:
    """Everything a per-file checker needs about one module."""

    path: str
    tree: ast.Module
    source: str
    lines: list[str] = field(default_factory=list)
    aliases: dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, source: str, path: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            tree=tree,
            source=source,
            lines=source.splitlines(),
            aliases=_collect_import_aliases(tree),
        )

    @property
    def path_parts(self) -> tuple[str, ...]:
        return Path(self.path).parts

    def resolve(self, node: ast.AST) -> str | None:
        return dotted_name(node, self.aliases)

    def finding(self, node: ast.AST, rule_id: str, message: str,
                severity: Severity = Severity.ERROR) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule_id=rule_id,
            message=message,
            severity=severity,
        )


class Checker:
    """Base class for per-file AST checkers."""

    rule_id: str = ""
    title: str = ""
    severity: Severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectChecker:
    """Base class for cross-module checkers over the whole file set."""

    rule_id: str = ""
    title: str = ""

    def applies(self, contexts: Sequence[ModuleContext]) -> bool:
        raise NotImplementedError

    def check_project(self, contexts: Sequence[ModuleContext]) -> Iterator[Finding]:
        raise NotImplementedError


_FILE_CHECKERS: dict[str, type[Checker]] = {}
_PROJECT_CHECKERS: dict[str, type[ProjectChecker]] = {}


def register_checker(cls):
    """Class decorator adding a checker to the registry (keyed by rule id)."""
    if not cls.rule_id:
        raise AnalysisError(f"checker {cls.__name__} declares no rule_id")
    registry = (_PROJECT_CHECKERS if issubclass(cls, ProjectChecker)
                else _FILE_CHECKERS)
    if cls.rule_id in registry:
        raise AnalysisError(f"duplicate checker for rule {cls.rule_id}")
    registry[cls.rule_id] = cls
    return cls


def rule_catalogue() -> dict[str, str]:
    """``{rule_id: title}`` for every registered rule, sorted by id."""
    out = {rid: cls.title for rid, cls in _FILE_CHECKERS.items()}
    out.update({rid: cls.title for rid, cls in _PROJECT_CHECKERS.items()})
    return dict(sorted(out.items()))


def _selected(select: Iterable[str] | None) -> set[str] | None:
    if select is None:
        return None
    ids = {s.strip().upper() for s in select if s.strip()}
    if not ids:
        return None
    known = set(_FILE_CHECKERS) | set(_PROJECT_CHECKERS) | {PARSE_RULE}
    unknown = ids - known
    if unknown:
        raise AnalysisError(
            f"unknown rule ids {sorted(unknown)}; known: {sorted(known)}"
        )
    return ids


def iter_python_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated .py file list."""
    out: list[Path] = []
    seen: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            candidates = sorted(p.rglob("*.py"))
        elif p.is_file():
            candidates = [p]
        else:
            raise AnalysisError(f"no such file or directory: {raw}")
        for c in candidates:
            if c not in seen:
                seen.add(c)
                out.append(c)
    return out


def _noqa_rules(line: str) -> set[str] | None:
    """Rules suppressed by a ``# noqa`` comment on ``line``.

    Returns ``None`` when there is no noqa, an empty set for a blanket
    ``# noqa`` (suppress everything), else the listed rule ids.
    """
    m = _NOQA_RE.search(line)
    if m is None:
        return None
    rules = m.group("rules")
    if not rules:
        return set()
    return {r.strip().upper() for r in rules.replace(",", " ").split()}


def _suppressed(finding: Finding, lines: list[str]) -> bool:
    if not 1 <= finding.line <= len(lines):
        return False
    rules = _noqa_rules(lines[finding.line - 1])
    if rules is None:
        return False
    return not rules or finding.rule_id in rules


def drop_noqa(findings: Iterable[Finding],
              lines_of: Callable[[str], list[str]]) -> list[Finding]:
    """Drop findings a ``# noqa`` comment on their line suppresses;
    ``lines_of(path)`` supplies each file's source lines."""
    return [f for f in findings if not _suppressed(f, lines_of(f.path))]


def _syntax_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(path=path, line=exc.lineno or 1,
                   col=(exc.offset or 0) or 1, rule_id=PARSE_RULE,
                   message=f"syntax error: {exc.msg}")


def _instantiate(registry: dict, select: Iterable[str] | None) -> list:
    wanted = _selected(select)
    return [cls() for rule_id, cls in registry.items()
            if wanted is None or rule_id in wanted]


def analyze_source(source: str, path: str = "<string>",
                   select: Iterable[str] | None = None) -> list[Finding]:
    """Run the per-file checkers over one source string (test/tool entry)."""
    checkers = _instantiate(_FILE_CHECKERS, select)
    try:
        ctx = ModuleContext.parse(source, path)
    except SyntaxError as exc:
        return [_syntax_finding(path, exc)]
    findings = [f for checker in checkers for f in checker.check(ctx)]
    findings = drop_noqa(findings, lambda _path: ctx.lines)
    return sorted(findings, key=Finding.sort_key)


def parse_paths(paths: Sequence[str | Path]
                ) -> tuple[list[ModuleContext], list[Finding]]:
    """Parse every ``.py`` file under ``paths`` through the memo.

    Returns the parsed contexts and one RPR000 finding per file the
    parser rejects.
    """
    contexts: list[ModuleContext] = []
    errors: list[Finding] = []
    for file in iter_python_files(paths):
        path = str(file)
        try:
            source = file.read_text()
        except OSError as exc:
            raise AnalysisError(f"cannot read {path}: {exc}") from exc
        try:
            contexts.append(parse_cached(source, path))
        except SyntaxError as exc:
            errors.append(_syntax_finding(path, exc))
    return contexts, errors


def analyze_paths(paths: Sequence[str | Path],
                  select: Iterable[str] | None = None) -> list[Finding]:
    """Analyze every ``.py`` file under ``paths`` with all registered rules."""
    file_checkers = _instantiate(_FILE_CHECKERS, select)
    project_checkers = _instantiate(_PROJECT_CHECKERS, select)
    contexts, findings = parse_paths(paths)
    for ctx in contexts:
        for checker in file_checkers:
            findings.extend(checker.check(ctx))
    for checker in project_checkers:
        if checker.applies(contexts):
            findings.extend(checker.check_project(contexts))
    lines_by_path = {ctx.path: ctx.lines for ctx in contexts}
    findings = drop_noqa(findings, lambda path: lines_by_path.get(path, []))
    return sorted(findings, key=Finding.sort_key)
