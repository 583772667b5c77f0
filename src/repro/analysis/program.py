"""The program model: one parse and one call graph per file set.

Every whole-program consumer — the layer rule RPR008, the
kernel-contract check RPR012 and the ``repro arch``/``graph check``
commands — works from the same :class:`Program`:

* the parsed :class:`~repro.analysis.framework.ModuleContext` set;
* the governing ``ARCHITECTURE.toml`` policy (``None`` without one);
* one :class:`~repro.analysis.callgraph.CallGraph` over all contexts.

:func:`program_for` caches the model on the first context object,
keyed by :func:`run_state_key`, so every rule of one ``analyze_paths``
run — and repeat runs over the unchanged tree (memoized ASTs) — share
it.  A policy governs only the tree it sits at the root of:
:meth:`Program.in_scope` is the filter RPR008 reports through.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .callgraph import ROOT_PACKAGE, CallGraph, build_callgraph
from .framework import AnalysisError, ModuleContext, parse_paths
from .policy import DEFAULT_POLICY, ArchPolicy, load_policy

_PROGRAM_ATTR = "_repro_program"


class Program:
    """Everything the whole-program rules need about one file set."""

    def __init__(self, contexts: Sequence[ModuleContext],
                 policy: ArchPolicy | None):
        self.contexts = tuple(contexts)
        self.policy = policy
        self.graph: CallGraph = build_callgraph(
            self.contexts,
            root_package=policy.root if policy is not None else ROOT_PACKAGE)
        #: paths of the files the policy governs: those under the
        #: directory holding the policy file
        self._scope: set[str] = set()
        if policy is not None:
            root = Path(policy.path).resolve().parent
            self._scope = {ctx.path for ctx in self.contexts
                           if root in Path(ctx.path).resolve().parents}

    def in_scope(self, path: str) -> bool:
        """Whether the policy governs the analyzed file at ``path``."""
        return path in self._scope


def run_state_key(contexts: Sequence[ModuleContext],
                  policy: ArchPolicy | None = None) -> tuple:
    """Identity of one analysis run: the exact context objects (AST
    reuse via ``parse_cached`` hands back identical objects for
    identical sources) plus the governing policy — the object when one
    is passed in, else the policy file's modification time.  A cached
    :class:`Program` is only trusted when this key matches; a context
    reused in a different file set recomputes instead.
    """
    if policy is not None:
        pol = id(policy)
    else:
        try:
            pol = Path(DEFAULT_POLICY).stat().st_mtime_ns
        except OSError:
            pol = None
    return (tuple(id(c) for c in contexts), pol)


def program_for(contexts: Sequence[ModuleContext],
                policy: ArchPolicy | None = None) -> Program:
    """The cached :class:`Program` for ``contexts``.

    Without an explicit ``policy`` the ``ARCHITECTURE.toml`` in the
    working directory governs, if there is one.
    """
    key = run_state_key(contexts, policy)
    anchor = contexts[0] if contexts else None
    cached = getattr(anchor, _PROGRAM_ATTR, None)
    if cached is not None and cached[0] == key:
        return cached[1]
    if policy is None and Path(DEFAULT_POLICY).is_file():
        policy = load_policy(DEFAULT_POLICY)
    program = Program(contexts, policy)
    if anchor is not None:
        setattr(anchor, _PROGRAM_ATTR, (key, program))
    return program


def load_program(paths: Sequence[str],
                 policy: ArchPolicy | None = None) -> Program:
    """Parse ``paths`` and return their program; an unparsable file or
    an empty file set is an :class:`AnalysisError`."""
    contexts, errors = parse_paths(paths)
    if errors:
        raise AnalysisError(
            f"cannot parse {errors[0].path}: {errors[0].message}")
    if not contexts:
        raise AnalysisError(f"no python files under {', '.join(paths)}")
    return program_for(contexts, policy)
