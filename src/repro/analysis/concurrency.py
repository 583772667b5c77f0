"""Whole-program lockset concurrency verification: rules RPR014 and RPR016.

The serve layer runs a scheduler thread mutating sessions while caller
threads poll ``stats()`` and push frames through a ``Condition``-guarded
transport; ``repro.jobs`` owns worker *processes*.  This module proves
the locking discipline of that code statically, in the style of the S18
effect engine (and composing with it):

* **Thread-root discovery** — every ``threading.Thread(target=...)`` /
  ``Timer`` spawn contributes a background *thread context* rooted at
  the resolved target; the spawning function keeps running concurrently,
  so the spawner (plus every public method of its class, and any extra
  entry the ``[concurrency]`` policy table declares) roots the
  multi-threaded *callers* context.  ``...Process(target=...)`` spawns
  root *isolated* contexts: a separate address space never races with
  in-process state.
* **RPR014 shared-state lockset analysis** (Eraser-style) — for every
  ``self._x`` / module-global written in multi-thread-reachable code,
  infer the locks held at each access: lexically through ``with
  self._lock:`` blocks and ``acquire()``/``release()`` pairs, and
  interprocedurally through a *must-hold* fixpoint over the call graph
  (the intersection, over all participating call sites, of the caller's
  must-set plus the locks held at the site).  A field with racing
  accesses needs a non-empty common lockset, a ``[[lock]]`` ``guards``
  declaration, or an explicit ``# guarded-by: <target> -- <reason>``
  annotation; violations carry the full forcing chain for both sides.
* **RPR016 wait/blocking discipline** — an untimed ``Condition.wait``
  must sit in a predicate loop; blocking calls (``time.sleep``,
  ``*.join``, non-condition ``*.wait``) must not run under a lock; and
  no call may carry ``io``/``process`` (plus any extra effects a
  ``[[lock]]`` table forbids, e.g. ``time``/``alloc`` for the scheduler
  hot path) while holding a lock — effects come from the S18 fixpoint,
  with the policy's absorb owners honoured.

The ``# guarded-by:`` grammar::

    # guarded-by: <target> -- <reason>

where ``<target>`` is a lock (``_lock``, ``ServeEngine._lock``, or a
full qname) the verifier then treats as the field's guard, or one of
the trusted disciplines ``owner`` (the owning object's creator
serialises access — e.g. ``RateWindow`` guarded by whichever Tracer or
engine holds it) and ``unshared`` (never escapes its thread).  The
reason is mandatory; a marker that does not parse is itself an RPR014
finding.

There is no lock-order rule.  The serve engine's one nested pair
(``ServeEngine._lock`` then ``InProcessTransport._cond``, taken through
``drain_transport`` -> ``poll``) is stated as a comment on both
classes.  The call graph leaves ``self.transport.poll()`` unresolved
and ``transport._cond`` is no lock key, so a static order check stayed
clean on a real AB/BA deadlock there.

``repro races check|show`` drives this module (see
:mod:`repro.analysis.commands`).  Thread reachability and the must-hold
fixpoint run on the shared worklist solver
(:func:`~repro.analysis.callgraph.solve_worklist`).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .callgraph import (
    CallGraph,
    FunctionNode,
    _expand_alias,
    iter_own_nodes,
    solve_worklist,
)
from .effects import MUTATING_METHOD_NAMES, EffectAnalysis, assign_targets
from .findings import Finding
from .framework import (
    ModuleContext,
    ProjectChecker,
    dotted_name,
    param_names,
    register_checker,
)
from .policy import ArchPolicy
from .program import program_for

#: Annotation marker; the grammar is ``'# ' marker ' ' target ' -- ' reason``.
GUARD_MARKER = "guarded-by:"
_GUARD_RE = re.compile(
    r"#\s*guarded-by:\s*(?P<target>[A-Za-z_][\w.]*)\s+--\s+(?P<reason>\S.*)$")

#: Annotation targets that are disciplines, not lock names.
TRUSTED_DISCIPLINES = ("owner", "unshared")

#: Constructors whose instances participate in locksets.
LOCK_FACTORIES = {
    "threading.Lock": "lock",
    "threading.RLock": "rlock",
    "threading.Condition": "condition",
    "threading.Semaphore": "semaphore",
    "threading.BoundedSemaphore": "semaphore",
}

#: Sync primitives that are thread-safe by construction: their *fields*
#: are exempt from RPR014, but they never appear in a lockset.
NONLOCK_SYNC = {
    "threading.Event": "event",
    "threading.local": "threadlocal",
    "contextvars.ContextVar": "contextvar",
    "queue.Queue": "queue",
    "queue.SimpleQueue": "queue",
}

#: Thread-spawn constructors (process spawns match ``*.Process``).
THREAD_SPAWNS = frozenset({"threading.Thread", "threading.Timer"})

#: deque mutators the effect engine's table does not need.
EXTRA_MUTATORS = frozenset({"appendleft", "popleft", "rotate", "extendleft"})
_MUTATORS = frozenset(MUTATING_METHOD_NAMES) | EXTRA_MUTATORS

#: Effects no call may carry while holding *any* lock; ``[[lock]]``
#: tables add extras (``time``/``alloc``) per lock.
LOCK_FORBIDDEN_EFFECTS = ("io", "process")

#: Constructor-time writes never race: publication happens-before use.
_SETUP_METHODS = ("__init__", "__post_init__", "__new__", "__set_name__")

RACE_RULES = ("RPR014", "RPR016")


def _short(qname: str) -> str:
    """``repro.serve.engine.ServeEngine._lock`` -> ``ServeEngine._lock``."""
    parts = qname.split(".")
    return ".".join(parts[-2:]) if len(parts) > 1 else qname


def _fmt_locks(locks: frozenset | set) -> str:
    return "{" + ", ".join(sorted(_short(lk) for lk in locks)) + "}"


# -- analysis state ----------------------------------------------------------
@dataclass(frozen=True)
class Access:
    """One read or write of a shared-state candidate."""

    key: str  #: ``Class.attr`` / ``module.NAME`` qname of the field
    kind: str  #: ``"read"`` | ``"write"``
    func: str
    path: str
    lineno: int
    held: frozenset  #: locks lexically held at the access
    setup: bool = False  #: inside ``__init__`` (pre-publication)


@dataclass(frozen=True)
class WaitSite:
    lock: str  #: the condition's lock key
    timed: bool
    in_loop: bool
    held: frozenset  #: locks held at the wait, including the condition
    func: str
    path: str
    lineno: int


@dataclass(frozen=True)
class SpawnSite:
    kind: str  #: ``"thread"`` | ``"process"``
    target: str | None  #: resolved entry qname (None: dynamic target)
    func: str
    path: str
    lineno: int


@dataclass(frozen=True)
class GuardAnnotation:
    key: str
    target: str
    reason: str
    path: str
    lineno: int


@dataclass
class FuncSummary:
    """Per-function lock-relevant facts from one lexical scan."""

    qname: str
    accesses: list[Access] = field(default_factory=list)
    waits: list[WaitSite] = field(default_factory=list)
    spawns: list[SpawnSite] = field(default_factory=list)
    #: (dotted, held, lineno) — lexically-detected blocking calls
    blocking: list[tuple] = field(default_factory=list)
    #: (callee qname, locks lexically held at the site, lineno)
    call_sites: list[tuple] = field(default_factory=list)


@dataclass
class ThreadContext:
    """One set of OS threads executing the same entry points."""

    name: str
    roots: tuple
    multi: bool  #: more than one thread may run these entries at once
    isolated: bool  #: separate address space (process workers)
    reach: set = field(default_factory=set)
    parent: dict = field(default_factory=dict)  #: BFS tree for chains

    def chain(self, qname: str) -> list[str]:
        """``[root, ..., qname]`` along the discovery tree."""
        chain = [qname]
        seen = {qname}
        while True:
            prev = self.parent.get(chain[-1])
            if prev is None or prev in seen:
                return list(reversed(chain))
            seen.add(prev)
            chain.append(prev)


class _ScanEnv:
    """Mutable per-function scan context (kept off the recursion args)."""

    __slots__ = ("qname", "owner", "module", "path", "lines", "locals",
                 "globals", "out", "held_at_line", "setup", "symbols")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


class ConcurrencyAnalysis:
    """Locks, thread contexts and the must-hold fixpoint for a call graph."""

    def __init__(self, graph: CallGraph, effects: EffectAnalysis,
                 policy: ArchPolicy | None = None):
        self.graph = graph
        self.effects = effects
        self.policy = policy
        #: every sync primitive: qname key -> kind ("lock", "event", ...)
        self.sync_kinds: dict[str, str] = {}
        self.summaries: dict[str, FuncSummary] = {}
        self.guards: dict[str, list[GuardAnnotation]] = {}
        self._comment_cache: dict[str, dict[int, str]] = {}
        #: (path, lineno, line text) of unparseable guarded-by markers
        self.malformed: list[tuple] = []
        self.contexts: dict[str, ThreadContext] = {}
        self.entry_issues: list[str] = []  #: unresolvable policy names
        self.must: dict[str, frozenset] = {}
        #: shared-state candidates: key -> participating accesses
        self.candidates: dict[str, list[Access]] = {}
        #: key -> verdict record (see :meth:`_classify_fields`)
        self.verdicts: dict[str, dict] = {}

        self._method_owner = self._build_method_owner()
        self._harvest_sync()
        self._summarize()
        self._build_contexts()
        self._must_hold()
        self._classify_fields()

    # -- setup ---------------------------------------------------------------
    def _build_method_owner(self) -> dict[str, str]:
        owner: dict[str, str] = {}
        for cq, cnode in self.graph.classes.items():
            for mq in cnode.methods.values():
                owner[mq] = cq
        for q in self.graph.functions:
            if q not in owner and ".<locals>." in q:
                method = owner.get(q.split(".<locals>.")[0])
                if method is not None:
                    owner[q] = method
        return owner

    def _harvest_sync(self) -> None:
        """Find every lock/sync-primitive field and module global:
        module-level assignments and ``self.x = ...`` in method bodies."""
        kinds = {**LOCK_FACTORIES, **NONLOCK_SYNC}
        for qname in sorted(self.graph.functions):
            node = self.graph.functions[qname]
            module = (node.module if qname.endswith(".<module>") else None)
            owner = self._method_owner.get(qname)
            if module is None and owner is None:
                continue
            symbols = self.graph._symbols.get(node.module, {})
            for stmt in getattr(node.ast_node, "body", []):
                if not (isinstance(stmt, ast.Assign)
                        and isinstance(stmt.value, ast.Call)):
                    continue
                dotted = dotted_name(stmt.value.func)
                kind = (kinds.get(_expand_alias(symbols, dotted))
                        if dotted is not None else None)
                if kind is None:
                    continue
                for target in stmt.targets:
                    if (owner is not None
                            and isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        self.sync_kinds[f"{owner}.{target.attr}"] = kind
                    elif module is not None and isinstance(target, ast.Name):
                        self.sync_kinds[f"{module}.{target.id}"] = kind

    def _is_lock(self, key: str) -> bool:
        return self.sync_kinds.get(key) in (
            "lock", "rlock", "condition", "semaphore")

    # -- per-function lexical scan -------------------------------------------
    def _summarize(self) -> None:
        for qname in sorted(self.graph.functions):
            node = self.graph.functions[qname]
            if qname.endswith(".<module>"):
                self._module_guard_pass(qname, node)
                continue
            self.summaries[qname] = self._scan_function(qname, node)

    def _module_guard_pass(self, qname: str, node: FunctionNode) -> None:
        """Harvest guarded-by annotations on module-level assignments."""
        lines = self.graph.sources.get(node.path, [])
        for stmt in getattr(node.ast_node, "body", []):
            for target in assign_targets(stmt):
                if isinstance(target, ast.Name):
                    key = f"{node.module}.{target.id}"
                    self._harvest_guard(key, node.path, lines, stmt.lineno)

    def _comments(self, path: str) -> dict[int, str]:
        """``lineno -> comment text`` via the tokenizer (string literals
        that merely *contain* the marker never count as annotations)."""
        cached = self._comment_cache.get(path)
        if cached is not None:
            return cached
        comments: dict[int, str] = {}
        source = "\n".join(self.graph.sources.get(path, []))
        try:
            for tok in tokenize.generate_tokens(
                    io.StringIO(source).readline):
                if tok.type == tokenize.COMMENT:
                    comments[tok.start[0]] = tok.string
        except (tokenize.TokenError, SyntaxError, IndentationError):
            pass
        self._comment_cache[path] = comments
        return comments

    def _harvest_guard(self, key: str, path: str, lines: list,
                       lineno: int) -> None:
        comments = self._comments(path)
        for ln in (lineno, lineno - 1):
            text = comments.get(ln, "")
            if GUARD_MARKER not in text:
                continue
            m = _GUARD_RE.search(text)
            if m is None:
                entry = (path, ln, text.strip())
                if entry not in self.malformed:
                    self.malformed.append(entry)
                return
            ann = GuardAnnotation(key=key, target=m.group("target"),
                                  reason=m.group("reason").strip(),
                                  path=path, lineno=ln)
            existing = self.guards.setdefault(key, [])
            if not any(a.lineno == ln and a.path == path for a in existing):
                existing.append(ann)
            return

    def _scan_function(self, qname: str, node: FunctionNode) -> FuncSummary:
        out = FuncSummary(qname)
        func = node.ast_node
        local_names = param_names(func)
        global_decls: set[str] = set()
        for n in iter_own_nodes(func):
            if isinstance(n, ast.Global):
                global_decls.update(n.names)
            elif isinstance(n, ast.Name) and isinstance(
                    n.ctx, (ast.Store, ast.Del)):
                local_names.add(n.id)
            elif isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                                ast.ClassDef)):
                local_names.add(n.name)
        local_names -= global_decls
        owner = self._method_owner.get(qname)
        method_name = qname.rsplit(".", 1)[-1]
        env = _ScanEnv(
            qname=qname, owner=owner, module=node.module, path=node.path,
            lines=self.graph.sources.get(node.path, []),
            locals=local_names, globals=global_decls, out=out,
            held_at_line={},
            setup=(owner is not None and method_name in _SETUP_METHODS),
            symbols=self.graph._symbols.get(node.module, {}),
        )
        self._scan_block(getattr(func, "body", []), [], env, in_loop=False)
        for cs in node.resolved_sites:
            out.call_sites.append(
                (cs.target, env.held_at_line.get(cs.lineno, frozenset()),
                 cs.lineno))
        return out

    # -- the lexical walk: with-blocks, acquire/release, loops ---------------
    def _scan_block(self, stmts, held: list, env: _ScanEnv,
                    in_loop: bool) -> None:
        opened: list[str] = []
        for stmt in stmts:
            key = self._acquire_release_stmt(stmt, env)
            if key is not None:
                verb, lock = key
                if verb == "acquire":
                    held.append(lock)
                    opened.append(lock)
                elif lock in held:
                    held.remove(lock)
                    if lock in opened:
                        opened.remove(lock)
                continue
            self._scan_stmt(stmt, held, env, in_loop)
        for lock in opened:
            if lock in held:
                held.remove(lock)

    def _acquire_release_stmt(self, stmt: ast.AST,
                              env: _ScanEnv) -> tuple | None:
        """``(verb, lock-key)`` for a bare ``X.acquire()``/``release()``."""
        if not (isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Call)):
            return None
        dotted = dotted_name(stmt.value.func)
        if dotted is None or "." not in dotted:
            return None
        receiver, _, verb = dotted.rpartition(".")
        if verb not in ("acquire", "release"):
            return None
        key = self._sync_key(receiver, env)
        if key is None or not self._is_lock(key):
            return None
        return (verb, key)

    def _scan_stmt(self, node: ast.AST, held: list, env: _ScanEnv,
                   in_loop: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            return
        if isinstance(node, (ast.With, ast.AsyncWith)):
            taken: list[str] = []
            for item in node.items:
                self._scan_value(item.context_expr, held, env, in_loop)
                lock = self._lock_expr(item.context_expr, env)
                if lock is not None:
                    taken.append(lock)
            self._scan_block(node.body, held + taken, env, in_loop)
            return
        if isinstance(node, ast.While):
            self._scan_value(node.test, held, env, in_loop)
            self._scan_block(node.body, list(held), env, True)
            self._scan_block(node.orelse, list(held), env, in_loop)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._scan_value(node.iter, held, env, in_loop)
            self._scan_value(node.target, held, env, in_loop)
            self._scan_block(node.body, list(held), env, True)
            self._scan_block(node.orelse, list(held), env, in_loop)
            return
        if isinstance(node, ast.If):
            self._scan_value(node.test, held, env, in_loop)
            self._scan_block(node.body, list(held), env, in_loop)
            self._scan_block(node.orelse, list(held), env, in_loop)
            return
        if isinstance(node, ast.Try):
            self._scan_block(node.body, list(held), env, in_loop)
            for handler in node.handlers:
                self._scan_block(handler.body, list(held), env, in_loop)
            self._scan_block(node.orelse, list(held), env, in_loop)
            self._scan_block(node.finalbody, list(held), env, in_loop)
            return
        self._scan_value(node, held, env, in_loop)

    # -- expression-level harvesting -----------------------------------------
    def _scan_value(self, root: ast.AST, held: list, env: _ScanEnv,
                    in_loop: bool) -> None:
        """Walk one simple statement / expression for accesses and calls."""
        if root is None:
            return
        hf = frozenset(held)
        # subscript/attribute stores reach *through* the target into the
        # container field: ``self._xs[k] = v`` writes ``_xs``.
        for target in assign_targets(root):
            base = target
            while isinstance(base, ast.Subscript):
                base = base.value
            if base is not target:
                self._record_attr_or_global(base, "write", hf, env,
                                            force=True)
        stack = [root]
        while stack:
            n = stack.pop()
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(n, ast.Call):
                self._scan_call(n, hf, env, in_loop)
            elif isinstance(n, (ast.Attribute, ast.Name)):
                kind = ("write" if isinstance(n.ctx, (ast.Store, ast.Del))
                        else "read")
                self._record_attr_or_global(n, kind, hf, env)
            stack.extend(ast.iter_child_nodes(n))

    def _record_attr_or_global(self, n: ast.AST, kind: str, held: frozenset,
                               env: _ScanEnv, force: bool = False) -> None:
        key = None
        if (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                and n.value.id == "self" and env.owner is not None):
            if self.graph._class_method(env.owner, n.attr) is not None:
                return  # a bound-method reference, not state
            key = f"{env.owner}.{n.attr}"
        elif isinstance(n, ast.Name):
            name = n.id
            if name in env.locals:
                return
            is_global_store = isinstance(n.ctx, (ast.Store, ast.Del)) \
                and name in env.globals
            if not (force or is_global_store
                    or isinstance(n.ctx, ast.Load)):
                return
            if name not in self._module_names(env.module) \
                    and name not in env.globals:
                return
            key = f"{env.module}.{name}"
        if key is None:
            return
        self._harvest_guard(key, env.path, env.lines, n.lineno)
        if key in self.sync_kinds:
            return  # the primitive itself is not racy state
        env.out.accesses.append(Access(
            key=key, kind=kind, func=env.qname, path=env.path,
            lineno=n.lineno, held=held, setup=env.setup))

    def _module_names(self, module: str) -> frozenset:
        return self.effects._module_level_names(module)

    def _sync_key(self, receiver: str, env: _ScanEnv) -> str | None:
        """Resolve dotted receiver text to a sync-primitive key."""
        parts = receiver.split(".")
        if (len(parts) == 2 and parts[0] == "self"
                and env.owner is not None):
            key = f"{env.owner}.{parts[1]}"
            return key if key in self.sync_kinds else None
        if len(parts) == 1 and parts[0] not in env.locals:
            key = f"{env.module}.{parts[0]}"
            return key if key in self.sync_kinds else None
        return None

    def _lock_expr(self, expr: ast.AST, env: _ScanEnv) -> str | None:
        """Lock key of a ``with``-item (``with self._lock:``)."""
        if isinstance(expr, ast.Call):
            return None  # ``with stage(...)`` etc. — not a lock object
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        key = self._sync_key(dotted, env)
        return key if key is not None and self._is_lock(key) else None

    def _scan_call(self, call: ast.Call, held: frozenset, env: _ScanEnv,
                   in_loop: bool) -> None:
        prev = env.held_at_line.get(call.lineno)
        env.held_at_line[call.lineno] = (held if prev is None
                                         else prev & held)
        dotted = dotted_name(call.func)
        if dotted is None:
            return
        expanded = _expand_alias(env.symbols, dotted)
        self._scan_spawn(call, dotted, expanded, env)
        if "." not in dotted:
            return
        receiver, _, last = dotted.rpartition(".")
        if last == "wait":
            timed = bool(call.args or call.keywords)
            key = self._sync_key(receiver, env)
            if key is not None and self.sync_kinds.get(key) == "condition":
                env.out.waits.append(WaitSite(
                    lock=key, timed=timed, in_loop=in_loop, held=held,
                    func=env.qname, path=env.path, lineno=call.lineno))
            elif held:
                env.out.blocking.append((dotted, held, call.lineno))
            return
        if expanded == "time.sleep" and held:
            env.out.blocking.append((expanded, held, call.lineno))
            return
        if last == "join" and "thread" in receiver.lower() and held:
            env.out.blocking.append((dotted, held, call.lineno))
            return
        if last in _MUTATORS:
            base = call.func
            if isinstance(base, ast.Attribute):
                self._record_attr_or_global(base.value, "write", held, env,
                                            force=True)

    def _scan_spawn(self, call: ast.Call, dotted: str, expanded: str,
                    env: _ScanEnv) -> None:
        kind = None
        if expanded in THREAD_SPAWNS:
            kind = "thread"
        elif (expanded.rpartition(".")[2] == "Process"
              and self.graph.resolve_class(expanded) is None
              and (expanded.startswith("multiprocessing")
                   or "." in dotted)):
            kind = "process"
        if kind is None:
            return
        target = None
        for kw in call.keywords:
            if kw.arg == "target":
                target = self._spawn_target(kw.value, env)
        if kind == "thread" or target is not None:
            env.out.spawns.append(SpawnSite(
                kind=kind, target=target, func=env.qname, path=env.path,
                lineno=call.lineno))

    def _spawn_target(self, value: ast.AST, env: _ScanEnv) -> str | None:
        if (isinstance(value, ast.Attribute)
                and isinstance(value.value, ast.Name)
                and value.value.id == "self" and env.owner is not None):
            return self.graph._class_method(env.owner, value.attr)
        dotted = dotted_name(value)
        if dotted is None:
            return None
        return self.graph.resolve_function(
            _expand_alias(env.symbols, dotted))

    # -- thread contexts ------------------------------------------------------
    def _build_contexts(self) -> None:
        serialized = set()
        entries: set[str] = set()
        if self.policy is not None:
            serialized = set(self.policy.conc_serialized)
            for name in self.policy.conc_entries:
                resolved = self._entry_names(name)
                if not resolved:
                    self.entry_issues.append(name)
                entries.update(resolved)
        thread_targets: dict[str, SpawnSite] = {}
        process_targets: dict[str, SpawnSite] = {}
        for qname in sorted(self.summaries):
            for spawn in self.summaries[qname].spawns:
                if spawn.target is None:
                    continue
                if spawn.kind == "thread":
                    thread_targets.setdefault(spawn.target, spawn)
                    # the spawner keeps running concurrently: it and its
                    # class's public surface root the callers context
                    entries.add(qname)
                    owner = self._method_owner.get(qname)
                    if owner is not None:
                        entries.update(self._public_methods(owner))
                else:
                    process_targets.setdefault(spawn.target, spawn)
        entries -= serialized
        entries = {e for e in entries if e in self.graph.functions}
        for target in sorted(thread_targets):
            ctx = ThreadContext(
                name=f"thread:{_short(target)}", roots=(target,),
                multi=False, isolated=False)
            self._discover(ctx)
            self.contexts[ctx.name] = ctx
        for target in sorted(process_targets):
            ctx = ThreadContext(
                name=f"process:{_short(target)}", roots=(target,),
                multi=True, isolated=True)
            self._discover(ctx)
            self.contexts[ctx.name] = ctx
        if entries and thread_targets:
            ctx = ThreadContext(
                name="callers", roots=tuple(sorted(entries)),
                multi=True, isolated=False)
            self._discover(ctx)
            self.contexts[ctx.name] = ctx

    def _entry_names(self, name: str) -> set[str]:
        """Policy entry -> concrete function qnames (empty: unresolved)."""
        if name in self.graph.functions:
            return {name}
        if name in self.graph.classes:
            return self._public_methods(name)
        return set()

    def _public_methods(self, class_qname: str) -> set[str]:
        node = self.graph.classes.get(class_qname)
        if node is None:
            return set()
        serialized = (set(self.policy.conc_serialized)
                      if self.policy is not None else set())
        return {q for m, q in node.methods.items()
                if not m.startswith("_") and q not in serialized}

    def _discover(self, ctx: ThreadContext) -> None:
        """Reachability from the context's roots; the discovery tree
        (``ctx.parent``) records one shortest chain per function."""
        roots = [r for r in ctx.roots if r in self.graph.functions]
        ctx.parent = dict.fromkeys(roots)

        def visit(q: str) -> list[str]:
            found = [c for c in sorted(self.graph.functions[q].calls)
                     if c not in ctx.parent]
            ctx.parent.update(dict.fromkeys(found, q))
            return found

        solve_worklist(roots, visit)
        ctx.reach = set(ctx.parent)

    # -- interprocedural must-hold fixpoint -----------------------------------
    def _must_hold(self) -> None:
        participating: set[str] = set()
        roots: set[str] = set()
        for ctx in self.contexts.values():
            participating |= ctx.reach
            roots.update(r for r in ctx.roots
                         if r in self.graph.functions)
        incoming: dict[str, list] = {}
        callees: dict[str, set] = {}
        for q in sorted(participating):
            for callee, held, _ln in self.summaries[q].call_sites:
                if callee in participating:
                    incoming.setdefault(callee, []).append((q, held))
                    callees.setdefault(q, set()).add(callee)
        inner = participating - roots

        # Descending intersection; None is the ⊤ start value.  A change
        # re-queues the function's callees (their incoming values moved).
        must: dict[str, frozenset | None] = {
            q: (frozenset() if q in roots else None) for q in participating}

        def visit(q: str) -> set:
            vals = [must[caller] | held
                    for caller, held in incoming.get(q, ())
                    if must[caller] is not None]
            new = frozenset.intersection(*vals) if vals else must[q]
            if new == must[q]:
                return set()
            must[q] = new
            return callees.get(q, set()) & inner

        solve_worklist(inner, visit)
        self.must = {q: (m if m is not None else frozenset())
                     for q, m in must.items()}

    def effective_locks(self, access: Access) -> frozenset:
        return self.must.get(access.func, frozenset()) | access.held

    # -- RPR014: shared-state lockset verdicts --------------------------------
    def _classify_fields(self) -> None:
        live = [c for c in self.contexts.values() if not c.isolated]
        fn_ctxs: dict[str, list] = {}
        for ctx in live:
            for q in ctx.reach:
                fn_ctxs.setdefault(q, []).append(ctx)
        buckets: dict[str, list] = {}
        for q in sorted(fn_ctxs):
            for a in self.summaries[q].accesses:
                buckets.setdefault(a.key, []).append(a)
        declared = self._declared_guards()
        for key in sorted(buckets):
            accesses = [a for a in buckets[key] if not a.setup]
            writes = [a for a in accesses if a.kind == "write"]
            if not writes or not self._is_racy(writes, accesses, fn_ctxs):
                continue
            self.candidates[key] = accesses
            effective = {id(a): self.effective_locks(a) for a in accesses}
            common = frozenset.intersection(
                *[effective[id(a)] for a in accesses])
            if common:
                verdict = {"verdict": "guarded", "locks": sorted(common)}
                lock = declared.get(key)
                if lock is not None and lock not in common:
                    verdict = {
                        "verdict": "violated", "locks": sorted(common),
                        "declared": lock,
                        "finding": self._declared_mismatch(
                            key, lock, accesses, effective, fn_ctxs),
                    }
                self.verdicts[key] = verdict
                continue
            anns = self.guards.get(key, [])
            if anns:
                ann = anns[0]
                verdict = {"verdict": "annotated", "guard": ann.target,
                           "reason": ann.reason}
                if (ann.target not in TRUSTED_DISCIPLINES
                        and self._resolve_lock_target(ann.target, key)
                        is None):
                    verdict["finding"] = Finding(
                        path=ann.path, line=ann.lineno, col=1,
                        rule_id="RPR014",
                        message=(f"'# guarded-by: {ann.target}' on "
                                 f"{_short(key)} names no known lock "
                                 f"(known locks: use the attribute name, "
                                 f"Class.attr, a full qname, or one of "
                                 f"{'/'.join(TRUSTED_DISCIPLINES)})"))
                self.verdicts[key] = verdict
                continue
            lock = declared.get(key)
            if lock is not None:
                self.verdicts[key] = {
                    "verdict": "violated", "locks": [], "declared": lock,
                    "finding": self._declared_mismatch(
                        key, lock, accesses, effective, fn_ctxs),
                }
                continue
            self.verdicts[key] = {
                "verdict": "unguarded",
                "finding": self._race_finding(key, writes, accesses,
                                              effective, fn_ctxs),
            }

    def _declared_guards(self) -> dict[str, str]:
        declared: dict[str, str] = {}
        if self.policy is not None:
            for lp in self.policy.lock_policies:
                for guarded in lp.guards:
                    declared[guarded] = lp.name
        return declared

    def _is_racy(self, writes, accesses, fn_ctxs) -> bool:
        for w in writes:
            wcs = fn_ctxs.get(w.func, [])
            if any(c.multi for c in wcs):
                return True
            wnames = {c.name for c in wcs}
            for a in accesses:
                if any(c.name not in wnames
                       for c in fn_ctxs.get(a.func, [])):
                    return True
        return False

    def _context_chain(self, access: Access, fn_ctxs,
                       avoid: str | None = None) -> tuple[str, str]:
        ctxs = fn_ctxs.get(access.func, [])
        ctx = next((c for c in ctxs if c.name != avoid),
                   ctxs[0] if ctxs else None)
        if ctx is None:
            return ("?", access.func)
        chain = " -> ".join(_short(q) for q in ctx.chain(access.func))
        return (ctx.name, chain)

    def _race_finding(self, key, writes, accesses, effective,
                      fn_ctxs) -> Finding:
        w = min(writes, key=lambda a: (len(effective[id(a)]), a.path,
                                       a.lineno))
        others = [a for a in accesses
                  if a is not w and not (effective[id(a)]
                                         & effective[id(w)])]
        if not others:
            others = [a for a in accesses if a is not w]
        wctx, wchain = self._context_chain(w, fn_ctxs)
        if others:
            o = min(others, key=lambda a: (a.func == w.func,
                                           len(effective[id(a)]),
                                           a.path, a.lineno))
            octx, ochain = self._context_chain(o, fn_ctxs, avoid=wctx)
            detail = (f"written in {_short(w.func)} holding "
                      f"{_fmt_locks(effective[id(w)])} "
                      f"(thread {wctx!r} via {wchain}); "
                      f"{o.kind} in {_short(o.func)} holding "
                      f"{_fmt_locks(effective[id(o)])} "
                      f"(thread {octx!r} via {ochain})")
        else:
            detail = (f"written in {_short(w.func)} holding "
                      f"{_fmt_locks(effective[id(w)])}, reachable from "
                      f"multiple threads (thread {wctx!r} via {wchain})")
        return Finding(
            path=w.path, line=w.lineno, col=1, rule_id="RPR014",
            message=(f"shared field {_short(key)} has no common lockset: "
                     f"{detail}; guard every access with one lock or "
                     f"annotate '# guarded-by: <lock|owner|unshared> -- "
                     f"<reason>'"))

    def _declared_mismatch(self, key, lock, accesses, effective,
                           fn_ctxs) -> Finding:
        violator = min(
            (a for a in accesses if lock not in effective[id(a)]),
            key=lambda a: (a.path, a.lineno))
        ctx, chain = self._context_chain(violator, fn_ctxs)
        return Finding(
            path=violator.path, line=violator.lineno, col=1,
            rule_id="RPR014",
            message=(f"field {_short(key)} is declared guarded by "
                     f"{_short(lock)} in the [[lock]] policy, but the "
                     f"{violator.kind} in {_short(violator.func)} holds "
                     f"{_fmt_locks(effective[id(violator)])} "
                     f"(thread {ctx!r} via {chain})"))

    def _resolve_lock_target(self, target: str, key: str) -> str | None:
        """Match an annotation's lock target against known locks."""
        candidates = sorted(k for k in self.sync_kinds
                            if self._is_lock(k)
                            and (k == target or k.endswith("." + target)))
        if not candidates:
            return None
        # prefer a lock on the annotated field's own class/module
        scope = key.rsplit(".", 1)[0]
        for cand in candidates:
            if cand.rsplit(".", 1)[0] == scope:
                return cand
        return candidates[0]

    # -- finding producers (consumed by the registered checkers) -------------
    def lockset_findings(self) -> Iterator[Finding]:
        for path, lineno, text in sorted(self.malformed):
            yield Finding(
                path=path, line=lineno, col=1, rule_id="RPR014",
                message=(f"malformed guarded-by annotation {text!r}: "
                         f"expected '# guarded-by: <target> -- <reason>'"))
        for key in sorted(self.verdicts):
            finding = self.verdicts[key].get("finding")
            if finding is not None:
                yield finding

    def wait_findings(self) -> Iterator[Finding]:
        lock_forbid = {lp.name: tuple(lp.forbid)
                       for lp in (self.policy.lock_policies
                                  if self.policy is not None else ())}
        for q in sorted(self.summaries):
            s = self.summaries[q]
            for w in s.waits:
                if not w.timed and not w.in_loop:
                    yield Finding(
                        path=w.path, line=w.lineno, col=1,
                        rule_id="RPR016",
                        message=(f"untimed {_short(w.lock)}.wait() outside "
                                 f"a predicate loop in {_short(q)}: spurious "
                                 f"wakeups make bare waits incorrect — use "
                                 f"'while <predicate>: cond.wait()'"))
                others = w.held - {w.lock}
                if others:
                    yield Finding(
                        path=w.path, line=w.lineno, col=1,
                        rule_id="RPR016",
                        message=(f"{_short(w.lock)}.wait() in {_short(q)} "
                                 f"blocks while still holding "
                                 f"{_fmt_locks(others)} — waiting with a "
                                 f"second lock held starves its users"))
            for dotted, held, lineno in s.blocking:
                yield Finding(
                    path=self.graph.functions[q].path, line=lineno, col=1,
                    rule_id="RPR016",
                    message=(f"blocking call {dotted}() in {_short(q)} "
                             f"while holding {_fmt_locks(held)}"))
            yield from self._effect_findings(q, s, lock_forbid)

    def _effect_findings(self, q: str, s: FuncSummary,
                         lock_forbid: dict) -> Iterator[Finding]:
        must = self.must.get(q, frozenset())
        reported: set[tuple] = set()
        for callee, held, lineno in s.call_sites:
            locks = must | held
            if not locks:
                continue
            info = self.effects.info.get(callee)
            if info is None:
                continue
            callee_module = self.graph.functions[callee].module
            for eff in sorted(info.effects):
                if eff.startswith("raises("):
                    continue
                if self.effects._absorbs(callee_module, eff):
                    continue  # the owner layer keeps its effect
                forbidden = eff in LOCK_FORBIDDEN_EFFECTS or any(
                    eff in lock_forbid.get(lk, ()) for lk in locks)
                if not forbidden or (q, callee, eff) in reported:
                    continue
                reported.add((q, callee, eff))
                chain = self.effects.effect_chain(callee, eff)
                yield Finding(
                    path=self.graph.functions[q].path, line=lineno, col=1,
                    rule_id="RPR016",
                    message=(f"call under {_fmt_locks(locks)} in "
                             f"{_short(q)} carries effect {eff!r} via "
                             f"{' -> '.join(_short(c) for c in chain)} — "
                             f"effectful work must not run while these "
                             f"locks are held"))


# -- the registered checkers --------------------------------------------------
class _RaceChecker(ProjectChecker):
    """Base of RPR014/016: runs on any file set, with or without a
    policy (policy names that do not resolve in a fixture tree are
    inert; ``repro races check`` validates them on the real tree)."""

    def applies(self, contexts: Sequence[ModuleContext]) -> bool:
        return bool(contexts)

    def check_project(self,
                      contexts: Sequence[ModuleContext]) -> Iterator[Finding]:
        return self.findings(program_for(contexts).concurrency)


@register_checker
class SharedStateLocksetChecker(_RaceChecker):
    """RPR014: racy shared state needs a common lockset (or a waiver)."""

    rule_id = "RPR014"
    title = ("lockset-discipline: state written in multi-thread-reachable "
             "code needs a non-empty common lockset, a [[lock]] guards "
             "declaration, or '# guarded-by: <target> -- <reason>'")

    def findings(self, conc: ConcurrencyAnalysis) -> Iterator[Finding]:
        return conc.lockset_findings()


@register_checker
class WaitDisciplineChecker(_RaceChecker):
    """RPR016: predicate-loop waits; no blocking/effectful work under
    a lock."""

    rule_id = "RPR016"
    title = ("wait-discipline: Condition.wait sits in a predicate loop; "
             "no blocking or io/process-effectful calls (plus per-lock "
             "forbid extras) while holding a lock")

    def findings(self, conc: ConcurrencyAnalysis) -> Iterator[Finding]:
        return conc.wait_findings()
