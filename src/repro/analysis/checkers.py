"""The repo-specific per-file rules.

* **RPR001 timing-discipline** — the telemetry layer (PR 1) is the one
  timing source for every performance claim; a hand-rolled
  ``time.perf_counter()`` block produces numbers no trace, manifest, or
  per-kernel summary ever sees.  Only :mod:`repro.telemetry` may touch
  the clock.
* **RPR002 rng-discipline** — the DSE results are only reproducible if
  every random draw flows from an injected, seeded
  ``np.random.Generator``.  The legacy global-state API
  (``np.random.seed`` + module-level draws) silently couples unrelated
  experiments, and a ``default_rng()`` / ``SeedSequence()`` / bit
  generator built without a seed draws OS entropy, so no two runs agree.
* **RPR003 error-policy** — the library promises callers they can catch
  :class:`~repro.errors.ReproError` without swallowing programming
  errors; raising bare builtins breaks that, and a CLI ``main`` without
  a ``ReproError`` handler leaks raw tracebacks at users.
* **RPR005 contract-validation** — ``@contract`` declarations must be
  literal keyword strings, no ``**`` spread, so the static callee arm
  of RPR012 can read them without importing anything.  Syntax, unknown
  parameters and contradictory stacked decorators need no static pass:
  :func:`repro.contracts.contract` rejects them at decoration time.
* **RPR006 process-discipline** — :mod:`repro.jobs` (PR 3) is the one
  process-spawning layer: its pool owns worker seeding, per-job
  timeouts, crash retries and telemetry merge.  A bare
  ``multiprocessing.Pool`` (or ``concurrent.futures`` executor)
  elsewhere gets none of that — unseeded workers, silent hangs, lost
  traces — so only ``repro.jobs`` may import those modules.
* **RPR007 dtype-discipline** — the fast frame pipeline (``repro.perf``)
  earns its speedup by keeping every per-pixel/per-voxel array float32;
  one stray default-dtype allocator or ``.astype(float)`` silently
  doubles bandwidth and erases it.  Hot-path modules — ``repro/perf/*``
  and ``kfusion/pipeline.py``, which every backend runs — must spell
  dtypes explicitly; deliberate float64 (the ICP solver) carries an
  inline ``# f64-ok: <reason>``.  The reference kfusion kernels are
  float64 by design (they are the accuracy oracle) and out of scope.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .findings import Finding
from .framework import Checker, ModuleContext, register_checker

#: Clock calls that bypass the telemetry substrate (RPR001).
BANNED_CLOCKS = frozenset({
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
})

#: Legacy global-state numpy.random members (RPR002).  ``default_rng``,
#: ``Generator``, ``SeedSequence`` and the bit generators stay legal
#: when given a seed (:data:`NEEDS_SEED_NP_RANDOM`).
BANNED_NP_RANDOM = frozenset({
    "seed", "get_state", "set_state", "RandomState",
    "rand", "randn", "randint", "random_integers",
    "random", "random_sample", "ranf", "sample", "bytes",
    "choice", "shuffle", "permutation",
    "uniform", "normal", "standard_normal", "lognormal",
    "beta", "binomial", "exponential", "gamma", "geometric",
    "laplace", "poisson", "power", "rayleigh", "triangular",
    "vonmises", "weibull", "zipf", "multivariate_normal",
})

#: numpy.random constructors that draw OS entropy when called with no
#: argument or a literal ``None`` (RPR002).
NEEDS_SEED_NP_RANDOM = frozenset({
    "default_rng", "SeedSequence",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})

#: Builtin exceptions the library must not raise on public paths
#: (RPR003).  ``TypeError``/``AttributeError``/``NotImplementedError``
#: stay legal: they signal programming errors, which :class:`ReproError`
#: deliberately does not cover.
BANNED_RAISES = frozenset({
    "Exception", "BaseException",
    "ValueError", "RuntimeError",
    "KeyError", "IndexError", "LookupError",
    "OSError", "IOError",
    "ArithmeticError", "ZeroDivisionError",
    "StopIteration",
})


def _is_telemetry_module(ctx: ModuleContext) -> bool:
    return "telemetry" in ctx.path_parts


@register_checker
class TimingDisciplineChecker(Checker):
    """RPR001: wall-clock reads outside ``repro.telemetry``."""

    rule_id = "RPR001"
    title = ("timing-discipline: stdlib clock calls outside repro.telemetry "
             "(use telemetry.stage()/Tracer.span())")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _is_telemetry_module(ctx):
            return
        reported: set[tuple[int, str]] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Load):
                continue
            dotted = ctx.resolve(node)
            if dotted in BANNED_CLOCKS:
                key = (node.lineno, dotted)
                if key in reported:
                    continue
                reported.add(key)
                yield ctx.finding(
                    node, self.rule_id,
                    f"{dotted} bypasses the telemetry clock; time this "
                    f"block with repro.telemetry.stage() or Tracer.span()",
                )


@register_checker
class RngDisciplineChecker(Checker):
    """RPR002: global-state numpy.random usage."""

    rule_id = "RPR002"
    title = ("rng-discipline: no np.random.seed / legacy module-level "
             "draws / unseeded default_rng() — inject a seeded "
             "np.random.Generator")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        reported: set[tuple[int, str]] = set()
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call) and _unseeded(node):
                dotted = ctx.resolve(node.func)
                member = (dotted or "").rpartition(".")[2]
                if (dotted == f"numpy.random.{member}"
                        and member in NEEDS_SEED_NP_RANDOM):
                    yield ctx.finding(
                        node, self.rule_id,
                        f"numpy.random.{member}() without a seed draws OS "
                        f"entropy, breaking DSE reproducibility; pass the "
                        f"run's seed (np.random.default_rng(seed))",
                    )
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            dotted = ctx.resolve(node)
            if dotted is None:
                continue
            member = None
            if dotted.startswith("numpy.random."):
                member = dotted.split(".", 2)[2]
            if member is None or "." in member or (
                    member not in BANNED_NP_RANDOM):
                continue
            key = (node.lineno, dotted)
            if key in reported:
                continue
            reported.add(key)
            hint = ("seed a Generator once at the entry point"
                    if member in ("seed", "set_state", "get_state")
                    else "draw from an injected np.random.Generator")
            yield ctx.finding(
                node, self.rule_id,
                f"numpy.random.{member} uses hidden global RNG state, "
                f"breaking DSE reproducibility; {hint} "
                f"(np.random.default_rng(seed))",
            )


def _unseeded(call: ast.Call) -> bool:
    """No argument at all, or a literal ``None`` as the only one."""
    args = list(call.args) + [kw.value for kw in call.keywords]
    if not args:
        return True
    return (len(args) == 1 and isinstance(args[0], ast.Constant)
            and args[0].value is None)


class _MainTracebackVisitor(ast.NodeVisitor):
    """Does this ``main`` contain a handler for ``ReproError``?"""

    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.handles_repro_error = False

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        types = []
        if isinstance(node.type, ast.Tuple):
            types = node.type.elts
        elif node.type is not None:
            types = [node.type]
        for t in types:
            dotted = self.ctx.resolve(t) or ""
            if dotted.split(".")[-1] == "ReproError":
                self.handles_repro_error = True
        self.generic_visit(node)


@register_checker
class ErrorPolicyChecker(Checker):
    """RPR003: bare builtin raises and traceback-leaking CLI mains."""

    rule_id = "RPR003"
    title = ("error-policy: raise the repro.errors hierarchy, not bare "
             "builtins; CLI main() must catch ReproError")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        local_classes = {
            n.name for n in ast.walk(ctx.tree) if isinstance(n, ast.ClassDef)
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Raise):
                yield from self._check_raise(ctx, node, local_classes)
        # The traceback rule applies to module-level CLI entry points only.
        for node in ctx.tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "main":
                yield from self._check_main(ctx, node)

    def _check_raise(self, ctx: ModuleContext, node: ast.Raise,
                     local_classes: set[str]) -> Iterator[Finding]:
        exc = node.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        if exc is None:  # bare ``raise`` re-raise: always fine
            return
        dotted = ctx.resolve(exc)
        if dotted in BANNED_RAISES and dotted not in local_classes:
            yield ctx.finding(
                node, self.rule_id,
                f"raise {dotted} from library code; raise a "
                f"repro.errors.ReproError subclass so callers can catch "
                f"library failures without masking bugs",
            )

    def _check_main(self, ctx: ModuleContext,
                    node: ast.FunctionDef) -> Iterator[Finding]:
        visitor = _MainTracebackVisitor(ctx)
        visitor.visit(node)
        if not visitor.handles_repro_error:
            yield ctx.finding(
                node, self.rule_id,
                "CLI entry point main() has no except ReproError handler "
                "and will leak raw tracebacks at users",
            )


#: Process-pool modules only :mod:`repro.jobs` may touch (RPR006).
BANNED_PROCESS_MODULES = ("multiprocessing", "concurrent.futures")

#: Thread/session lifecycle primitives (RPR006 serve-discipline arm):
#: spawning threads outside the two layers that own concurrent
#: lifecycles — :mod:`repro.jobs` (worker pool) and :mod:`repro.serve`
#: (the scheduler thread) — hides unsupervised concurrency from both.
#: Synchronisation primitives (``Lock``/``Condition``/``Event``/
#: ``local``) stay legal everywhere: guarding state is fine, *owning a
#: lifecycle* is the restricted act.
BANNED_THREAD_LIFECYCLE = frozenset({
    "threading.Thread", "threading.Timer",
    "_thread.start_new_thread",
})

#: Sync-primitive constructors the module-scope arm of RPR006 flags
#: outside :mod:`repro.jobs` / :mod:`repro.serve`: a module-level lock
#: is process-wide mutable state — it outlives every engine/pool
#: instance, aliases unrelated callers into one contention domain, and
#: is exactly what made ``loadgen._PACER`` shared across runs.  Inside
#: a class (or a function) the same constructors stay legal anywhere.
MODULE_SCOPE_SYNC = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Event", "threading.Semaphore",
    "threading.BoundedSemaphore", "threading.Barrier",
})


def _is_jobs_module(ctx: ModuleContext) -> bool:
    return "jobs" in ctx.path_parts


def _is_lifecycle_module(ctx: ModuleContext) -> bool:
    return "jobs" in ctx.path_parts or "serve" in ctx.path_parts


def _banned_process_module(module: str) -> str | None:
    """The banned root of ``module``, or ``None`` if it is allowed."""
    for banned in BANNED_PROCESS_MODULES:
        if module == banned or module.startswith(banned + "."):
            return banned
    return None


@register_checker
class ProcessDisciplineChecker(Checker):
    """RPR006: process-pool primitives outside ``repro.jobs``."""

    rule_id = "RPR006"
    title = ("process-discipline: no multiprocessing/concurrent.futures "
             "outside repro.jobs, no thread lifecycles or module-scope "
             "locks outside repro.jobs/repro.serve")

    _HINT = ("spawn work through repro.jobs (WorkerPool/JobRunner) so it "
             "gets seeded RNG streams, timeouts, retries and telemetry")

    _THREAD_HINT = ("session/thread lifecycles belong to repro.serve "
                    "(ServeEngine scheduler) or repro.jobs; elsewhere a "
                    "spawned thread escapes every budget, drop policy and "
                    "stats report")

    _MODULE_LOCK_HINT = ("a module-level sync primitive is process-wide "
                         "shared state aliasing every caller into one "
                         "contention domain; make it an instance attribute "
                         "or a local of the function that needs it")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        yield from self._check_process(ctx)
        yield from self._check_thread_lifecycle(ctx)
        yield from self._check_module_locks(ctx)

    def _check_process(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _is_jobs_module(ctx):
            return
        reported: set[int] = set()

        def flag(node: ast.AST, what: str) -> Iterator[Finding]:
            if node.lineno in reported:
                return
            reported.add(node.lineno)
            yield ctx.finding(node, self.rule_id,
                              f"{what} outside repro.jobs; {self._HINT}")

        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    banned = _banned_process_module(alias.name)
                    if banned is not None:
                        yield from flag(node, f"import {alias.name}")
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if node.level:  # relative import: stays inside repro
                    continue
                banned = _banned_process_module(module)
                if banned is None and module == "concurrent":
                    if any(a.name == "futures" for a in node.names):
                        banned = "concurrent.futures"
                if banned is not None:
                    yield from flag(node, f"import from {module or banned}")
            elif isinstance(node, (ast.Attribute, ast.Name)):
                # import concurrent; concurrent.futures.ProcessPoolExecutor
                dotted = ctx.resolve(node)
                if dotted and _banned_process_module(dotted) and "." in dotted:
                    yield from flag(node, f"use of {dotted}")

    def _check_thread_lifecycle(self, ctx: ModuleContext) -> Iterator[Finding]:
        if _is_lifecycle_module(ctx):
            return
        reported: set[tuple[int, str]] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            dotted = ctx.resolve(node)
            if dotted not in BANNED_THREAD_LIFECYCLE:
                continue
            key = (node.lineno, dotted)
            if key in reported:
                continue
            reported.add(key)
            yield ctx.finding(
                node, self.rule_id,
                f"{dotted} outside repro.jobs/repro.serve; "
                f"{self._THREAD_HINT}",
            )

    def _check_module_locks(self, ctx: ModuleContext) -> Iterator[Finding]:
        """lock-at-module-scope arm: flag module-level sync primitives."""
        if _is_lifecycle_module(ctx):
            return
        for stmt in ctx.tree.body:
            value = None
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            if not isinstance(value, ast.Call):
                continue
            dotted = ctx.resolve(value.func)
            if dotted not in MODULE_SCOPE_SYNC:
                continue
            yield ctx.finding(
                stmt, self.rule_id,
                f"module-scope {dotted}() outside repro.jobs/repro.serve; "
                f"{self._MODULE_LOCK_HINT}",
            )


def _contract_decorators(ctx: ModuleContext,
                         func: ast.FunctionDef) -> list[ast.Call]:
    calls = []
    for deco in func.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        dotted = ctx.resolve(deco.func) or ""
        if dotted.split(".")[-1] == "contract":
            calls.append(deco)
    return calls


@register_checker
class ContractSyntaxChecker(Checker):
    """RPR005: ``@contract`` declarations a static reader cannot see."""

    rule_id = "RPR005"
    title = ("contract-validation: @contract declares each parameter as a "
             "string literal keyword, with no **spread")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(self, ctx: ModuleContext,
                        func: ast.FunctionDef) -> Iterator[Finding]:
        for deco in _contract_decorators(ctx, func):
            for kw in deco.keywords:
                if kw.arg is None:  # **spread — opaque to static checking
                    yield ctx.finding(
                        deco, self.rule_id,
                        f"@contract on {func.name} uses **kwargs spread; "
                        f"declare contracts literally so they can be "
                        f"checked statically",
                    )
                elif not (isinstance(kw.value, ast.Constant)
                          and isinstance(kw.value.value, str)):
                    yield ctx.finding(
                        kw.value, self.rule_id,
                        f"@contract on {func.name}: {kw.arg} must be a "
                        f"string literal contract",
                    )


#: numpy allocators whose *default* dtype is float64.
DEFAULT_F64_ALLOCATORS = frozenset({
    "numpy.zeros", "numpy.ones", "numpy.empty", "numpy.full",
})

#: dtype spellings that request float64.
F64_DTYPE_STRINGS = frozenset({"float64", "f8", "d", "double"})
F64_DTYPE_NAMES = frozenset({"float", "numpy.float64", "numpy.double"})

#: Inline waiver for a deliberate float64 (e.g. the ICP normal-equation
#: solver, which is float64 *by design* — see DESIGN.md S17).
F64_WAIVER = "# f64-ok:"


def _is_hot_path_module(ctx: ModuleContext) -> bool:
    """``repro/perf/**`` and ``kfusion/pipeline.py``: the code the fast
    and sparse backends run."""
    parts = ctx.path_parts
    return "perf" in parts or parts[-2:] == ("kfusion", "pipeline.py")


@register_checker
class DtypeDisciplineChecker(Checker):
    """RPR007: float64 temporaries in hot-path per-frame kernels."""

    rule_id = "RPR007"
    title = ("dtype-discipline: no float64 temporaries in repro/perf "
             "and kfusion/pipeline.py — allocate float32 (waive "
             "deliberate float64 with '# f64-ok: <reason>')")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if not _is_hot_path_module(ctx):
            return
        reported: set[tuple[int, int]] = set()

        def waived(node: ast.AST) -> bool:
            line = ctx.lines[node.lineno - 1] if (
                0 < node.lineno <= len(ctx.lines)) else ""
            return F64_WAIVER in line

        def flag(node: ast.AST, message: str) -> Iterator[Finding]:
            key = (node.lineno, getattr(node, "col_offset", 0))
            if key in reported or waived(node):
                return
            reported.add(key)
            yield ctx.finding(node, self.rule_id, message)

        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = ctx.resolve(node.func)

            if dotted in DEFAULT_F64_ALLOCATORS:
                dtype_kw = next((kw for kw in node.keywords
                                 if kw.arg == "dtype"), None)
                if dtype_kw is None:
                    yield from flag(
                        node,
                        f"{dotted}() without dtype allocates float64 in a "
                        f"hot-path kernel; pass dtype=np.float32 (or take "
                        f"a workspace buffer)",
                    )
                    continue

            for kw in node.keywords:
                if kw.arg == "dtype" and _is_f64_dtype(ctx, kw.value):
                    yield from flag(
                        kw.value,
                        "explicit float64 dtype in a hot-path kernel; use "
                        "np.float32 (float64 belongs in the solver only)",
                    )

            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "astype" and node.args
                    and _is_f64_dtype(ctx, node.args[0])):
                yield from flag(
                    node,
                    ".astype(float64) materialises a float64 copy in a "
                    "hot-path kernel; cast to np.float32",
                )


def _is_f64_dtype(ctx: ModuleContext, node: ast.AST) -> bool:
    """Does this dtype expression request float64?"""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value in F64_DTYPE_STRINGS
    dotted = ctx.resolve(node)
    return dotted in F64_DTYPE_NAMES
