"""Whole-program effect inference over the call graph.

Every function in the :class:`~repro.analysis.callgraph.CallGraph` gets
an **effect set** drawn from a small fixed vocabulary
(:data:`repro.contracts.EFFECTS`, plus ``raises(T)``):

``time``
    reads a wall/process clock (the RPR001 ``BANNED_CLOCKS`` patterns).
``rng``
    draws from a global random stream (RPR002 patterns plus the stdlib
    ``random`` module).
``io``
    touches files or streams (``open``/``print``/``input``, numpy and
    json (de)serialisation, ``os``/``shutil``/``pathlib`` file ops).
``process``
    spawns or manages processes (RPR006 modules, ``subprocess``,
    ``os.system``/``os.fork``/...).
``global-write``
    rebinding or mutating module-level state (``global`` declarations,
    stores into module-level names, mutating calls on them).
``raises(T)``
    may raise exception type ``T`` (resolvable ``raise`` statements).

Effects are **seeded** from intrinsic AST patterns (the same pattern
tables the per-file rules RPR001/2/6 use, so the two views cannot
drift), then **propagated** caller <- callee to a deterministic
fixpoint by the shared worklist solver
(:func:`~repro.analysis.callgraph.solve_worklist`).  Two owner
packages *absorb* the effect they exist to encapsulate —
``repro.telemetry`` absorbs ``time``, ``repro.jobs`` absorbs
``process`` — so a kernel that times itself *through telemetry* is
clean while one calling ``time.time()`` directly is not.

For every propagated effect the engine keeps one ``via`` pointer per
(function, effect), forming acyclic chains back to a concrete seed
site; :func:`effect_chain` reconstructs the ``a -> b -> c`` path that
RPR009 findings print.

A seed line may carry ``# effect-ok: <reason>`` to waive the intrinsic
effect at source with a documented justification (mirroring the
``# f64-ok:`` convention of RPR007).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .callgraph import (
    CallGraph,
    FunctionNode,
    in_package,
    iter_own_nodes,
    solve_worklist,
)
from .checkers import BANNED_CLOCKS, BANNED_NP_RANDOM, BANNED_PROCESS_MODULES
from .framework import dotted_name

#: Inline waiver marker: suppresses the intrinsic seed on its line.
EFFECT_WAIVER = "# effect-ok:"

#: stdlib global-stream RNG calls (module ``random``).
RNG_STDLIB_CALLS = frozenset({
    "random", "randint", "randrange", "uniform", "gauss", "normalvariate",
    "choice", "choices", "sample", "shuffle", "seed", "betavariate",
    "expovariate", "triangular",
})

#: io: exact dotted call targets.
IO_CALLS = frozenset({
    "open", "print", "input",
    "numpy.save", "numpy.savez", "numpy.savez_compressed", "numpy.load",
    "numpy.savetxt", "numpy.loadtxt", "numpy.fromfile", "numpy.genfromtxt",
    "json.dump", "json.load",
    "os.remove", "os.unlink", "os.rename", "os.replace", "os.makedirs",
    "os.mkdir", "os.rmdir", "os.listdir", "os.scandir", "os.stat",
    "shutil.copy", "shutil.copy2", "shutil.copyfile", "shutil.copytree",
    "shutil.rmtree", "shutil.move",
    "tempfile.mkdtemp", "tempfile.mkstemp",
    "sys.stdout.write", "sys.stderr.write",
})

#: io: method names on arbitrary objects (Path / file-handle heuristic).
IO_METHOD_NAMES = frozenset({
    "read_text", "write_text", "read_bytes", "write_bytes",
    "mkdir", "rmdir", "unlink", "touch", "glob", "rglob", "iterdir",
    "readline", "readlines", "writelines", "flush", "to_csv", "tofile",
})

#: process: exact dotted call targets outside the RPR006 module ban.
PROCESS_CALLS = frozenset({
    "subprocess.run", "subprocess.Popen", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    "os.system", "os.popen", "os.fork", "os.spawnv", "os.spawnl",
    "os.execv", "os.execve", "os.kill", "os.waitpid",
})

#: method names that mutate their receiver in place.
MUTATING_METHOD_NAMES = frozenset({
    "append", "extend", "insert", "remove", "pop", "clear", "update",
    "add", "discard", "setdefault", "sort", "popitem", "fill", "sorted",
})

#: Effect -> packages allowed to *absorb* it (propagation stops there).
DEFAULT_ABSORB: dict[str, tuple[str, ...]] = {
    "time": ("repro.telemetry",),
    "process": ("repro.jobs",),
}


@dataclass(frozen=True)
class Seed:
    """One intrinsic effect occurrence: the concrete AST pattern site."""

    effect: str
    call: str  #: textual pattern that matched (e.g. ``time.perf_counter``)
    path: str
    lineno: int


@dataclass
class EffectInfo:
    """Inferred effects for one function."""

    qname: str
    effects: set[str] = field(default_factory=set)
    #: effect -> intrinsic seeds in this very function
    seeds: dict[str, list[Seed]] = field(default_factory=dict)
    #: effect -> direct callee the effect arrived through (propagated)
    via: dict[str, str] = field(default_factory=dict)


class EffectAnalysis:
    """Seeded + propagated effect sets for a whole call graph."""

    def __init__(self, graph: CallGraph,
                 absorb: dict[str, tuple[str, ...]] | None = None):
        self.graph = graph
        self.absorb = dict(DEFAULT_ABSORB if absorb is None else absorb)
        self.info: dict[str, EffectInfo] = {
            q: EffectInfo(q) for q in graph.functions
        }
        self._modnames: dict[str, frozenset[str]] = {}
        for qname, node in graph.functions.items():
            self._seed_function(qname, node, graph.sources.get(node.path, []))
        self._propagate()

    # -- seeding -------------------------------------------------------------

    def _waived(self, lines: list[str], lineno: int) -> bool:
        """Waived if the seed line (or a comment line right above it)
        carries ``# effect-ok: <reason>``."""
        if not 1 <= lineno <= len(lines):
            return False
        if EFFECT_WAIVER in lines[lineno - 1]:
            return True
        prev = lines[lineno - 2].strip() if lineno >= 2 else ""
        return prev.startswith("#") and EFFECT_WAIVER in prev

    def _seed_function(self, qname: str, node: FunctionNode,
                       lines: list[str]) -> None:
        info = self.info[qname]

        def seed(effect: str, call: str, lineno: int) -> None:
            if self._waived(lines, lineno):
                return
            info.effects.add(effect)
            info.seeds.setdefault(effect, []).append(
                Seed(effect, call, node.path, lineno))

        # pattern-matched effects on external (stdlib/third-party) calls
        for site in node.external:
            target = site.target
            head, _, attr = target.rpartition(".")
            if target in BANNED_CLOCKS:
                seed("time", target, site.lineno)
            elif head == "numpy.random" and attr in BANNED_NP_RANDOM:
                seed("rng", target, site.lineno)
            elif head == "random" and attr in RNG_STDLIB_CALLS:
                seed("rng", target, site.lineno)
            elif target in IO_CALLS:
                seed("io", target, site.lineno)
            elif (target in PROCESS_CALLS
                  or in_package(target, BANNED_PROCESS_MODULES)):
                seed("process", target, site.lineno)
            elif attr in IO_METHOD_NAMES:
                seed("io", target, site.lineno)

        # io/mutation heuristics also apply to *unresolved* method calls
        # (receiver is a parameter or dynamic) — better a coarse seed
        # than a silent miss.
        for site in node.unresolved:
            attr = site.target.rpartition(".")[2]
            if attr in IO_METHOD_NAMES:
                seed("io", site.target, site.lineno)

        # syntactic effects need the AST of this function
        func_ast = node.ast_node
        if func_ast is None:
            return
        module_names = self._module_level_names(node.module)
        for stmt in iter_own_nodes(func_ast):
            if isinstance(stmt, ast.Global):
                seed("global-write", f"global {', '.join(stmt.names)}",
                     stmt.lineno)
            elif isinstance(stmt, ast.Raise):
                t = _raised_type(stmt)
                if t is not None:
                    seed(f"raises({t})", t, stmt.lineno)
            elif isinstance(stmt, (ast.Assign, ast.AugAssign)):
                for tgt in _store_roots(stmt):
                    if tgt in module_names:
                        seed("global-write", tgt, stmt.lineno)
            elif isinstance(stmt, ast.Call):
                dotted = dotted_name(stmt.func)
                if dotted is None:
                    continue
                root, _, rest = dotted.partition(".")
                if (root in module_names and rest
                        and rest.rpartition(".")[2]
                        in MUTATING_METHOD_NAMES):
                    seed("global-write", dotted, stmt.lineno)

    def _module_level_names(self, module: str) -> frozenset[str]:
        """Root names the module body stores to (``x = ...`` counts
        here, unlike in functions)."""
        names = self._modnames.get(module)
        if names is None:
            body = self.graph.functions.get(f"{module}.<module>")
            found: set[str] = set()
            for stmt in getattr(getattr(body, "ast_node", None), "body", ()):
                if isinstance(stmt, (ast.Assign, ast.AugAssign,
                                     ast.AnnAssign)):
                    for tgt in assign_targets(stmt):
                        while isinstance(tgt, (ast.Subscript, ast.Attribute)):
                            tgt = tgt.value
                        if isinstance(tgt, ast.Name):
                            found.add(tgt.id)
            names = self._modnames[module] = frozenset(found)
        return names

    # -- propagation ---------------------------------------------------------
    def _absorbs(self, module: str, effect: str) -> bool:
        return in_package(module, self.absorb.get(effect, ()))

    def _propagate(self) -> None:
        callers = self.graph.callers_of()

        def push(qname: str) -> list[str]:
            """Push ``qname``'s effects into its callers; return the
            callers that gained one."""
            effects = self.info[qname].effects
            module = self.graph.functions[qname].module
            gained = []
            for caller in sorted(callers.get(qname, ())):
                cinfo = self.info[caller]
                for effect in sorted(effects):
                    if (not effect.startswith("raises(")
                            and self._absorbs(module, effect)):
                        continue  # the owner package keeps its effect
                    if effect in cinfo.effects:
                        continue
                    cinfo.effects.add(effect)
                    cinfo.via[effect] = qname
                    gained.append(caller)
            return gained

        solve_worklist(self.info, push)

    # -- queries -------------------------------------------------------------
    def effect_chain(self, qname: str, effect: str) -> list[str]:
        """Call chain ``[qname, ..., seeder]`` for a (propagated) effect."""
        chain = [qname]
        seen = {qname}
        while True:
            info = self.info.get(chain[-1])
            if info is None or effect in info.seeds:
                return chain
            nxt = info.via.get(effect)
            if nxt is None or nxt in seen:
                return chain
            seen.add(nxt)
            chain.append(nxt)

    def seed_of(self, qname: str, effect: str) -> Seed | None:
        """The concrete seed a (propagated) effect traces back to."""
        tail = self.effect_chain(qname, effect)[-1]
        seeds = self.info[tail].seeds.get(effect)
        return seeds[0] if seeds else None

    def effect_sets(self) -> dict[str, list[str]]:
        """``qname -> sorted effects`` for every function with any."""
        return {
            q: sorted(info.effects)
            for q, info in sorted(self.info.items())
            if info.effects
        }


def _raised_type(stmt: ast.Raise) -> str | None:
    exc = stmt.exc
    if isinstance(exc, ast.Call):
        exc = exc.func
    dotted = dotted_name(exc)
    return dotted.rpartition(".")[2] if dotted is not None else None


def assign_targets(stmt: ast.AST) -> list[ast.AST]:
    """The store targets of an assignment or ``del`` statement."""
    if isinstance(stmt, (ast.Assign, ast.Delete)):
        return list(stmt.targets)
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return [stmt.target]
    return []


def _store_roots(stmt: ast.AST) -> list[str]:
    """Root names *mutated* by an assignment inside a function body.

    A bare ``x = ...`` in a function is a local rebind, not a module
    write; only subscript/attribute stores (and augmented assignment)
    reach through the name to shared state.
    """
    roots = []
    for tgt in assign_targets(stmt):
        node = tgt
        while isinstance(node, (ast.Subscript, ast.Attribute)):
            node = node.value
        if isinstance(node, ast.Name):
            if node is not tgt or isinstance(stmt, ast.AugAssign):
                roots.append(node.id)
    return roots

