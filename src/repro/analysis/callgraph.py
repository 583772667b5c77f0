"""Project-wide call-graph construction from ASTs (no imports executed).

The transitive rules (RPR008-RPR009, :mod:`repro.analysis.effects`) need
to know *who calls whom* across the whole tree, not just what one file
spells.  :func:`build_callgraph` turns the parsed
:class:`~repro.analysis.framework.ModuleContext` set into a
:class:`CallGraph`:

* **module naming** — a file's dotted module name is derived from its
  path relative to the last ``<root_package>/`` directory component
  (``src/repro/perf/raycast.py`` -> ``repro.perf.raycast``), so the
  graph works on the real tree, on scratch copies, and on synthetic
  fixtures alike.  Files outside the root package are ignored.
* **name resolution** — every module gets a symbol table of its defs,
  classes, and imports (relative imports absolutized against the
  module's package).  Dotted references are resolved through re-export
  chains (``repro.perf.raycast_model`` -> the def in
  ``repro.perf.raycast``) with a cycle guard.
* **method attribution** — ``self.f()`` / ``cls.f()`` resolve through
  the enclosing class and its first-party bases; ``x = Cls(...)`` then
  ``x.f()`` resolves through the local constructor type;
  ``Cls.f(...)`` and bare ``Cls(...)`` (-> ``Cls.__init__``) resolve
  directly.
* **honest failure** — calls the resolver cannot attribute (dynamic
  dispatch through registries, methods on parameters, ...) are recorded
  per-function in :attr:`FunctionNode.unresolved`; calls into
  stdlib/third-party code land in :attr:`FunctionNode.external` so the
  effect engine can match them against its intrinsic patterns.  Nothing
  is silently dropped.

Module-level statements are attributed to a pseudo-function named
``<module>`` per module, so import-time calls (registry population,
table precomputation) stay visible in exports without polluting the
per-function budget checks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from .framework import ModuleContext, dotted_name, param_names

#: Default first-party root package.
ROOT_PACKAGE = "repro"

#: Pseudo-function holding a module's top-level statements.
MODULE_BODY = "<module>"


def module_name_for(path: str, root_package: str = ROOT_PACKAGE) -> str | None:
    """Dotted module name for ``path``, or ``None`` if outside the root.

    The *last* path component equal to ``root_package`` anchors the
    name, so ``/tmp/x/repro/kfusion/a.py`` -> ``repro.kfusion.a`` and
    ``src/repro/cli.py`` -> ``repro.cli``.  ``__init__.py`` names the
    package itself.
    """
    parts = Path(path).parts
    if not parts or not parts[-1].endswith(".py"):
        return None
    stem = parts[-1][:-3]
    dirs = parts[:-1]
    anchor = None
    for i in range(len(dirs) - 1, -1, -1):
        if dirs[i] == root_package:
            anchor = i
            break
    if anchor is None:
        return None
    mods = list(dirs[anchor:])
    if stem != "__init__":
        mods.append(stem)
    return ".".join(mods)


def in_package(name: str, packages: Iterable[str]) -> bool:
    """Whether dotted ``name`` is one of ``packages`` or inside one."""
    return any(name == p or name.startswith(p + ".") for p in packages)


@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    target: str  #: textual target (dotted, best effort)
    lineno: int


@dataclass
class FunctionNode:
    """One function (or method, or the ``<module>`` pseudo-function)."""

    qname: str
    module: str
    path: str
    lineno: int
    #: resolved first-party callees (qnames into :attr:`CallGraph.functions`)
    calls: set[str] = field(default_factory=set)
    #: resolved callees with their call sites (concurrency analysis needs
    #: per-site lock contexts; ``calls`` is the deduplicated view)
    resolved_sites: list[CallSite] = field(default_factory=list)
    #: dotted stdlib/third-party calls, with sites (effect-seed matching)
    external: list[CallSite] = field(default_factory=list)
    #: calls we could not attribute — recorded, never dropped
    unresolved: list[CallSite] = field(default_factory=list)
    #: the function's AST (module AST for ``<module>`` pseudo-functions)
    ast_node: ast.AST | None = field(default=None, repr=False, compare=False)


@dataclass
class ClassNode:
    """A class definition: its methods and (dotted) base names."""

    qname: str
    module: str
    bases: list[str] = field(default_factory=list)
    methods: dict[str, str] = field(default_factory=dict)
    #: attribute name -> class qname inferred from ``self._x = Cls(...)``
    #: assignments in method bodies ("" marks conflicting assignments)
    attr_types: dict[str, str] = field(default_factory=dict)
    #: attribute name -> element class qname from container annotations
    #: (``self._xs: dict[str, Cls] = {}`` / ``list[Cls]``)
    attr_elem_types: dict[str, str] = field(default_factory=dict)


@dataclass(frozen=True)
class ImportEdge:
    """One first-party import statement (eager or function-nested)."""

    from_module: str
    target: str  #: absolute dotted target (module or symbol)
    path: str
    lineno: int
    lazy: bool  #: imported inside a function body (deferred seam)


class CallGraph:
    """The resolved whole-program graph."""

    def __init__(self, root_package: str = ROOT_PACKAGE):
        self.root_package = root_package
        self.modules: dict[str, str] = {}  #: module -> path
        self.sources: dict[str, list[str]] = {}  #: path -> source lines
        self.functions: dict[str, FunctionNode] = {}
        self.classes: dict[str, ClassNode] = {}
        self.import_edges: list[ImportEdge] = []
        self._symbols: dict[str, dict[str, str]] = {}
        #: module-level ``x: ContextVar[Cls]``-style element annotations
        self.module_elem_types: dict[str, dict[str, str]] = {}

    # -- symbol resolution --------------------------------------------------
    def resolve_function(self, dotted: str) -> str | None:
        """Resolve a dotted first-party reference to a function qname."""
        target = self._resolve(dotted)
        if target is None:
            return None
        kind, qname = target
        if kind == "func":
            return qname
        if kind == "class":
            init = self.classes[qname].methods.get("__init__")
            if init is not None:
                return init
            # constructor of an un-__init__'d (e.g. dataclass) class: no
            # body of its own to analyze.
            return None
        return None

    def resolve_class(self, dotted: str) -> str | None:
        target = self._resolve(dotted)
        if target is not None and target[0] == "class":
            return target[1]
        return None

    def _resolve(self, dotted: str,
                 _seen: frozenset = frozenset()) -> tuple[str, str] | None:
        """``("func"|"class"|"module", qname)`` for a dotted reference."""
        if dotted in _seen or len(_seen) > 32:
            return None
        _seen = _seen | {dotted}
        if dotted in self.functions:
            return ("func", dotted)
        if dotted in self.classes:
            return ("class", dotted)
        # Longest module prefix, then walk the attribute chain through
        # symbol tables (following re-exports) and class members.
        parts = dotted.split(".")
        for cut in range(len(parts), 0, -1):
            prefix = ".".join(parts[:cut])
            if prefix not in self.modules:
                continue
            rest = parts[cut:]
            if not rest:
                return ("module", prefix)
            head, tail = rest[0], rest[1:]
            # submodule takes priority over a same-named symbol
            if f"{prefix}.{head}" in self.modules and tail:
                continue  # a longer cut already tried; unreachable, but safe
            symbol = self._symbols.get(prefix, {}).get(head)
            if symbol is None:
                return None
            resolved = self._resolve(symbol, _seen)
            if resolved is None:
                return None
            if not tail:
                return resolved
            kind, qname = resolved
            if kind == "class":
                method = self._class_method(qname, ".".join(tail))
                if method is not None:
                    return ("func", method)
                return None
            if kind == "module":
                return self._resolve(f"{qname}.{'.'.join(tail)}", _seen)
            return None
        return None

    def attr_type(self, class_qname: str, attr: str) -> str | None:
        """Class qname of ``self.<attr>`` from constructor assignments."""
        return self._attr_lookup(class_qname, attr, "attr_types")

    def attr_elem_type(self, class_qname: str, attr: str) -> str | None:
        """Element class of a container attribute (``dict[str, Cls]``)."""
        return self._attr_lookup(class_qname, attr, "attr_elem_types")

    def _attr_lookup(self, class_qname: str, attr: str, table: str,
                     _depth: int = 0) -> str | None:
        if _depth > 16:
            return None
        node = self.classes.get(class_qname)
        if node is None:
            return None
        typed = getattr(node, table).get(attr)
        if typed:
            return typed
        if typed == "":
            return None  # conflicting assignments: honest failure
        for base in node.bases:
            base_cls = self.resolve_class(base)
            if base_cls is not None:
                found = self._attr_lookup(base_cls, attr, table, _depth + 1)
                if found is not None:
                    return found
        return None

    def _class_method(self, class_qname: str, attr: str,
                      _depth: int = 0) -> str | None:
        """Look up ``attr`` as a method on the class or first-party bases."""
        if "." in attr or _depth > 16:
            return None
        node = self.classes.get(class_qname)
        if node is None:
            return None
        if attr in node.methods:
            return node.methods[attr]
        for base in node.bases:
            base_cls = self.resolve_class(base)
            if base_cls is not None:
                found = self._class_method(base_cls, attr, _depth + 1)
                if found is not None:
                    return found
        return None

    # -- derived views -------------------------------------------------------
    def callers_of(self) -> dict[str, set[str]]:
        """Reverse edge map: callee qname -> caller qnames."""
        rev: dict[str, set[str]] = {q: set() for q in self.functions}
        for qname, node in self.functions.items():
            for callee in node.calls:
                rev.setdefault(callee, set()).add(qname)
        return rev

    def module_call_edges(self) -> set[tuple[str, str]]:
        """Distinct cross-module ``(caller_module, callee_module)`` pairs."""
        edges = set()
        for node in self.functions.values():
            for callee in node.calls:
                target = self.functions[callee]
                if target.module != node.module:
                    edges.add((node.module, target.module))
        return edges


def solve_worklist(start: Iterable[str],
                   visit: Callable[[str], Iterable[str]]) -> None:
    """The one fixpoint driver of the whole-program analyses.

    ``visit(node)`` updates the caller's state for ``node`` and returns
    the nodes that must be visited again because of that update.  The
    solver visits ``start`` first, then round by round every node the
    previous round queued, each round in sorted order, until a round
    queues nothing.  The fixed visiting order makes every derived
    artefact deterministic: effect ``via`` chains, thread-discovery
    trees, and lockset fixpoints.
    """
    pending = sorted(set(start))
    while pending:
        queued: set[str] = set()
        for node in pending:
            queued.update(visit(node))
        pending = sorted(queued)


def _package_of(module: str, is_package: bool) -> list[str]:
    parts = module.split(".")
    return parts if is_package else parts[:-1]


def _absolutize(module: str, is_package: bool, node: ast.ImportFrom) -> str:
    """Absolute dotted module targeted by an ``ImportFrom``."""
    if not node.level:
        return node.module or ""
    package = _package_of(module, is_package)
    base = package[: len(package) - (node.level - 1)]
    if node.module:
        base = base + [node.module]
    return ".".join(base)


class _ModuleHarvest:
    """Pass 1 state for one module: symbols, defs, import edges."""

    def __init__(self, ctx: ModuleContext, module: str, is_package: bool):
        self.ctx = ctx
        self.module = module
        self.is_package = is_package
        self.symbols: dict[str, str] = {}
        #: (ast function node, enclosing-class qname or None, qname)
        self.function_bodies: list[tuple[ast.AST, str | None, str]] = []


def _harvest_module(graph: CallGraph, harvest: _ModuleHarvest) -> None:
    ctx, module = harvest.ctx, harvest.module
    root_prefix = graph.root_package + "."

    def note_import(node: ast.AST, target: str, lazy: bool) -> None:
        if target == graph.root_package or target.startswith(root_prefix):
            graph.import_edges.append(ImportEdge(
                from_module=module, target=target, path=ctx.path,
                lineno=node.lineno, lazy=lazy,
            ))

    def bind_import(node: ast.AST, symbols: dict[str, str],
                    lazy: bool) -> None:
        if isinstance(node, ast.Import):
            for alias in node.names:
                symbols[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname
                    else alias.name.split(".")[0])
                note_import(node, alias.name, lazy)
        elif isinstance(node, ast.ImportFrom):
            base = _absolutize(module, harvest.is_package, node)
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                symbols[alias.asname or alias.name] = target
                note_import(node, target, lazy)

    def walk_imports(root: ast.AST, lazy: bool) -> None:
        for node in ast.iter_child_nodes(root):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # function-nested imports: lazy edges only; the names
                # are function-local and handled during call resolution.
                for inner in ast.walk(node):
                    bind_import(inner, {}, lazy=True)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bind_import(node, harvest.symbols, lazy)
            else:
                walk_imports(node, lazy)

    # module-level imports (including under ``if TYPE_CHECKING:`` etc.)
    walk_imports(ctx.tree, lazy=False)

    def add_function(node, class_qname: str | None, scope: str) -> str:
        qname = f"{scope}.{node.name}"
        graph.functions[qname] = FunctionNode(
            qname=qname, module=module, path=ctx.path, lineno=node.lineno,
            ast_node=node)
        harvest.function_bodies.append((node, class_qname, qname))
        return qname

    def add_class(node: ast.ClassDef, scope: str) -> None:
        qname = f"{scope}.{node.name}"
        bases = []
        for b in node.bases:
            dotted = dotted_name(b)
            if dotted is not None:
                bases.append(_expand_alias(harvest.symbols, dotted))
        cls = ClassNode(qname=qname, module=module, bases=bases)
        graph.classes[qname] = cls
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                cls.methods[stmt.name] = add_function(stmt, qname, qname)

    for node in ctx.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            harvest.symbols[node.name] = add_function(node, None, module)
        elif isinstance(node, ast.ClassDef):
            add_class(node, module)
            harvest.symbols[node.name] = f"{module}.{node.name}"

    # the module body pseudo-function (import-time statements)
    body_qname = f"{module}.{MODULE_BODY}"
    graph.functions[body_qname] = FunctionNode(
        qname=body_qname, module=module, path=ctx.path, lineno=1,
        ast_node=ctx.tree)
    harvest.function_bodies.append((ctx.tree, None, body_qname))


def _expand_alias(symbols: dict[str, str], dotted: str) -> str:
    head, _, rest = dotted.partition(".")
    head = symbols.get(head, head)
    return f"{head}.{rest}" if rest else head


def _annotation_class(graph: CallGraph, symbols: dict[str, str],
                      node: ast.AST | None) -> str | None:
    """Resolve a simple annotation expression to a first-party class.

    Handles ``Cls``, ``pkg.Cls``, ``Cls | None`` unions, and quoted
    forward references; anything fancier resolves to ``None``.
    """
    if node is None:
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        return (_annotation_class(graph, symbols, node.left)
                or _annotation_class(graph, symbols, node.right))
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
        return _annotation_class(graph, symbols, node)
    dotted = dotted_name(node)
    if dotted is None:
        return None
    return graph.resolve_class(_expand_alias(symbols, dotted))


def _container_elem_annotation(graph: CallGraph, symbols: dict[str, str],
                               node: ast.AST | None) -> str | None:
    """Element class of a ``dict[K, V]`` / ``list[V]``-style annotation.

    For mappings the *value* type is the element (``.values()`` /
    subscript reads are what the resolver types through it).
    """
    if not isinstance(node, ast.Subscript):
        return None
    base = dotted_name(node.value)
    if base is None:
        return None
    base = base.rpartition(".")[2].lower()
    sl = node.slice
    if base == "dict":
        if isinstance(sl, ast.Tuple) and len(sl.elts) == 2:
            return _annotation_class(graph, symbols, sl.elts[1])
        return None
    if base in ("list", "set", "frozenset", "deque", "sequence",
                "iterable", "tuple", "contextvar"):
        elt = (sl.elts[0] if isinstance(sl, ast.Tuple) and sl.elts else sl)
        return _annotation_class(graph, symbols, elt)
    return None


def iter_own_nodes(root: ast.AST) -> Iterable[ast.AST]:
    """Walk ``root``'s body without descending into nested def/class.

    For a function root, decorators / parameter defaults / annotations
    are excluded: they evaluate at *definition* time, not call time.
    """
    stack = list(getattr(root, "body", None) or ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _harvest_attr_types(graph: CallGraph, harvest: _ModuleHarvest) -> None:
    """Record ``self._x = Cls(...)`` attribute types on the class node.

    Runs after every module's symbol table exists (cross-module
    constructors resolve) but before call resolution, so ``self._x.m()``
    attributes to ``Cls.m`` regardless of method definition order.
    Conflicting assignments of the same attribute to different classes
    poison the entry ("" -> honest resolution failure).
    """
    symbols = harvest.symbols
    # Module-level ``x: ContextVar[Cls] = ...`` element annotations let
    # ``x.get()`` results type as Cls in every function of the module.
    for stmt in harvest.ctx.tree.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        elem = _container_elem_annotation(graph, symbols, stmt.annotation)
        if elem is not None:
            table = graph.module_elem_types.setdefault(harvest.module, {})
            table[stmt.target.id] = elem
    for func, class_qname, _qname in list(harvest.function_bodies):
        if class_qname is None:
            continue
        cls_node = graph.classes.get(class_qname)
        if cls_node is None:
            continue
        def note(table: dict[str, str], attr: str, attr_cls: str) -> None:
            prev = table.get(attr)
            if prev is None:
                table[attr] = attr_cls
            elif prev != attr_cls:
                table[attr] = ""

        for stmt in iter_own_nodes(func):
            if isinstance(stmt, ast.AnnAssign):
                target = stmt.target
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                elem = _container_elem_annotation(
                    graph, symbols, stmt.annotation)
                if elem is not None:
                    note(cls_node.attr_elem_types, target.attr, elem)
                    continue
                direct = _annotation_class(graph, symbols, stmt.annotation)
                if direct is not None:
                    note(cls_node.attr_types, target.attr, direct)
                continue
            if not (isinstance(stmt, ast.Assign)
                    and isinstance(stmt.value, ast.Call)):
                continue
            ctor = dotted_name(stmt.value.func)
            if ctor is None:
                continue
            attr_cls = graph.resolve_class(_expand_alias(symbols, ctor))
            if attr_cls is None:
                continue
            for target in stmt.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    note(cls_node.attr_types, target.attr, attr_cls)


def _resolve_function_calls(graph: CallGraph, harvest: _ModuleHarvest,
                            func: ast.AST, class_qname: str | None,
                            qname: str) -> None:
    node_out = graph.functions[qname]
    symbols = harvest.symbols
    module = harvest.module
    root_prefix = graph.root_package + "."

    # Local scope: parameters, assigned names, nested defs, local
    # imports, constructor types (``x = Cls(...)`` -> x: Cls).
    local_names = param_names(func)
    nested_funcs: dict[str, str] = {}
    local_types: dict[str, str] = {}
    local_imports: dict[str, str] = {}
    for stmt in iter_own_nodes(func):
        if isinstance(stmt, ast.Import):
            # edges were recorded (lazily) during harvest; bind names only
            for alias in stmt.names:
                local_imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname
                    else alias.name.split(".")[0])
        elif isinstance(stmt, ast.ImportFrom):
            base = _absolutize(module, harvest.is_package, stmt)
            for alias in stmt.names:
                if alias.name != "*":
                    local_imports[alias.asname or alias.name] = (
                        f"{base}.{alias.name}" if base else alias.name)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue  # module-level defs are already module symbols
            nested_qname = f"{qname}.<locals>.{stmt.name}"
            graph.functions[nested_qname] = FunctionNode(
                qname=nested_qname, module=module, path=harvest.ctx.path,
                lineno=stmt.lineno, ast_node=stmt)
            harvest.function_bodies.append((stmt, class_qname, nested_qname))
            nested_funcs[stmt.name] = nested_qname
            local_names.add(stmt.name)
        elif isinstance(stmt, ast.Name) and isinstance(
                stmt.ctx, (ast.Store, ast.Del)):
            local_names.add(stmt.id)

    # Pass 2 — local types, with names and local imports fully known:
    # parameter annotations, constructor assignments, and element reads
    # out of container-annotated attributes.
    def expand(dotted: str) -> str:
        if dotted.partition(".")[0] in local_imports:
            return _expand_alias(local_imports, dotted)
        return _expand_alias(symbols, dotted)

    scope = dict(symbols)
    scope.update(local_imports)

    def value_type(value: ast.AST) -> str | None:
        if isinstance(value, ast.Call):
            dotted = dotted_name(value.func)
            if dotted is None:
                return None
            parts = dotted.split(".")
            # self._xs.get(k) / self._xs.pop(k) on an annotated container
            if (class_qname is not None and parts[0] == "self"
                    and len(parts) == 3 and parts[2] in ("get", "pop")):
                return graph.attr_elem_type(class_qname, parts[1])
            # _current.get() on a module-level annotated ContextVar
            if (len(parts) == 2 and parts[1] == "get"
                    and parts[0] not in local_names):
                elem = graph.module_elem_types.get(module, {}).get(parts[0])
                if elem is not None:
                    return elem
            return graph.resolve_class(expand(dotted))
        if isinstance(value, ast.Subscript):
            v = value.value
            if (class_qname is not None and isinstance(v, ast.Attribute)
                    and isinstance(v.value, ast.Name)
                    and v.value.id == "self"):
                return graph.attr_elem_type(class_qname, v.attr)
        return None

    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = func.args
        for a in (args.posonlyargs + args.args + args.kwonlyargs):
            cls = _annotation_class(graph, scope, a.annotation)
            if cls is not None:
                local_types[a.arg] = cls
    for stmt in iter_own_nodes(func):
        if (isinstance(stmt, ast.Assign)
                and any(isinstance(t, ast.Name) for t in stmt.targets)):
            cls = value_type(stmt.value)
            if cls is not None:
                # every Name target shares the value type
                # (``window = self.rate_windows[name] = RateWindow(...)``)
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        local_types[target.id] = cls
        elif isinstance(stmt, ast.For):
            iter_expr = stmt.iter
            if (isinstance(iter_expr, ast.Call)
                    and isinstance(iter_expr.func, ast.Name)
                    and iter_expr.func.id in ("list", "sorted", "tuple")
                    and iter_expr.args):
                iter_expr = iter_expr.args[0]
            if not isinstance(iter_expr, ast.Call):
                continue
            dotted = dotted_name(iter_expr.func)
            parts = dotted.split(".") if dotted else []
            if not (class_qname is not None and len(parts) == 3
                    and parts[0] == "self"
                    and parts[2] in ("values", "items")):
                continue
            elem = graph.attr_elem_type(class_qname, parts[1])
            if elem is None:
                continue
            target = stmt.target
            if parts[2] == "values" and isinstance(target, ast.Name):
                local_types[target.id] = elem
            elif (parts[2] == "items" and isinstance(target, ast.Tuple)
                  and len(target.elts) == 2
                  and isinstance(target.elts[1], ast.Name)):
                local_types[target.elts[1].id] = elem

    def record(call: ast.Call) -> None:
        dotted = dotted_name(call.func)
        if dotted is None:
            node_out.unresolved.append(CallSite("<expression>", call.lineno))
            return
        head, _, rest = dotted.partition(".")

        def resolved(target_qname: str) -> None:
            node_out.calls.add(target_qname)
            node_out.resolved_sites.append(
                CallSite(target_qname, call.lineno))

        # self.m() / cls.m() -> enclosing class attribution
        if head in ("self", "cls") and class_qname is not None and rest:
            method = graph._class_method(class_qname, rest)
            if method is None and "." in rest:
                # self._x.m() through a constructor-typed attribute
                attr, _, chain = rest.partition(".")
                attr_cls = graph.attr_type(class_qname, attr)
                if attr_cls is not None:
                    method = graph._class_method(attr_cls, chain)
            if method is not None:
                resolved(method)
            else:
                node_out.unresolved.append(CallSite(dotted, call.lineno))
            return
        # x = Cls(...); x.m()
        if head in local_types and rest:
            method = graph._class_method(local_types[head], rest)
            if method is not None:
                resolved(method)
            else:
                node_out.unresolved.append(CallSite(dotted, call.lineno))
            return
        # bare name bound to a nested def
        if not rest and head in nested_funcs:
            resolved(nested_funcs[head])
            return
        # function-local imports take priority over module symbols
        if head in local_imports:
            expanded = _expand_alias(local_imports, dotted)
        elif head in local_names and head not in symbols:
            # names shadowed by locals are not module symbols
            node_out.unresolved.append(CallSite(dotted, call.lineno))
            return
        else:
            expanded = _expand_alias(symbols, dotted)
        target = graph.resolve_function(expanded)
        if target is not None:
            resolved(target)
            return
        if (expanded == graph.root_package
                or expanded.startswith(root_prefix)):
            # first-party but unattributable (re-export we cannot chase,
            # dynamic member, class without __init__ body...)
            if graph.resolve_class(expanded) is None:
                node_out.unresolved.append(CallSite(expanded, call.lineno))
            return
        node_out.external.append(CallSite(expanded, call.lineno))

    for stmt in iter_own_nodes(func):
        if isinstance(stmt, ast.Call):
            record(stmt)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            # ``with Cls(...):`` runs Cls.__enter__/__exit__ — edges the
            # bare Call walk cannot see (the protocol calls are implicit).
            for item in stmt.items:
                ce = item.context_expr
                if not isinstance(ce, ast.Call):
                    continue
                dotted = dotted_name(ce.func)
                if dotted is None:
                    continue
                cls = graph.resolve_class(expand(dotted))
                if cls is None:
                    continue
                for proto in ("__enter__", "__exit__"):
                    method = graph._class_method(cls, proto)
                    if method is not None:
                        node_out.calls.add(method)
                        node_out.resolved_sites.append(
                            CallSite(method, ce.lineno))


def build_callgraph(contexts: Sequence[ModuleContext],
                    root_package: str = ROOT_PACKAGE) -> CallGraph:
    """Build the whole-program graph from parsed module contexts."""
    graph = CallGraph(root_package)
    harvests: list[_ModuleHarvest] = []
    for ctx in contexts:
        module = module_name_for(ctx.path, root_package)
        if module is None or module in graph.modules:
            continue
        graph.modules[module] = ctx.path
        graph.sources[ctx.path] = ctx.lines
        harvests.append(_ModuleHarvest(
            ctx, module, is_package=Path(ctx.path).name == "__init__.py"))
    for harvest in harvests:
        _harvest_module(graph, harvest)
        graph._symbols[harvest.module] = harvest.symbols
    for harvest in harvests:
        _harvest_attr_types(graph, harvest)
    for harvest in harvests:
        # function_bodies grows as nested defs are discovered: index loop.
        i = 0
        while i < len(harvest.function_bodies):
            func, class_qname, qname = harvest.function_bodies[i]
            _resolve_function_calls(graph, harvest, func, class_qname, qname)
            i += 1
    return graph
