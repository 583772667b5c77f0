"""RPR004: design-space / consumer consistency (the paper's core contract).

The whole performance–accuracy study is only meaningful if the space
HyperMapper explores (``repro/hypermapper/space.py::kfusion_design_space``,
built from ``repro/kfusion/params.py::parameter_specs``) is exactly the
set of parameters KinectFusion consumes (:class:`KFusionParams` /
``DEFAULTS``), with the same defaults, defaults inside the declared
bounds, and every parameter actually read somewhere in the pipeline.  A
spec added without a consumer silently explores a dead knob; a consumer
field missing from the space silently pins part of the trade-off.

No off-the-shelf linter can state this, so RPR004 does: it is a purely
static cross-module pass — it extracts the ``DEFAULTS`` dict literal,
the ``ParameterSpec(...)`` declarations and the ``KFusionParams``
dataclass fields from the ASTs, resolves ``DEFAULTS["name"]`` subscripts
to their literal values, collects every ``.name`` attribute read in the
``kfusion`` package, and cross-checks the lot.  Nothing is imported or
executed, so the checker works on scratch copies and doctored fixtures
alike.

The rule has a second arm for the kernel-backend seam
(``perf/registry.py``): every slot of each registered
:class:`~repro.perf.registry.KernelBackend` is resolved through the
static call graph (trivial ``return f(...)`` adapters are unwrapped to
the kernel they forward to), and the ``@contract`` declarations of the
fast and reference kernels for the same slot are compared — shape
tokens must be identical and the dtype *kind* must match, while the
f32/f64 width may differ (that width difference IS the backend
distinction).  A kernel that declares a contract on one side only is
flagged too: an undeclared twin silently escapes the runtime checks.

The DSE's ``kernel_backend`` dimension needs no arm of its own: space.py
builds its choices from ``kernel_backend_names()``, so it names exactly
the registered backends by construction.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, Sequence

from ..contracts import ContractError, parse_contract
from .callgraph import CallGraph, module_name_for
from .findings import Finding
from .framework import (
    ModuleContext,
    ProjectChecker,
    dotted_name,
    register_checker,
)
from .program import program_for

PARAMS_SUFFIX = ("kfusion", "params.py")
SPACE_SUFFIX = ("hypermapper", "space.py")
REGISTRY_SUFFIX = ("perf", "registry.py")

#: KernelBackend slots whose two implementations must agree.
BACKEND_SLOTS = (
    "bilateral_filter", "build_pyramid", "vertex_normal_pyramid",
    "track", "integrate", "raycast_model",
)
REFERENCE_BACKEND_NAME = "reference"

_MISSING = object()


@dataclass(frozen=True)
class SpecInfo:
    """One ``ParameterSpec(...)`` declaration, statically extracted."""

    name: str
    kind: str | None
    default: object  # resolved literal, or _MISSING when unresolvable
    low: object
    high: object
    choices: object
    lineno: int


def find_context(contexts: Sequence[ModuleContext],
                 suffix: Sequence[str]) -> ModuleContext | None:
    """The first context whose path ends with ``suffix`` parts."""
    for ctx in contexts:
        if tuple(ctx.path_parts[-len(suffix):]) == tuple(suffix):
            return ctx
    return None


def _literal(node: ast.AST, defaults: dict) -> object:
    """Resolve a literal expression, following ``DEFAULTS["x"]`` lookups."""
    if node is None:
        return _MISSING
    if (isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "DEFAULTS"
            and isinstance(node.slice, ast.Constant)):
        return defaults.get(node.slice.value, (_MISSING, 0))[0]
    try:
        return ast.literal_eval(node)
    except (ValueError, SyntaxError):
        return _MISSING


def extract_defaults(tree: ast.Module) -> dict[str, tuple[object, int]]:
    """``{name: (value, lineno)}`` from the module-level ``DEFAULTS`` dict."""
    for node in tree.body:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
        else:
            continue
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if "DEFAULTS" not in names or not isinstance(node.value, ast.Dict):
            continue
        out = {}
        for key, value in zip(node.value.keys, node.value.values):
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                try:
                    out[key.value] = (ast.literal_eval(value), key.lineno)
                except (ValueError, SyntaxError):
                    out[key.value] = (_MISSING, key.lineno)
        return out
    return {}


def extract_specs(tree: ast.Module,
                  defaults: dict[str, tuple[object, int]]) -> list[SpecInfo]:
    """Every ``ParameterSpec(...)`` call in the module, as :class:`SpecInfo`."""
    specs = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "ParameterSpec"):
            continue
        pos = list(node.args)
        kw = {k.arg: k.value for k in node.keywords if k.arg}
        name_node = pos[0] if pos else kw.get("name")
        if not (isinstance(name_node, ast.Constant)
                and isinstance(name_node.value, str)):
            continue
        kind_node = pos[1] if len(pos) > 1 else kw.get("kind")
        default_node = pos[2] if len(pos) > 2 else kw.get("default")
        kind = (kind_node.value
                if isinstance(kind_node, ast.Constant) else None)
        specs.append(SpecInfo(
            name=name_node.value,
            kind=kind,
            default=_literal(default_node, defaults),
            low=_literal(kw.get("low"), defaults),
            high=_literal(kw.get("high"), defaults),
            choices=_literal(kw.get("choices"), defaults),
            lineno=node.lineno,
        ))
    return specs


def extract_dataclass_fields(
        tree: ast.Module, class_name: str,
        defaults: dict[str, tuple[object, int]]) -> dict[str, tuple[object, int]]:
    """``{field: (default_value, lineno)}`` of an annotated dataclass."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            out = {}
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    out[stmt.target.id] = (
                        _literal(stmt.value, defaults), stmt.lineno
                    )
            return out
    return {}


def collect_attribute_reads(trees: Sequence[ast.Module]) -> set[str]:
    """Every ``<expr>.name`` attribute read across the given modules."""
    reads: set[str] = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                reads.add(node.attr)
    return reads


def _in_bounds(spec: SpecInfo) -> str | None:
    """Message when the spec's default violates its own bounds, else None."""
    if spec.default is _MISSING:
        return None
    if spec.kind in ("integer", "real"):
        if spec.low is _MISSING or spec.high is _MISSING:
            return None
        try:
            in_bounds = spec.low <= spec.default <= spec.high
        except TypeError:
            return (f"default {spec.default!r} is not comparable with "
                    f"bounds [{spec.low!r}, {spec.high!r}]")
        if not in_bounds:
            return (f"default {spec.default!r} outside declared bounds "
                    f"[{spec.low!r}, {spec.high!r}]")
    elif spec.kind in ("ordinal", "categorical"):
        if spec.choices is _MISSING or spec.choices is None:
            return None
        if spec.default not in tuple(spec.choices):
            return (f"default {spec.default!r} not among declared choices "
                    f"{tuple(spec.choices)!r}")
    return None


def compare_space_and_consumer(
    specs: Sequence[SpecInfo],
    defaults: dict[str, tuple[object, int]],
    fields: dict[str, tuple[object, int]],
    attribute_reads: set[str],
) -> list[tuple[str, int, str]]:
    """Cross-check the extracted declarations.

    Returns ``(param_name, lineno, message)`` tuples; pure function so
    the rule logic is unit-testable on synthetic declarations.
    """
    problems: list[tuple[str, int, str]] = []
    spec_by_name = {s.name: s for s in specs}

    for spec in specs:
        if spec.name not in fields:
            problems.append((spec.name, spec.lineno, (
                f"design-space parameter {spec.name!r} has no KFusionParams "
                f"field — the explored knob is never consumed"
            )))
        if spec.name not in defaults:
            problems.append((spec.name, spec.lineno, (
                f"design-space parameter {spec.name!r} missing from "
                f"DEFAULTS — the reference configuration cannot set it"
            )))
        msg = _in_bounds(spec)
        if msg is not None:
            problems.append((spec.name, spec.lineno,
                             f"parameter {spec.name!r}: {msg}"))

    for name, (value, lineno) in defaults.items():
        if name not in spec_by_name:
            problems.append((name, lineno, (
                f"DEFAULTS entry {name!r} is not declared in the design "
                f"space — the knob exists but is never explorable"
            )))
            continue
        spec = spec_by_name[name]
        if (spec.default is not _MISSING and value is not _MISSING
                and spec.default != value):
            problems.append((name, spec.lineno, (
                f"parameter {name!r}: design-space default {spec.default!r} "
                f"!= DEFAULTS value {value!r}"
            )))

    for name, (value, lineno) in fields.items():
        if name not in spec_by_name:
            problems.append((name, lineno, (
                f"KFusionParams field {name!r} is not declared in the "
                f"design space — part of the trade-off is pinned"
            )))
        elif (value is not _MISSING
              and spec_by_name[name].default is not _MISSING
              and value != spec_by_name[name].default):
            problems.append((name, lineno, (
                f"KFusionParams field {name!r} default {value!r} != "
                f"design-space default {spec_by_name[name].default!r}"
            )))

    for spec in specs:
        if spec.name in fields and spec.name not in attribute_reads:
            problems.append((spec.name, spec.lineno, (
                f"parameter {spec.name!r} is declared and defaulted but "
                f"never read (no .{spec.name} attribute access in the "
                f"kfusion package)"
            )))
    return problems


# -- backend arm: fast vs reference kernel @contract declarations ----------

def extract_contract_decls(func: ast.AST) -> dict[str, str] | None:
    """``{param: spec}`` from a ``@contract(...)`` decorator, else None."""
    for dec in getattr(func, "decorator_list", []):
        if not isinstance(dec, ast.Call):
            continue
        name = (dec.func.id if isinstance(dec.func, ast.Name)
                else dec.func.attr if isinstance(dec.func, ast.Attribute)
                else None)
        if name != "contract":
            continue
        out = {}
        for kw in dec.keywords:
            if (kw.arg and isinstance(kw.value, ast.Constant)
                    and isinstance(kw.value.value, str)):
                out[kw.arg] = kw.value.value
        return out
    return None


def extract_kernel_backends(
        tree: ast.Module) -> dict[str, tuple[int, dict[str, tuple]]]:
    """``{backend_name: (lineno, {slot: (dotted_target, lineno)})}``.

    Statically reads every ``KernelBackend(name=..., slot=callable, ...)``
    literal; slot values that are not plain name/attribute references
    resolve to ``(None, lineno)`` (honest failure, skipped downstream).
    """
    out: dict[str, tuple[int, dict[str, tuple]]] = {}
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "KernelBackend"):
            continue
        name = None
        slots: dict[str, tuple] = {}
        for kw in node.keywords:
            if kw.arg == "name" and isinstance(kw.value, ast.Constant):
                name = kw.value.value
            elif kw.arg in BACKEND_SLOTS:
                slots[kw.arg] = (dotted_name(kw.value), kw.value.lineno)
        if isinstance(name, str):
            out[name] = (node.lineno, slots)
    return out


def resolve_backend_kernel(graph: CallGraph, qname: str,
                           _depth: int = 0) -> str:
    """Follow trivial ``return f(...)`` adapters to the kernel they wrap.

    An adapter that declares its own ``@contract`` — or does anything
    beyond forwarding a single call — is its own kernel and is compared
    as-is.
    """
    node = graph.functions.get(qname)
    if node is None or _depth > 4:
        return qname
    func = node.ast_node
    if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return qname
    if extract_contract_decls(func) is not None:
        return qname
    body = [stmt for stmt in func.body
            if not (isinstance(stmt, ast.Expr)
                    and isinstance(stmt.value, ast.Constant))]
    if (len(body) == 1 and isinstance(body[0], ast.Return)
            and isinstance(body[0].value, ast.Call)
            and len(node.calls) == 1 and not node.unresolved):
        return resolve_backend_kernel(graph, next(iter(node.calls)),
                                      _depth + 1)
    return qname


def resolve_backends(graph: CallGraph, registry_ctx: ModuleContext
                     ) -> dict[str, dict[str, tuple]]:
    """``{backend: {slot: (kernel_qname, {param: spec} | None, lineno)}}``.

    Every ``KernelBackend(...)`` literal in the registry module is read
    statically; slot callables are resolved through the call graph with
    trivial adapters unwrapped (:func:`resolve_backend_kernel`).  A slot
    that does not resolve keeps ``kernel_qname`` ``None``.
    """
    module = module_name_for(registry_ctx.path, graph.root_package)
    out: dict[str, dict[str, tuple]] = {}
    for name, (_lineno, slots) in extract_kernel_backends(
            registry_ctx.tree).items():
        resolved = out[name] = {}
        for slot, (dotted, lineno) in slots.items():
            qname = decls = None
            if dotted is not None and module is not None:
                qname = graph.resolve_function(f"{module}.{dotted}")
            if qname is not None:
                qname = resolve_backend_kernel(graph, qname)
                node = graph.functions[qname].ast_node
                if node is not None:
                    decls = extract_contract_decls(node)
            resolved[slot] = (qname, decls, lineno)
    return out


def compare_backend_contracts(
    reference: dict[str, tuple],
    other: dict[str, tuple],
    other_name: str,
) -> list[tuple[int, str]]:
    """Cross-check two backends' resolved kernel contracts, slot by slot.

    Both maps are ``{slot: (kernel_qname, {param: spec} | None, lineno)}``
    with ``kernel_qname`` already adapter-unwrapped.  Returns
    ``(lineno, message)`` problems; pure function so the rule logic is
    unit-testable on synthetic declarations.  Shape tokens must match
    exactly and dtype *kinds* must match; the declared float width may
    differ (f32 vs f64 is the backend distinction RPR004 exists to keep
    honest, not a drift).
    """
    problems: list[tuple[int, str]] = []
    for slot in BACKEND_SLOTS:
        ref = reference.get(slot)
        oth = other.get(slot)
        if ref is None or oth is None:
            continue
        ref_qname, ref_c, _ = ref
        oth_qname, oth_c, lineno = oth
        if ref_qname is None or oth_qname is None:
            continue  # unresolvable slot (dynamic value): nothing to check
        if ref_c is None and oth_c is None:
            continue  # symmetric absence: neither side promises anything
        if ref_c is None or oth_c is None:
            declared = (REFERENCE_BACKEND_NAME if ref_c is not None
                        else other_name)
            bare, bare_qname = (
                (other_name, oth_qname) if ref_c is not None
                else (REFERENCE_BACKEND_NAME, ref_qname))
            problems.append((lineno, (
                f"backend slot {slot!r}: the {declared!r} kernel declares "
                f"@contract but the {bare!r} kernel ({bare_qname}) does "
                f"not — both backends must declare identical shapes"
            )))
            continue
        if set(ref_c) != set(oth_c):
            only_ref = sorted(set(ref_c) - set(oth_c))
            only_oth = sorted(set(oth_c) - set(ref_c))
            detail = "; ".join(
                f"only {who}: {', '.join(params)}"
                for who, params in ((REFERENCE_BACKEND_NAME, only_ref),
                                    (other_name, only_oth))
                if params
            )
            problems.append((lineno, (
                f"backend slot {slot!r}: @contract covers different "
                f"parameters on the two backends ({detail})"
            )))
            continue
        for param in sorted(ref_c):
            try:
                ref_spec = parse_contract(ref_c[param])
                oth_spec = parse_contract(oth_c[param])
            except ContractError as exc:
                problems.append((lineno, (
                    f"backend slot {slot!r}, parameter {param!r}: "
                    f"unparsable contract ({exc})"
                )))
                continue
            if (ref_spec.dims != oth_spec.dims
                    or ref_spec.ellipsis_leading
                    != oth_spec.ellipsis_leading):
                problems.append((lineno, (
                    f"backend slot {slot!r}, parameter {param!r}: "
                    f"{other_name} declares shape {oth_c[param]!r} but "
                    f"reference declares {ref_c[param]!r}"
                )))
            elif ref_spec.kind != oth_spec.kind:
                problems.append((lineno, (
                    f"backend slot {slot!r}, parameter {param!r}: dtype "
                    f"kind differs ({other_name} {oth_c[param]!r} vs "
                    f"reference {ref_c[param]!r}; width may differ, "
                    f"kind may not)"
                )))
    return problems


@register_checker
class DesignSpaceConsistencyChecker(ProjectChecker):
    """RPR004 over the real tree: params.py vs space.py vs the pipeline."""

    rule_id = "RPR004"
    title = ("config-space consistency: kfusion_design_space == KFusionParams "
             "== DEFAULTS, defaults in bounds, every knob consumed; kernel "
             "backends declare matching @contract shapes")

    def applies(self, contexts) -> bool:
        return ((find_context(contexts, PARAMS_SUFFIX) is not None
                 and find_context(contexts, SPACE_SUFFIX) is not None)
                or find_context(contexts, REGISTRY_SUFFIX) is not None)

    def check_project(self, contexts) -> Iterator[Finding]:
        yield from self._check_design_space(contexts)
        yield from self._check_backend_contracts(contexts)

    def _check_design_space(self, contexts) -> Iterator[Finding]:
        params_ctx = find_context(contexts, PARAMS_SUFFIX)
        space_ctx = find_context(contexts, SPACE_SUFFIX)
        if params_ctx is None or space_ctx is None:
            return

        defaults = extract_defaults(params_ctx.tree)
        specs = extract_specs(params_ctx.tree, defaults)
        fields = extract_dataclass_fields(params_ctx.tree, "KFusionParams",
                                          defaults)
        kfusion_trees = [
            ctx.tree for ctx in contexts if "kfusion" in ctx.path_parts
        ]
        reads = collect_attribute_reads(kfusion_trees)

        if not specs or not defaults:
            yield Finding(
                path=params_ctx.path, line=1, col=1, rule_id=self.rule_id,
                message=("could not extract ParameterSpec declarations / "
                         "DEFAULTS from kfusion/params.py — the RPR004 "
                         "contract is unverifiable"),
            )
            return

        # The space module must actually build from parameter_specs() —
        # a hand-maintained copy would drift silently.
        if not self._space_delegates(space_ctx):
            yield Finding(
                path=space_ctx.path, line=1, col=1, rule_id=self.rule_id,
                message=("kfusion_design_space does not build from "
                         "kfusion.params.parameter_specs(); the explored "
                         "space can drift from the consumed parameters"),
            )

        for name, lineno, message in compare_space_and_consumer(
                specs, defaults, fields, reads):
            yield Finding(
                path=params_ctx.path, line=lineno, col=1,
                rule_id=self.rule_id, message=message,
            )

    def _check_backend_contracts(self, contexts) -> Iterator[Finding]:
        registry_ctx = find_context(contexts, REGISTRY_SUFFIX)
        if registry_ctx is None:
            return
        backends = resolve_backends(program_for(contexts).graph, registry_ctx)
        reference = backends.pop(REFERENCE_BACKEND_NAME, None)
        if reference is None:
            return  # nothing to cross-check against
        for name in sorted(backends):
            for lineno, message in compare_backend_contracts(
                    reference, backends[name], name):
                yield Finding(
                    path=registry_ctx.path, line=lineno, col=1,
                    rule_id=self.rule_id, message=message,
                )

    @staticmethod
    def _space_delegates(space_ctx: ModuleContext) -> bool:
        for node in ast.walk(space_ctx.tree):
            if (isinstance(node, ast.FunctionDef)
                    and node.name == "kfusion_design_space"):
                for inner in ast.walk(node):
                    if (isinstance(inner, ast.Call)
                            and isinstance(inner.func, ast.Name)
                            and inner.func.id == "parameter_specs"):
                        return True
        return False
