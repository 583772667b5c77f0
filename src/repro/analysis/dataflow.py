"""Port contracts vs kernel ``@contract`` (RPR012, ``repro graph check``).

The graph compiler (:mod:`repro.graph.compiler`, DESIGN.md S19) proves
that the two ends of every edge agree.  It cannot see whether the
kernels a stage body calls agree with the stage's ports: runtime
``@contract`` checks sit on kernels, not on ports, so a port contract
that drifts from its kernel goes unnoticed until a frame runs.  This
module closes that gap statically, on every registered graph:

=======  ==============================================================
RPR012   kernel-contract-consistency: each stage's port contracts match
         the ``@contract`` declarations of the kernel functions the
         stage body calls — every registered
         :class:`~repro.perf.KernelBackend`'s slot kernel, read live
         from its ``__repro_contracts__``, and each direct callee,
         read from the source — a kernel whose declared shape drifts
         from its graph port is a blocking finding
=======  ==============================================================

Layering: this module is pure — it imports neither :mod:`repro.graph`
nor :mod:`repro.perf`.  ``repro graph check`` (:mod:`repro.cli`)
compiles the registered graph definitions and passes them in as
:class:`GraphUnderCheck` records, together with the registered kernel
backends.  Both are duck-typed: anything with the
:class:`~repro.graph.GraphSpec` / :class:`~repro.graph.StageSpec` shape
works for a graph, and any object whose attributes are the slot
callables works for a backend, which is also what the unit tests
exploit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..contracts import (
    ArraySpec,
    ContractError,
    PortContract,
    parse_contract,
    parse_port_contract,
)
from .callgraph import CallGraph, iter_own_nodes
from .findings import Finding
from .framework import ModuleContext
from .lint import internal_errors, report_findings
from .program import load_program, program_for

#: The rule id this module owns.
RULE_KERNEL_CONTRACTS = "RPR012"


@dataclass
class GraphUnderCheck:
    """One registered graph definition handed to the check.

    Attributes:
        spec: a :class:`~repro.graph.GraphSpec`-shaped object (``name``).
        stages: node name -> :class:`~repro.graph.StageSpec`-shaped
            object (``inputs``/``outputs`` ports, ``run``).
        origin: file path findings are anchored to (the graph
            definition module).
        body_qnames: node name -> qualified name of the stage body in
            the call graph; derived from ``stage.run`` when omitted.
    """

    spec: Any
    stages: dict[str, Any]
    origin: str
    body_qnames: dict[str, str] | None = None


@dataclass(frozen=True)
class KernelContractInfo:
    """One resolved kernel implementation with its declarations."""

    label: str  #: ``"backend 'fast'"`` or ``"callee"`` (direct calls)
    qname: str
    decls: dict[str, str]


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


def resolve_slot_kernels(
        backends: Sequence[Any]) -> dict[str, list[KernelContractInfo]]:
    """``{slot: [kernel info per backend]}`` from live backend objects.

    Each backend's ``name`` labels its rows; every other attribute whose
    value carries ``__repro_contracts__`` (set by
    :func:`repro.contracts.contract`) is a slot kernel.  Kernels
    without declarations have nothing to compare and are left out.
    """
    out: dict[str, list[KernelContractInfo]] = {}
    for backend in sorted(backends, key=lambda b: b.name):
        for slot, fn in sorted(vars(backend).items()):
            decls = getattr(fn, "__repro_contracts__", None)
            if not decls:
                continue
            out.setdefault(slot, []).append(KernelContractInfo(
                label=f"backend {backend.name!r}",
                qname=f"{fn.__module__}.{fn.__qualname__}",
                decls={param: spec.text for param, spec in decls.items()}))
    return out


def _body_qname(graph: GraphUnderCheck, node: str) -> str | None:
    if graph.body_qnames is not None:
        return graph.body_qnames.get(node)
    run = graph.stages[node].run
    module = getattr(run, "__module__", None)
    qualname = getattr(run, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        return None
    return f"{module}.{qualname}"


def _is_backend_receiver(node: ast.AST) -> bool:
    """The expression a slot attribute hangs off names the backend.

    Matches ``backend.<slot>(...)`` and ``ctx.backend.<slot>(...)``;
    deliberately NOT ``kernels.<slot>(...)`` or other module-attribute
    calls that merely share a slot's name (the workload cost model
    reuses kernel names).
    """
    return ((isinstance(node, ast.Name) and node.id == "backend")
            or (isinstance(node, ast.Attribute) and node.attr == "backend"))


def _slots_called(func_ast: ast.AST) -> set[str]:
    """Attributes invoked as ``[ctx.]backend.<slot>(...)``."""
    slots: set[str] = set()
    for node in iter_own_nodes(func_ast):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and _is_backend_receiver(node.func.value)):
            slots.add(node.func.attr)
    return slots


def _kernel_port_problem(kernel: ArraySpec, port: ArraySpec) -> str | None:
    """Why a kernel's declared spec contradicts the port's, or ``None``.

    Shape tokens must agree where both sides are concrete (int vs
    different int), rank and leading ``...`` must agree when neither
    side is ellipsis-elided, and the dtype *kind* must match — the
    declared float width may differ, since f32 vs f64 IS the backend
    distinction.
    """
    if kernel.ellipsis_leading or port.ellipsis_leading:
        n = min(len(kernel.dims), len(port.dims))
        k_dims, p_dims = kernel.dims[-n:], port.dims[-n:]
    else:
        if len(kernel.dims) != len(port.dims):
            return (f"rank {len(kernel.dims)} != port rank "
                    f"{len(port.dims)}")
        k_dims, p_dims = kernel.dims, port.dims
    for i, (k, p) in enumerate(zip(k_dims, p_dims)):
        if isinstance(k, int) and isinstance(p, int) and k != p:
            return f"dim {i}: kernel {k} != port {p}"
    if (kernel.kind is not None and port.kind is not None
            and kernel.kind != port.kind):
        return (f"dtype kind {kernel.kind!r} != port kind {port.kind!r} "
                f"(width may differ, kind may not)")
    return None


def check_kernel_contracts(
    graph: GraphUnderCheck,
    callgraph: CallGraph,
    slot_kernels: dict[str, list[KernelContractInfo]],
) -> list[Finding]:
    """RPR012: each stage's ports vs the kernels its body calls.

    Kernels are matched to ports *by parameter name*: a kernel parameter
    named like one of the node's ports describes the same array, so its
    ``@contract`` and the port contract must agree (kernel parameters
    without a same-named port — poses, thresholds — are out of scope
    here).  Two call seams are checked: kernel-backend slot calls
    (``ctx.backend.integrate(...)``), for every registered backend in
    ``slot_kernels``, and direct depth-1 callees with ``@contract``.
    """
    findings: list[Finding] = []
    name = graph.spec.name

    def report(node: str, message: str) -> None:
        findings.append(Finding(
            path=graph.origin, line=1, col=1, rule_id=RULE_KERNEL_CONTRACTS,
            message=f"graph {name!r}: node {node!r}: {message}"))

    for node, stage in graph.stages.items():
        qname = _body_qname(graph, node)
        fn = callgraph.functions.get(qname) if qname else None
        if fn is None or fn.ast_node is None:
            continue
        # Port() rejects an unparsable contract at declaration.
        ports: dict[str, PortContract] = {
            port.name: parse_port_contract(port.contract)
            for port in (*stage.inputs, *stage.outputs)
        }

        kernels: list[KernelContractInfo] = []
        for slot in sorted(_slots_called(fn.ast_node)):
            kernels.extend(slot_kernels.get(slot, ()))
        for callee in sorted(fn.calls):
            callee_node = callgraph.functions.get(callee)
            if callee_node is None or callee_node.ast_node is None:
                continue
            decls = extract_contract_decls(callee_node.ast_node)
            if decls:
                kernels.append(KernelContractInfo(
                    label="callee", qname=callee, decls=decls))

        for info in kernels:
            for param, text in sorted(info.decls.items()):
                pc = ports.get(param)
                if pc is None or pc.spec is None:
                    continue
                try:
                    kernel_spec = parse_contract(text)
                except ContractError as exc:
                    report(node, f"{info.label} kernel {info.qname} "
                                 f"declares unparsable @contract for "
                                 f"{param!r}: {exc}")
                    continue
                problem = _kernel_port_problem(kernel_spec, pc.spec)
                if problem is not None:
                    report(node, f"{info.label} kernel {info.qname} "
                                 f"declares @contract({param}={text!r}) "
                                 f"but the graph port {node}.{param} "
                                 f"carries {pc.text!r} ({problem})")
    return findings


def check_graphs(
    graphs: Sequence[GraphUnderCheck],
    contexts: Sequence[ModuleContext],
    backends: Sequence[Any],
) -> list[Finding]:
    """Run RPR012 over ``graphs`` against the parsed first-party
    ``contexts`` (the static call graph the stage bodies live in) and
    the live kernel ``backends``."""
    callgraph = program_for(contexts).graph
    slot_kernels = resolve_slot_kernels(backends)
    findings: list[Finding] = []
    for graph in graphs:
        findings.extend(check_kernel_contracts(graph, callgraph,
                                               slot_kernels))
    return sorted(findings, key=Finding.sort_key)


@internal_errors("graph check")
def run_kernel_contract_check(
    graphs: Sequence[GraphUnderCheck],
    paths: Sequence[str],
    backends: Sequence[Any],
    *,
    echo: Callable[[str], None] = print,
) -> int:
    """Check ``graphs`` against the sources under ``paths`` and the
    registered kernel ``backends``, and report.

    Shares ``repro lint``'s tail (:mod:`repro.analysis.lint`): ``# noqa``
    at a finding's anchor line applies, and the exit codes are 0 clean,
    1 findings, 2 internal error.
    """
    contexts = load_program(paths).contexts
    return report_findings(check_graphs(graphs, contexts, backends),
                           echo=echo)
