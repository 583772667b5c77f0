"""Static dataflow verification for stage graphs (``repro dataflow``).

The graph compiler (:mod:`repro.graph.compiler`, DESIGN.md S19) proves a
pipeline's *wiring*; this module proves its *dataflow* — statically, on
every registered graph definition, without executing a frame:

=======  ==============================================================
RPR011   shape-dtype-unification: every port contract parses under the
         :mod:`repro.contracts` grammar and the symbolic dims
         (``H``, ``W``, ``r``, ``N``...) unify along edges across the
         whole graph; an unsatisfiable labeling reports the full
         constraint chain that forces the conflict
RPR012   kernel-contract-consistency: each stage's port contracts match
         the ``@contract`` declarations of the kernel functions the
         stage body calls, resolved through the static call graph and
         the :class:`~repro.perf.KernelBackend` slot machinery — a
         fast-backend kernel whose declared shape drifts from its graph
         port is a blocking finding
RPR013   arena-liveness: the declared arena regions (writer stage,
         reader stages, cross-frame survival) are consistent with the
         deterministic schedule and the buffer names the reachable
         kernels actually touch — use-after-release, overlapping-
         lifetime writes, and dead budget are findings
=======  ==============================================================

Port contracts (:func:`repro.contracts.parse_port_contract`) extend
the array-contract grammar with a tag: ``tag``, ``tag(H,W:f32)``, or
the pyramid form ``tag([H,W,3:f32])``.

Symbolic dims are scoped to one *node*: ``H`` in two ports of the same
node is the same unknown, ``H`` in two different nodes is related only
when an edge (or a chain of edges) connects them.  Unification is a
union-find over ``(node, symbol)`` variables and integer constants, with
every union remembering the edge that caused it so a conflict can be
explained as the chain of edges that forces two unequal constants
together.

Layering: this module is pure — it never imports :mod:`repro.graph`.
The CLI (:mod:`repro.cli`) collects the registered graph definitions and
passes them in as :class:`GraphUnderCheck` records whose ``spec`` /
``stages`` members are duck-typed (anything with the
:class:`~repro.graph.GraphSpec` / :class:`~repro.graph.StageSpec` shape
works, which is also what the unit tests exploit).
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ..contracts import (
    ArraySpec,
    ContractError,
    PortContract,
    format_port_contract,
    parse_contract,
    parse_port_contract,
    port_contract_mismatch,
)
from .callgraph import CallGraph, iter_own_nodes, solve_worklist
from .consistency import (
    BACKEND_SLOTS,
    REGISTRY_SUFFIX,
    extract_contract_decls,
    find_context,
    resolve_backends,
)
from .findings import Finding, Severity
from .framework import ModuleContext
from .lint import internal_errors, report_findings
from .program import load_program, program_for

#: Rule ids this verifier owns.
RULE_UNIFICATION = "RPR011"
RULE_KERNEL_CONTRACTS = "RPR012"
RULE_ARENA_LIVENESS = "RPR013"


# -- graph inputs ------------------------------------------------------------

@dataclass
class GraphUnderCheck:
    """One registered graph definition handed to the verifier.

    Attributes:
        spec: a :class:`~repro.graph.GraphSpec`-shaped object
            (``name``/``nodes``/``edges``, optionally ``regions``).
        stages: node name -> :class:`~repro.graph.StageSpec`-shaped
            object (``inputs``/``outputs`` ports, ``run``,
            ``workspace_need``).
        origin: file path findings are anchored to (the graph
            definition module).
        body_qnames: node name -> qualified name of the stage body in
            the call graph; derived from ``stage.run`` when omitted.
        refs_by_node: pre-extracted arena buffer references (tests);
            derived from the call graph when omitted.
    """

    spec: Any
    stages: dict[str, Any]
    origin: str
    body_qnames: dict[str, str] | None = None
    refs_by_node: dict[str, list["BufferRef"]] | None = None


def _ports(stage) -> list:
    return list(stage.inputs) + list(stage.outputs)


def _finding(graph: GraphUnderCheck, rule: str, message: str,
             severity: Severity = Severity.ERROR, line: int = 1) -> Finding:
    return Finding(path=graph.origin, line=line, col=1, rule_id=rule,
                   message=message, severity=severity)


def _parse_graph_ports(
    graph: GraphUnderCheck, findings: list[Finding],
) -> dict[tuple[str, str], PortContract]:
    """Parse every port contract; unparsable ones become RPR011 findings."""
    parsed: dict[tuple[str, str], PortContract] = {}
    for node, stage in graph.stages.items():
        for port in _ports(stage):
            try:
                parsed[(node, port.name)] = parse_port_contract(port.contract)
            except ContractError as exc:
                findings.append(_finding(
                    graph, RULE_UNIFICATION,
                    f"graph {graph.spec.name!r}: port {node}.{port.name}: "
                    f"{exc}",
                ))
    return parsed


# -- RPR011: symbolic dim unification ----------------------------------------

class _Unifier:
    """Union-find over dim terms, remembering why each union happened.

    Terms are ``("var", node, symbol)`` for symbolic dims (scoped per
    node — every use of ``H`` within one node is the same unknown) and
    ``("const", node, port, index, value)`` for integer dims (one term
    per occurrence, so a conflict can name both declaration sites).
    """

    def __init__(self):
        self._parent: dict[tuple, tuple] = {}
        self._value: dict[tuple, tuple[int, tuple]] = {}  # root -> (v, term)
        #: explanation graph: term -> [(other term, reason)]
        self._why: dict[tuple, list[tuple[tuple, str]]] = {}

    def _add(self, term: tuple) -> None:
        if term not in self._parent:
            self._parent[term] = term
            if term[0] == "const":
                self._value[term] = (term[4], term)

    def find(self, term: tuple) -> tuple:
        self._add(term)
        root = term
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[term] != root:  # path compression
            self._parent[term], term = root, self._parent[term]
        return root

    def union(self, a: tuple, b: tuple, reason: str) -> tuple | None:
        """Merge; on constant conflict return ``(va, ta, vb, tb)``."""
        ra, rb = self.find(a), self.find(b)
        self._why.setdefault(a, []).append((b, reason))
        self._why.setdefault(b, []).append((a, reason))
        if ra == rb:
            return None
        va, vb = self._value.get(ra), self._value.get(rb)
        if va is not None and vb is not None and va[0] != vb[0]:
            return (va[0], va[1], vb[0], vb[1])
        self._parent[ra] = rb
        if va is not None:
            self._value[rb] = va
        return None

    def value_of(self, term: tuple) -> int | None:
        """The constant this term is pinned to, if any."""
        got = self._value.get(self.find(term))
        return None if got is None else got[0]

    def explain(self, start: tuple, goal: tuple) -> list[str]:
        """Shortest chain of reasons connecting two terms (BFS)."""
        prev: dict[tuple, tuple[tuple, str]] = {start: (start, "")}
        queue = deque([start])
        while queue:
            term = queue.popleft()
            if term == goal:
                break
            for other, reason in self._why.get(term, ()):
                if other not in prev:
                    prev[other] = (term, reason)
                    queue.append(other)
        if goal not in prev:
            return []
        chain: list[str] = []
        term = goal
        while term != start:
            term, reason = prev[term]
            chain.append(reason)
        chain.reverse()
        # A reason repeats when several dims of one edge join the chain.
        seen: set[str] = set()
        return [r for r in chain if not (r in seen or seen.add(r))]


def _dim_term(node: str, port: str, index: int, token) -> tuple:
    if isinstance(token, int):
        return ("const", node, port, index, token)
    return ("var", node, token)


def _term_label(term: tuple) -> str:
    if term[0] == "const":
        return f"{term[1]}.{term[2]} dim {term[3]}"
    return f"{term[1]}:{term[2]}"


def _unify(graph: GraphUnderCheck
           ) -> tuple[_Unifier, dict[tuple[str, str], PortContract],
                      list[Finding]]:
    """Parse every port contract and unify dims along all edges."""
    findings: list[Finding] = []
    parsed = _parse_graph_ports(graph, findings)
    name = graph.spec.name
    unifier = _Unifier()
    # Seed every port's dims so self-consistent constants are recorded
    # even for ports no edge touches.
    for (node, port), pc in parsed.items():
        if pc.spec is None:
            continue
        for i, tok in enumerate(pc.spec.dims):
            unifier.find(_dim_term(node, port, i, tok))
    reported: set[frozenset] = set()
    for edge in graph.spec.edges:
        src = parsed.get((edge.src, edge.src_port))
        dst = parsed.get((edge.dst, edge.dst_port))
        if src is None or dst is None:
            continue  # unparsable end already reported
        mismatch = port_contract_mismatch(src, dst)
        if mismatch is not None:
            findings.append(_finding(
                graph, RULE_UNIFICATION,
                f"graph {name!r}: edge {edge.label}: contract "
                f"{src.text!r} is incompatible with {dst.text!r} "
                f"({mismatch})",
            ))
            continue
        if src.spec is None or dst.spec is None:
            continue
        for i, (ts, td) in enumerate(zip(src.spec.dims, dst.spec.dims)):
            a = _dim_term(edge.src, edge.src_port, i, ts)
            b = _dim_term(edge.dst, edge.dst_port, i, td)
            conflict = unifier.union(a, b, f"{edge.label} (dim {i})")
            if conflict is None:
                continue
            va, ta, vb, tb = conflict
            key = frozenset((ta, tb))
            if key in reported:
                continue
            reported.add(key)
            chain = unifier.explain(ta, tb)
            findings.append(_finding(
                graph, RULE_UNIFICATION,
                f"graph {name!r}: unsatisfiable dimension constraints: "
                f"{_term_label(ta)} = {va} conflicts with "
                f"{_term_label(tb)} = {vb} via {'; '.join(chain)}",
            ))
    return unifier, parsed, findings


def unify_graph(graph: GraphUnderCheck) -> list[Finding]:
    """RPR011: parse every port contract and unify dims along all edges."""
    return _unify(graph)[2]


def solved_dims(graph: GraphUnderCheck) -> dict[str, dict[str, int]]:
    """``{node: {symbol: value}}`` for symbols unification pins to ints."""
    unifier, parsed, _ = _unify(graph)
    out: dict[str, dict[str, int]] = {}
    for (node, _port), pc in parsed.items():
        if pc.spec is None:
            continue
        for tok in pc.spec.dims:
            if isinstance(tok, int):
                continue
            value = unifier.value_of(("var", node, tok))
            if value is not None:
                out.setdefault(node, {})[tok] = value
    return out


# -- RPR012: port contracts vs kernel @contract ------------------------------

@dataclass(frozen=True)
class KernelContractInfo:
    """One resolved kernel implementation with its declarations."""

    label: str  #: ``"backend 'fast'"`` or ``"callee"`` (direct calls)
    qname: str
    decls: dict[str, str]


def resolve_slot_kernels(
    contexts: Sequence[ModuleContext], callgraph: CallGraph,
) -> dict[str, list[KernelContractInfo]]:
    """``{slot: [kernel info per backend]}`` from the registry module,
    resolved exactly as RPR004's backend arm does
    (:func:`~repro.analysis.consistency.resolve_backends`).

    Kernels without ``@contract`` stay in the table with empty decls:
    RPR012 has nothing to compare for them, but RPR013 still needs them
    reachable for buffer-reference collection.
    """
    registry_ctx = find_context(contexts, REGISTRY_SUFFIX)
    if registry_ctx is None:
        return {}
    out: dict[str, list[KernelContractInfo]] = {}
    for backend, slots in sorted(
            resolve_backends(callgraph, registry_ctx).items()):
        for slot, (qname, decls, _line) in slots.items():
            if qname is None or callgraph.functions[qname].ast_node is None:
                continue
            out.setdefault(slot, []).append(KernelContractInfo(
                label=f"backend {backend!r}", qname=qname,
                decls=decls or {}))
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
    """Backend slots invoked as ``[ctx.]backend.<slot>(...)``."""
    slots: set[str] = set()
    for node in iter_own_nodes(func_ast):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in BACKEND_SLOTS
                and _is_backend_receiver(node.func.value)):
            slots.add(node.func.attr)
    return slots


def _kernel_port_problem(kernel: ArraySpec, port: ArraySpec) -> str | None:
    """Why a kernel's declared spec contradicts the port's, or ``None``.

    Shape tokens must agree where both sides are concrete (int vs
    different int), rank and leading ``...`` must agree when neither
    side is ellipsis-elided, and the dtype *kind* must match — the
    declared float width may differ, since f32 vs f64 IS the backend
    distinction (same convention as RPR004's backend arm).
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
    here; RPR004/RPR005 own those).  Two call seams are checked: kernel-
    backend slot calls (``ctx.backend.track(...)``), resolved for every
    registered backend, and direct depth-1 callees with ``@contract``.
    """
    findings: list[Finding] = []
    name = graph.spec.name
    for node, stage in graph.stages.items():
        qname = _body_qname(graph, node)
        fn = callgraph.functions.get(qname) if qname else None
        if fn is None or fn.ast_node is None:
            continue
        ports: dict[str, PortContract] = {}
        for port in _ports(stage):
            try:
                ports[port.name] = parse_port_contract(port.contract)
            except ContractError:
                continue  # RPR011 already reports it

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
                    findings.append(_finding(
                        graph, RULE_KERNEL_CONTRACTS,
                        f"graph {name!r}: node {node!r}: {info.label} "
                        f"kernel {info.qname} declares unparsable "
                        f"@contract for {param!r}: {exc}",
                    ))
                    continue
                problem = _kernel_port_problem(kernel_spec, pc.spec)
                if problem is not None:
                    findings.append(_finding(
                        graph, RULE_KERNEL_CONTRACTS,
                        f"graph {name!r}: node {node!r}: {info.label} "
                        f"kernel {info.qname} declares "
                        f"@contract({param}={text!r}) but the graph "
                        f"port {node}.{param} carries {pc.text!r} "
                        f"({problem})",
                    ))
    return findings


# -- RPR013: arena buffer liveness -------------------------------------------

@dataclass(frozen=True)
class BufferRef:
    """One static arena-buffer reference reachable from a stage body.

    ``exact`` is False for f-string buffer names (``f"pyr_d{level}"``),
    where ``name`` is the literal leading text.
    """

    name: str
    exact: bool
    qname: str
    lineno: int


def _buffer_refs_in(func_ast: ast.AST, qname: str) -> list[BufferRef]:
    refs: list[BufferRef] = []
    for node in iter_own_nodes(func_ast):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("buffer", "zeros")
                and node.args):
            continue
        first = node.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            refs.append(BufferRef(first.value, True, qname, node.lineno))
        elif (isinstance(first, ast.JoinedStr) and first.values
                and isinstance(first.values[0], ast.Constant)
                and isinstance(first.values[0].value, str)):
            refs.append(BufferRef(first.values[0].value, False, qname,
                                  node.lineno))
    return refs


def collect_buffer_refs(
    graph: GraphUnderCheck,
    callgraph: CallGraph,
    slot_kernels: dict[str, list[KernelContractInfo]],
) -> dict[str, list[BufferRef]]:
    """Arena buffer references reachable from each stage body.

    Reachability over the static call graph from the stage body, with
    kernel-backend slot calls (``ctx.backend.integrate(...)`` — opaque
    to the call graph) expanded to every registered backend's resolved
    kernel, so the fast path's ``ws.buffer("int_x", ...)`` sites are
    attributed to the stage that triggers them.
    """
    out: dict[str, list[BufferRef]] = {}
    for node in graph.stages:
        qname = _body_qname(graph, node)
        if qname is None or qname not in callgraph.functions:
            out[node] = []
            continue
        refs: list[BufferRef] = []
        seen = {qname}

        def visit(current: str) -> set[str]:
            fn = callgraph.functions.get(current)
            if fn is None or fn.ast_node is None:
                return set()
            refs.extend(_buffer_refs_in(fn.ast_node, current))
            found = set(fn.calls).union(
                info.qname for slot in _slots_called(fn.ast_node)
                for info in slot_kernels.get(slot, ())) - seen
            seen.update(found)
            return found

        solve_worklist([qname], visit)
        out[node] = refs
    return out


def _region_for(name: str, regions: Sequence) -> Any | None:
    """Longest-prefix region owning buffer ``name``, or ``None``."""
    best = None
    for region in regions:
        if name.startswith(region.prefix):
            if best is None or len(region.prefix) > len(best.prefix):
                best = region
    return best


def topo_schedule(graph: GraphUnderCheck) -> list[str] | None:
    """Deterministic Kahn schedule (lexicographic ties); None on a cycle.

    Mirrors the graph compiler's scheduler so the liveness analysis sees
    the exact stage order a run would use, without importing
    :mod:`repro.graph` from the analysis layer.
    """
    nodes = list(graph.stages)
    indegree = {n: 0 for n in nodes}
    successors: dict[str, list[str]] = {n: [] for n in nodes}
    for edge in graph.spec.edges:
        if edge.src in indegree and edge.dst in indegree:
            indegree[edge.dst] += 1
            successors[edge.src].append(edge.dst)
    ready = sorted(n for n, deg in indegree.items() if deg == 0)
    order: list[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        changed = False
        for succ in successors[node]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                ready.append(succ)
                changed = True
        if changed:
            ready.sort()
    return order if len(order) == len(nodes) else None


def check_liveness(
    graph: GraphUnderCheck,
    schedule: Sequence[str],
    refs_by_node: dict[str, list[BufferRef]],
) -> list[Finding]:
    """RPR013: declared arena regions vs the schedule and observed refs.

    A region is live from its writer's slot to its last declared
    reader's slot (the whole frame — and across the frame boundary —
    when ``cross_frame``).  Findings:

    * a reader scheduled at/before the writer without ``cross_frame``
      reads memory the previous frame released (use-after-release);
    * a stage outside the region touching its buffers inside the live
      window clobbers live data (overlapping-lifetime write), outside
      the window it resurrects released memory (use-after-release);
    * a buffer reference no region covers is unplanned arena use;
    * a region whose writer never references a matching buffer is dead
      budget (warning);
    * a stage that touches the arena while declaring no workspace need
      runs unplanned.
    """
    findings: list[Finding] = []
    name = graph.spec.name
    regions = tuple(getattr(graph.spec, "regions", ()) or ())
    pos = {node: i for i, node in enumerate(schedule)}

    for region in regions:
        for member in (region.writer, *region.readers):
            if member not in pos:
                findings.append(_finding(
                    graph, RULE_ARENA_LIVENESS,
                    f"graph {name!r}: arena region {region.prefix!r} "
                    f"names unknown node {member!r}",
                ))
        if region.writer not in pos:
            continue
        if not region.cross_frame:
            for reader in region.readers:
                if reader in pos and pos[reader] <= pos[region.writer]:
                    findings.append(_finding(
                        graph, RULE_ARENA_LIVENESS,
                        f"graph {name!r}: arena region {region.prefix!r}: "
                        f"use-after-release — reader {reader!r} is "
                        f"scheduled at/before writer {region.writer!r}, "
                        f"so it would read the previous frame's released "
                        f"buffers (declare cross_frame=True if that is "
                        f"intended)",
                    ))

    matched_regions: set[int] = set()
    for node, refs in refs_by_node.items():
        if refs and getattr(graph.stages[node], "workspace_need",
                            None) is None:
            findings.append(_finding(
                graph, RULE_ARENA_LIVENESS,
                f"graph {name!r}: node {node!r} touches the arena "
                f"({refs[0].name!r} in {refs[0].qname}) but its stage "
                f"declares no workspace need — the bytes are unplanned",
            ))
        for ref in refs:
            region = _region_for(ref.name, regions)
            if region is None:
                findings.append(_finding(
                    graph, RULE_ARENA_LIVENESS,
                    f"graph {name!r}: node {node!r}: arena buffer "
                    f"{ref.name!r} ({ref.qname}:{ref.lineno}) matches no "
                    f"declared region — unplanned arena use",
                ))
                continue
            matched_regions.add(id(region))
            members = {region.writer, *region.readers}
            if node in members or node not in pos:
                continue
            writer_pos = pos.get(region.writer)
            if writer_pos is None:
                continue  # bad writer already reported
            window_end = max(
                [pos[r] for r in region.readers if r in pos],
                default=writer_pos,
            )
            if region.cross_frame or writer_pos <= pos[node] <= window_end:
                findings.append(_finding(
                    graph, RULE_ARENA_LIVENESS,
                    f"graph {name!r}: node {node!r}: overlapping-lifetime "
                    f"write — buffer {ref.name!r} ({ref.qname}:"
                    f"{ref.lineno}) belongs to region {region.prefix!r} "
                    f"(writer {region.writer!r}, readers "
                    f"{sorted(region.readers)}) which is live while "
                    f"{node!r} runs",
                ))
            else:
                findings.append(_finding(
                    graph, RULE_ARENA_LIVENESS,
                    f"graph {name!r}: node {node!r}: use-after-release — "
                    f"buffer {ref.name!r} ({ref.qname}:{ref.lineno}) "
                    f"belongs to region {region.prefix!r} whose lifetime "
                    f"ended at {schedule[window_end]!r}",
                ))

    writers_refs = {
        node: [r.name for r in refs] for node, refs in refs_by_node.items()
    }
    for region in regions:
        if region.writer not in pos:
            continue
        hit = any(
            _region_for(ref_name, regions) is region
            for ref_name in writers_refs.get(region.writer, ())
        )
        if not hit:
            findings.append(_finding(
                graph, RULE_ARENA_LIVENESS,
                f"graph {name!r}: arena region {region.prefix!r} declares "
                f"budget for writer {region.writer!r} but no reachable "
                f"kernel references a matching buffer — dead budget",
                severity=Severity.WARNING,
            ))
    return findings


# -- the driver --------------------------------------------------------------

def check_graphs(
    graphs: Sequence[GraphUnderCheck],
    contexts: Sequence[ModuleContext] | None = None,
) -> list[Finding]:
    """Run RPR011/012/013 over the given graph definitions.

    ``contexts`` are the parsed first-party modules; without them only
    the unification pass (RPR011) and injected-ref liveness run, since
    RPR012/013 need the static call graph.
    """
    findings: list[Finding] = []
    callgraph = None
    slot_kernels: dict[str, list[KernelContractInfo]] = {}
    if contexts:
        callgraph = program_for(contexts).graph
        slot_kernels = resolve_slot_kernels(contexts, callgraph)
    for graph in graphs:
        findings.extend(unify_graph(graph))
        if callgraph is not None:
            findings.extend(
                check_kernel_contracts(graph, callgraph, slot_kernels))
        refs = graph.refs_by_node
        if refs is None and callgraph is not None:
            refs = collect_buffer_refs(graph, callgraph, slot_kernels)
        if refs is not None:
            schedule = topo_schedule(graph)
            if schedule is not None:
                findings.extend(check_liveness(graph, schedule, refs))
    return sorted(findings, key=Finding.sort_key)


def describe_graph(graph: GraphUnderCheck) -> dict:
    """JSON-safe summary for ``repro dataflow show``."""
    ports = []
    for node, stage in sorted(graph.stages.items()):
        for direction, plist in (("in", stage.inputs),
                                 ("out", stage.outputs)):
            for port in plist:
                try:
                    pc = parse_port_contract(port.contract)
                    normalized = format_port_contract(pc)
                except ContractError:
                    normalized = "<unparsable>"
                ports.append({
                    "node": node,
                    "port": port.name,
                    "direction": direction,
                    "contract": port.contract,
                    "normalized": normalized,
                })
    regions = [
        {
            "prefix": region.prefix,
            "writer": region.writer,
            "readers": sorted(region.readers),
            "cross_frame": bool(region.cross_frame),
        }
        for region in (getattr(graph.spec, "regions", ()) or ())
    ]
    return {
        "graph": graph.spec.name,
        "origin": graph.origin,
        "schedule": topo_schedule(graph) or [],
        "ports": ports,
        "solved_dims": solved_dims(graph),
        "regions": regions,
    }


@internal_errors("dataflow")
def run_dataflow(
    graphs: Sequence[GraphUnderCheck],
    paths: Sequence[str],
    *,
    output_format: str = "text",
    baseline_path: str | None = None,
    extra_findings: Sequence[Finding] = (),
    echo: Callable[[str], None] = print,
) -> int:
    """``repro dataflow check``: verify ``graphs``, report, exit-code.

    Shares ``repro lint``'s tail (:mod:`repro.analysis.lint`): ``# noqa``
    comments at a finding's anchor line and the committed fingerprint
    baseline both apply, and the exit codes are 0 clean, 1 findings,
    2 internal error.  ``paths`` supply the static call-graph context
    (normally ``src/repro``).  ``extra_findings`` lets the caller merge
    failures it observed while *collecting* the graphs (a registered
    factory that raised — the CI gate for uncompilable registry
    entries).
    """
    contexts = load_program(paths).contexts
    findings = [*extra_findings, *check_graphs(graphs, contexts)]
    return report_findings(findings, output_format=output_format,
                           baseline_path=baseline_path, echo=echo)
