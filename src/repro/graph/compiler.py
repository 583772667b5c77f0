"""The runtime compiler: GraphSpec -> executable PipelineInstance.

Compilation is where every structural property of a pipeline is proven,
so running a compiled graph can never fail for a *wiring* reason:

1. every node references a registered stage;
2. every edge joins an existing output port to an existing input port
   with **semantically equal contracts** (parsed under the
   :mod:`repro.contracts` port grammar — spelling variants of
   one contract are equal, concrete declarations must agree, symbolic
   dims match anything);
3. every input port is fed by exactly one edge (no dangling or
   double-fed inputs);
4. the graph is acyclic — cycles are reported with the named edges that
   form them;
5. the schedule is a *deterministic* topological order (Kahn's
   algorithm with lexicographic tie-breaking), identical across runs
   and interpreter sessions;
6. every tap observes an existing node output.

Effect budgets are not a compile-time property: the tier-1 test
``tests/test_effect_budgets.py`` holds each layer, stage bodies
included, to its ``forbid`` list in ``ARCHITECTURE.toml`` while the
compiled graphs run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..contracts import parse_port_contract, port_contract_mismatch
from ..errors import GraphError
from .instance import PipelineInstance
from .spec import Edge, GraphSpec, TapSpec
from .stage import StageSpec, get_stage


@dataclass(frozen=True)
class CompiledNode:
    """One scheduled stage: its spec, wired inputs, and attached taps."""

    name: str
    spec: StageSpec
    feeds: tuple[Edge, ...]  #: edges into this node, one per input port
    taps: tuple[TapSpec, ...] = ()


def _check_nodes(spec: GraphSpec) -> dict[str, StageSpec]:
    names = spec.node_names()
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise GraphError(
            f"graph {spec.name!r}: duplicate node names {sorted(dupes)}"
        )
    if not names:
        raise GraphError(f"graph {spec.name!r} has no nodes")
    return {node: get_stage(stage_name) for node, stage_name in spec.nodes}


def _check_edges(spec: GraphSpec, stages: dict[str, StageSpec]) -> None:
    fed: dict[tuple[str, str], Edge] = {}
    for edge in spec.edges:
        for end, node in (("source", edge.src), ("destination", edge.dst)):
            if node not in stages:
                raise GraphError(
                    f"graph {spec.name!r}: edge {edge.label} references "
                    f"unknown {end} node {node!r}"
                )
        src_port = stages[edge.src].output_port(edge.src_port)
        if src_port is None:
            raise GraphError(
                f"graph {spec.name!r}: edge {edge.label}: node "
                f"{edge.src!r} (stage {stages[edge.src].name!r}) has no "
                f"output port {edge.src_port!r}"
            )
        dst_port = stages[edge.dst].input_port(edge.dst_port)
        if dst_port is None:
            raise GraphError(
                f"graph {spec.name!r}: edge {edge.label}: node "
                f"{edge.dst!r} (stage {stages[edge.dst].name!r}) has no "
                f"input port {edge.dst_port!r}"
            )
        # Semantic comparison (parsed contracts), not raw strings:
        # whitespace/dtype-alias spellings of one contract are equal,
        # while anything declared concretely — tag, rank, dtype, int
        # dims — must agree.  Symbolic dims are edge-compatible with
        # anything.
        mismatch = port_contract_mismatch(
            parse_port_contract(src_port.contract),
            parse_port_contract(dst_port.contract),
        )
        if mismatch is not None:
            raise GraphError(
                f"graph {spec.name!r}: edge {edge.label}: contract "
                f"mismatch — {edge.src}.{edge.src_port} produces "
                f"{src_port.contract!r} but {edge.dst}.{edge.dst_port} "
                f"expects {dst_port.contract!r} ({mismatch})"
            )
        key = (edge.dst, edge.dst_port)
        if key in fed:
            raise GraphError(
                f"graph {spec.name!r}: input {edge.dst}.{edge.dst_port} "
                f"fed twice (by {fed[key].label} and {edge.label})"
            )
        fed[key] = edge
    for node, stage in stages.items():
        for port in stage.inputs:
            if (node, port.name) not in fed:
                raise GraphError(
                    f"graph {spec.name!r}: input {node}.{port.name} "
                    f"(contract {port.contract!r}) is not fed by any edge"
                )


def _named_cycle(spec: GraphSpec, remaining: set[str]) -> str:
    """Format one cycle among ``remaining`` nodes as its named edges."""
    # ``remaining`` holds every unscheduled node — the cycle itself plus
    # everything downstream of it.  Trim nodes with no successors inside
    # the set until only cycle-bearing nodes are left, so the walk below
    # can never dead-end.
    core = set(remaining)
    while True:
        dead = {
            node for node in core
            if not any(e.src == node and e.dst in core for e in spec.edges)
        }
        if not dead:
            break
        core -= dead
    successors: dict[str, list[Edge]] = {}
    for edge in spec.edges:
        if edge.src in core and edge.dst in core:
            successors.setdefault(edge.src, []).append(edge)
    # Walk until a node repeats; the walk is deterministic (sorted start,
    # first edge in spec order) so the error message is stable too.
    start = min(core)
    path: list[Edge] = []
    seen_at: dict[str, int] = {start: 0}
    node = start
    while True:
        edge = successors[node][0]
        path.append(edge)
        node = edge.dst
        if node in seen_at:
            cycle = path[seen_at[node]:]
            return ", ".join(e.label for e in cycle)
        seen_at[node] = len(path)


def _schedule(spec: GraphSpec, stages: dict[str, StageSpec]) -> list[str]:
    """Deterministic topological order (Kahn, lexicographic ties)."""
    indegree = {node: 0 for node in stages}
    successors: dict[str, list[str]] = {node: [] for node in stages}
    for edge in spec.edges:
        indegree[edge.dst] += 1
        successors[edge.src].append(edge.dst)
    ready = sorted(node for node, deg in indegree.items() if deg == 0)
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
    if len(order) != len(stages):
        remaining = set(stages) - set(order)
        raise GraphError(
            f"graph {spec.name!r} has a cycle through edges: "
            f"{_named_cycle(spec, remaining)}"
        )
    return order


def _check_taps(spec: GraphSpec, stages: dict[str, StageSpec]) -> None:
    for tap in spec.taps:
        if tap.node not in stages:
            raise GraphError(
                f"graph {spec.name!r}: tap {tap.span_name!r} references "
                f"unknown node {tap.node!r}"
            )
        if stages[tap.node].output_port(tap.port) is None:
            raise GraphError(
                f"graph {spec.name!r}: tap {tap.span_name!r}: node "
                f"{tap.node!r} has no output port {tap.port!r}"
            )
        if tap.every < 1:
            raise GraphError(
                f"graph {spec.name!r}: tap {tap.span_name!r}: every="
                f"{tap.every} (must be >= 1)"
            )


def compile_graph(spec: GraphSpec) -> PipelineInstance:
    """Validate a graph spec and emit an executable pipeline instance.

    Raises:
        GraphError: any structural defect (unknown stage/node/port,
            contract mismatch, unfed/double-fed input, cycle, bad tap).
    """
    stages = _check_nodes(spec)
    _check_edges(spec, stages)
    order = _schedule(spec, stages)
    _check_taps(spec, stages)
    taps_by_node: dict[str, list[TapSpec]] = {}
    for tap in spec.taps:
        taps_by_node.setdefault(tap.node, []).append(tap)
    feeds_by_node: dict[str, list[Edge]] = {}
    for edge in spec.edges:
        feeds_by_node.setdefault(edge.dst, []).append(edge)
    schedule = tuple(
        CompiledNode(
            name=node,
            spec=stages[node],
            feeds=tuple(feeds_by_node.get(node, ())),
            taps=tuple(taps_by_node.get(node, ())),
        )
        for node in order
    )
    return PipelineInstance(spec=spec, schedule=schedule)
