"""Declarative pipeline graphs: nodes, edges, taps, and their registry.

A :class:`GraphSpec` is the *definition* of a pipeline — pure data, no
behaviour: which registered stages run (as named nodes), how their ports
wire together (edges), and where intermediate streams are sampled into
telemetry (taps).  The runtime compiler (:mod:`repro.graph.compiler`)
turns a spec into an executable
:class:`~repro.graph.instance.PipelineInstance`.

Algorithms register their graph *factories* here the same way SLAM
systems register in :mod:`repro.core.registry`: ``repro graph check``
compiles every registered definition, so a broken wiring fails the lint
exit-code contract instead of a user's run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable

from ..errors import GraphError


@dataclass(frozen=True)
class Edge:
    """One directed value wire: ``src.src_port -> dst.dst_port``."""

    src: str
    src_port: str
    dst: str
    dst_port: str

    @property
    def label(self) -> str:
        """Human-readable edge name used in every compiler error."""
        return f"{self.src}.{self.src_port} -> {self.dst}.{self.dst_port}"


@dataclass(frozen=True)
class TapSpec:
    """A stream tap: sample one node output into telemetry spans.

    Attributes:
        node: graph node whose output is observed.
        port: the node's output port name.
        every: sample every N-th frame (1 = every frame).
        sampler: ``f(value) -> dict`` of JSON-safe span attributes;
            defaults to :func:`repro.graph.taps.default_sampler`.  The
            sampler receives the live edge value and MUST NOT mutate it
            — taps are proven non-perturbing by the golden suite.
        name: span name override (default ``tap.<node>.<port>``).
    """

    node: str
    port: str
    every: int = 1
    sampler: Callable[[Any], dict] | None = None
    name: str = ""

    @property
    def span_name(self) -> str:
        return self.name or f"tap.{self.node}.{self.port}"


@dataclass(frozen=True)
class GraphSpec:
    """A declarative pipeline graph over registered stages.

    Attributes:
        name: graph identifier (``"kfusion"``).
        nodes: ``(node_name, stage_name)`` pairs; the node name is local
            to the graph and becomes the telemetry span / workload stage
            name, the stage name looks up the registry.
        edges: port wiring between nodes.
        taps: stream taps on node outputs.
    """

    name: str
    nodes: tuple[tuple[str, str], ...]
    edges: tuple[Edge, ...] = ()
    taps: tuple[TapSpec, ...] = field(default_factory=tuple)

    def with_tap(self, node: str, port: str, every: int = 1,
                 sampler: Callable[[Any], dict] | None = None,
                 name: str = "") -> "GraphSpec":
        """A copy of this spec with one more stream tap attached."""
        tap = TapSpec(node=node, port=port, every=every, sampler=sampler,
                      name=name)
        return replace(self, taps=self.taps + (tap,))

    def with_taps(self, taps) -> "GraphSpec":
        """A copy of this spec with ``taps`` appended; each tap is a
        :class:`TapSpec` or a ``(node, port)`` tuple."""
        return replace(self, taps=self.taps + tuple(
            tap if isinstance(tap, TapSpec) else TapSpec(*tap)
            for tap in taps
        ))

    def node_names(self) -> list[str]:
        return [name for name, _ in self.nodes]


_GRAPHS: dict[str, Callable[..., GraphSpec]] = {}


def register_graph(name: str, factory: Callable[..., GraphSpec]) -> None:
    """Register a graph-definition factory under ``name``."""
    if name in _GRAPHS:
        raise GraphError(f"graph {name!r} already registered")
    # effect-ok: import-time write-once registry (duplicates rejected above)
    _GRAPHS[name] = factory


def create_graph(name: str, **kwargs) -> GraphSpec:
    """Instantiate a registered graph definition."""
    try:
        factory = _GRAPHS[name]
    except KeyError:
        raise GraphError(
            f"unknown graph {name!r}; registered: {graph_names()}"
        ) from None
    return factory(**kwargs)


def graph_factory(name: str) -> Callable[..., GraphSpec]:
    """The registered factory itself (``repro graph check`` anchors its
    findings to the factory's defining module)."""
    try:
        return _GRAPHS[name]
    except KeyError:
        raise GraphError(
            f"unknown graph {name!r}; registered: {graph_names()}"
        ) from None


def graph_names() -> list[str]:
    return sorted(_GRAPHS)
