"""Composable stage-graph pipeline runtime.

``repro.graph`` decomposes SLAM pipelines into declarative graphs of
registered stages, the way SLAMBench2 makes algorithms pluggable behind
a common stage API:

* :mod:`~repro.graph.stage` — stage specs (ports + contracts, effect
  budgets) and the write-once stage registry;
* :mod:`~repro.graph.spec` — declarative graphs (nodes, edges, stream
  taps) and the graph-definition registry;
* :mod:`~repro.graph.compiler` — the runtime compiler: topology,
  contract and cycle validation, deterministic scheduling, effect-budget
  checks against ``ARCHITECTURE.toml``;
* :mod:`~repro.graph.instance` — the compiled, executable pipeline;
* :mod:`~repro.graph.taps` — stream-tap samplers (intermediate frames
  -> telemetry spans).

``KinectFusion`` and the baselines are thin graph definitions over this
runtime (``repro.kfusion.graphdef``, ``repro.baselines.graphdef``);
kernel backends stay orthogonal via :mod:`repro.perf`.  See DESIGN.md
S19.
"""

from ..errors import GraphError, StageExecutionError
from .compiler import CompiledNode, compile_graph
from .instance import PipelineInstance
from .spec import (
    Edge,
    GraphSpec,
    TapSpec,
    create_graph,
    graph_factory,
    graph_names,
    register_graph,
)
from .stage import (
    Port,
    StageContext,
    StageSpec,
    get_stage,
    register_stage,
    stage_names,
)
from .taps import default_sampler

__all__ = [
    "CompiledNode",
    "Edge",
    "GraphError",
    "GraphSpec",
    "PipelineInstance",
    "Port",
    "StageContext",
    "StageExecutionError",
    "StageSpec",
    "TapSpec",
    "compile_graph",
    "create_graph",
    "default_sampler",
    "get_stage",
    "graph_factory",
    "graph_names",
    "register_graph",
    "register_stage",
    "stage_names",
]
