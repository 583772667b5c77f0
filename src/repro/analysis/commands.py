"""The ``repro arch`` subcommands.

Thin, testable functions over one :class:`~repro.analysis.program.Program`,
each with the lint exit-code contract (0 clean / 1 findings / 2 internal
error).  ``arch show|graph|effects`` only print what the analysis
inferred; the gates are the lint rules themselves (``repro lint`` runs
RPR008-009).
"""

from __future__ import annotations

import json
from typing import Callable, Sequence

from .callgraph import CallGraph
from .lint import LINT_EXIT_CLEAN, internal_errors
from .policy import DEFAULT_POLICY, ArchPolicy, load_policy
from .program import load_program

#: Default tree the commands analyze.
DEFAULT_PATHS = ("src/repro",)

Echo = Callable[[str], None]


# -- repro arch --------------------------------------------------------------
@internal_errors("arch")
def arch_show(policy_path: str = DEFAULT_POLICY, echo: Echo = print) -> int:
    """Print the layer diagram, top-down, with effect budgets."""
    policy = load_policy(policy_path)
    echo(f"architecture of {policy.root!r} ({policy.path}): "
         f"{len(policy.layers)} layers, top-down")
    echo("")
    width = max(len(layer.name) for layer in policy.layers)
    for layer in reversed(policy.layers):
        budget = (f"  [no {', '.join(layer.forbid)}]"
                  if layer.forbid else "")
        uses = (f"  (uses: {', '.join(layer.uses)})"
                if layer.uses is not None else "")
        echo(f"  L{layer.index:<2} {layer.name:<{width}}  "
             f"{', '.join(layer.packages)}{budget}{uses}")
        if layer.index:
            echo(f"      {'|':>{width + 2}}")
    if policy.waivers:
        echo("")
        echo(f"  {len(policy.waivers)} reviewed waiver(s):")
        for w in policy.waivers:
            echo(f"    {w.rule} {w.source} -> {w.target}: {w.reason}")
    return LINT_EXIT_CLEAN


def graph_as_json(graph: CallGraph, granularity: str = "module") -> dict:
    if granularity == "function":
        return {
            "granularity": "function",
            "functions": {
                q: {
                    "module": node.module,
                    "calls": sorted(node.calls),
                    "external": sorted({c.target for c in node.external}),
                    "unresolved": sorted(
                        {c.target for c in node.unresolved}),
                }
                for q, node in sorted(graph.functions.items())
            },
        }
    imports: dict[str, set[str]] = {}
    for edge in graph.import_edges:
        target = edge.target
        while target and target not in graph.modules:
            target = target.rpartition(".")[0]
        if target and target != edge.from_module:
            imports.setdefault(edge.from_module, set()).add(target)
    for a, b in graph.module_call_edges():
        imports.setdefault(a, set()).add(b)
    return {
        "granularity": "module",
        "modules": sorted(graph.modules),
        "edges": [
            [a, b]
            for a in sorted(imports) for b in sorted(imports[a])
        ],
    }


def graph_as_dot(graph: CallGraph, policy: ArchPolicy) -> str:
    """Module-granularity Graphviz DOT, clustered by layer."""
    payload = graph_as_json(graph, "module")
    by_layer: dict[str, list[str]] = {}
    for module in payload["modules"]:
        layer = policy.layer_of(module)
        by_layer.setdefault(layer.name if layer else "?", []).append(module)
    out = ["digraph repro_arch {", "  rankdir=BT;",
           '  node [shape=box, fontsize=10];']
    for layer_name, modules in sorted(by_layer.items()):
        out.append(f'  subgraph "cluster_{layer_name}" {{')
        out.append(f'    label="{layer_name}";')
        for module in modules:
            out.append(f'    "{module}";')
        out.append("  }")
    for a, b in payload["edges"]:
        out.append(f'  "{a}" -> "{b}";')
    out.append("}")
    return "\n".join(out) + "\n"


@internal_errors("arch")
def arch_graph(paths: Sequence[str] = DEFAULT_PATHS,
               output_format: str = "json",
               granularity: str = "module",
               policy_path: str = DEFAULT_POLICY,
               echo: Echo = print) -> int:
    policy = load_policy(policy_path)
    graph = load_program(paths, policy).graph
    if output_format == "dot":
        echo(graph_as_dot(graph, policy).rstrip("\n"))
    else:
        echo(json.dumps(graph_as_json(graph, granularity), indent=2,
                        sort_keys=True))
    return LINT_EXIT_CLEAN


@internal_errors("arch")
def arch_effects(paths: Sequence[str] = DEFAULT_PATHS,
                 prefix: str = "",
                 policy_path: str = DEFAULT_POLICY,
                 echo: Echo = print) -> int:
    """Print the inferred effect sets (optionally filtered by prefix)."""
    analysis = load_program(paths, load_policy(policy_path)).effects
    shown = 0
    for qname, effects in analysis.effect_sets().items():
        if prefix and not qname.startswith(prefix):
            continue
        echo(f"{qname}: {', '.join(effects)}")
        shown += 1
    echo(f"({shown} function(s) with effects)")
    return LINT_EXIT_CLEAN
