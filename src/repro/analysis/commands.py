"""The ``repro arch`` and ``repro races`` subcommands.

Thin, testable functions over one :class:`~repro.analysis.program.Program`,
each with the lint exit-code contract (0 clean / 1 findings / 2 internal
error).  ``arch show|graph|effects`` and ``races show`` only print what
the analysis inferred; the gates are the lint rules themselves
(``repro lint`` runs RPR008-010 and RPR014/016), plus ``races check``,
which also validates the ``[concurrency]`` policy names against the
tree.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Sequence

from .callgraph import CallGraph
from .concurrency import RACE_RULES, ConcurrencyAnalysis
from .lint import (
    LINT_EXIT_CLEAN,
    LINT_EXIT_FINDINGS,
    LINT_EXIT_INTERNAL,
    internal_errors,
    run_lint,
)
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


# -- repro races -------------------------------------------------------------
def _policy_issues(analysis: ConcurrencyAnalysis) -> list[str]:
    """Policy names that do not resolve against the analyzed tree.

    The checkers silently ignore these (fixture trees legitimately lack
    the repo's entries); the CLI is where the real tree is analyzed, so
    here they are errors — a stale name means a rename silently shrank
    the verified surface.
    """
    issues = list(analysis.entry_issues)
    if analysis.policy is None:
        return issues
    lock_keys = {k for k in analysis.sync_kinds if analysis._is_lock(k)}
    for name in analysis.policy.conc_serialized:
        if name not in analysis.graph.functions:
            issues.append(name)
    for lp in analysis.policy.lock_policies:
        if lp.name not in lock_keys:
            issues.append(lp.name)
    return issues


@internal_errors("races")
def races_check(paths: Sequence[str] = DEFAULT_PATHS,
                echo: Echo = print) -> int:
    """Run the concurrency rules only; lint exit-code contract."""
    if not Path(DEFAULT_POLICY).is_file():
        echo(f"races: no {DEFAULT_POLICY} in the working directory")
        return LINT_EXIT_INTERNAL
    issues = _policy_issues(load_program(paths).concurrency)
    for name in issues:
        echo(f"races: [concurrency] policy name {name!r} does not "
             f"resolve in the analyzed tree (renamed or removed?)")
    if issues:
        return LINT_EXIT_FINDINGS
    return run_lint(list(paths), select=list(RACE_RULES), echo=echo)


@internal_errors("races")
def races_show(paths: Sequence[str] = DEFAULT_PATHS,
               echo: Echo = print) -> int:
    """Print thread contexts, locks and field verdicts."""
    analysis = load_program(paths).concurrency
    echo(f"thread contexts ({len(analysis.contexts)}):")
    for name in sorted(analysis.contexts):
        ctx = analysis.contexts[name]
        tags = [tag for tag, on in (("multi", ctx.multi),
                                    ("isolated", ctx.isolated)) if on]
        tag = f" [{', '.join(tags)}]" if tags else ""
        echo(f"  {name}{tag}: {len(ctx.roots)} root(s), "
             f"{len(ctx.reach)} reachable function(s)")
    locks = sorted(k for k in analysis.sync_kinds if analysis._is_lock(k))
    echo(f"locks ({len(locks)}):")
    for lock in locks:
        echo(f"  {lock} ({analysis.sync_kinds[lock]})")
    echo(f"shared-field verdicts ({len(analysis.verdicts)}):")
    for key in sorted(analysis.verdicts):
        v = analysis.verdicts[key]
        detail = ""
        if v.get("locks"):
            detail = " by " + ", ".join(v["locks"])
        elif v.get("guard"):
            detail = f" (guarded-by: {v['guard']} -- {v.get('reason', '')})"
        echo(f"  {key}: {v['verdict']}{detail}")
    return LINT_EXIT_CLEAN
