"""The ``repro arch`` and ``repro races`` subcommands.

Thin, testable functions over one :class:`~repro.analysis.program.Program`,
each with the lint exit-code contract (0 clean / 1 findings / 2 internal
error).  ``arch snapshot|diff`` and ``races snapshot|diff`` write or
compare the committed ``ARCH_EFFECTS.json`` / ``CONCURRENCY.json``
through one snapshot front-end (:func:`write_snapshot`,
:func:`load_snapshot`, :func:`diff_snapshots`): **new** lines fail
(exit 1) so they must be reviewed, removals are informational.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Sequence

from ..errors import ReproError
from .callgraph import CallGraph
from .concurrency import RACE_RULES, ConcurrencyAnalysis
from .effects import snapshot_payload
from .framework import AnalysisError
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

ARCH_RULES = ("RPR008", "RPR009", "RPR010")

#: Committed snapshots, and the version both carry.
ARCH_SNAPSHOT = "ARCH_EFFECTS.json"
RACES_SNAPSHOT = "CONCURRENCY.json"
SNAPSHOT_VERSION = 1

Echo = Callable[[str], None]


# -- the snapshot front-end -------------------------------------------------
def _document(payload: dict) -> dict:
    return {"version": SNAPSHOT_VERSION, **payload}


def write_snapshot(payload: dict, path: str) -> None:
    """Write a snapshot payload, stamped with :data:`SNAPSHOT_VERSION`."""
    Path(path).write_text(
        json.dumps(_document(payload), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def load_snapshot(path: str) -> dict:
    """Read a snapshot written by :func:`write_snapshot`; a missing or
    malformed file, or another version, is an :class:`AnalysisError`."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise AnalysisError(f"cannot read snapshot {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise AnalysisError(f"malformed snapshot {path}: {exc}") from exc
    version = doc.get("version") if isinstance(doc, dict) else None
    if version != SNAPSHOT_VERSION:
        raise AnalysisError(f"snapshot {path} has version {version!r}; "
                            f"expected {SNAPSHOT_VERSION}")
    return {k: v for k, v in doc.items() if k != "version"}


def snapshot_lines(payload: dict) -> set[str]:
    """One reviewable line per fact: ``qname: effect`` for effect
    snapshots; field verdicts, lock-order edges and thread contexts for
    concurrency snapshots."""
    lines = {f"{qname}: {effect}"
             for qname, effects in payload.get("functions", {}).items()
             for effect in effects}
    for key, entry in payload.get("fields", {}).items():
        tail = entry.get("locks") or entry.get("guard") \
            or entry.get("declared") or ""
        if isinstance(tail, list):
            tail = ",".join(tail)
        lines.add(f"field {key}: {entry.get('verdict')}"
                  + (f" [{tail}]" if tail else ""))
    for edge in payload.get("lock_order", []):
        lines.add(f"order {edge}")
    for name, ctx in payload.get("contexts", {}).items():
        lines.add(f"context {name}: roots={len(ctx.get('roots', []))}")
    return lines


def diff_snapshots(old: dict, new: dict) -> tuple[list[str], list[str]]:
    """``(added, removed)`` snapshot lines; additions block CI."""
    before, after = snapshot_lines(old), snapshot_lines(new)
    return sorted(after - before), sorted(before - after)


def _diff(payload: dict, against: str, echo: Echo, *, new: str,
          noun: str, review: str, unchanged: str) -> int:
    added, removed = diff_snapshots(load_snapshot(against), payload)
    for line in removed:
        echo(f"note: {line}")
    for line in added:
        echo(f"{new}: {line}")
    if added:
        echo(f"{len(added)} {noun} vs {against}; {review} once accepted")
        return LINT_EXIT_FINDINGS
    echo(f"{unchanged} vs {against}"
         + (f" ({len(removed)} removal(s))" if removed else ""))
    return LINT_EXIT_CLEAN


def _checked(tool: str, paths: Sequence[str], rules: Sequence[str],
             echo: Echo) -> int:
    if not Path(DEFAULT_POLICY).is_file():
        echo(f"{tool}: no {DEFAULT_POLICY} in the working directory")
        return LINT_EXIT_INTERNAL
    return run_lint(list(paths), select=list(rules), echo=echo)


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
    if policy.hot:
        echo("")
        echo(f"  arena-hot: {', '.join(policy.hot)}")
        echo(f"  arena:     {', '.join(policy.arena)}")
    if policy.waivers:
        echo("")
        echo(f"  {len(policy.waivers)} reviewed waiver(s):")
        for w in policy.waivers:
            echo(f"    {w.rule} {w.source} -> {w.target}: {w.reason}")
    return LINT_EXIT_CLEAN


def arch_check(paths: Sequence[str] = DEFAULT_PATHS,
               echo: Echo = print) -> int:
    """Run the architecture rules only; lint exit-code contract."""
    return _checked("arch", paths, ARCH_RULES, echo)


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


@internal_errors("arch")
def arch_snapshot(paths: Sequence[str] = DEFAULT_PATHS,
                  output: str = ARCH_SNAPSHOT,
                  policy_path: str = DEFAULT_POLICY,
                  echo: Echo = print) -> int:
    payload = snapshot_payload(
        load_program(paths, load_policy(policy_path)).effects)
    write_snapshot(payload, output)
    echo(f"wrote effect snapshot for {len(payload['functions'])} "
         f"function(s) to {output}")
    return LINT_EXIT_CLEAN


@internal_errors("arch")
def arch_diff(paths: Sequence[str] = DEFAULT_PATHS,
              against: str = ARCH_SNAPSHOT,
              policy_path: str = DEFAULT_POLICY,
              echo: Echo = print) -> int:
    """Diff current effects vs the committed snapshot.

    Exit 1 when any function *gained* an effect (review required; rerun
    ``repro arch snapshot`` after accepting).  Removed effects are
    reported but do not fail.
    """
    payload = snapshot_payload(
        load_program(paths, load_policy(policy_path)).effects)
    return _diff(payload, against, echo, new="NEW EFFECT",
                 noun="new effect(s)",
                 review="review the chain(s) with `repro arch effects` "
                        "and refresh the snapshot with `repro arch "
                        "snapshot`",
                 unchanged="effects unchanged")


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
    if Path(DEFAULT_POLICY).is_file():
        issues = _policy_issues(load_program(paths).concurrency)
        for name in issues:
            echo(f"races: [concurrency] policy name {name!r} does not "
                 f"resolve in the analyzed tree (renamed or removed?)")
        if issues:
            return LINT_EXIT_FINDINGS
    return _checked("races", paths, RACE_RULES, echo)


@internal_errors("races")
def races_show(paths: Sequence[str] = DEFAULT_PATHS,
               echo: Echo = print) -> int:
    """Print thread contexts, locks, field verdicts and lock order."""
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
    echo(f"lock-order edges ({len(analysis.order_edges)}):")
    for (a, b), site in sorted(analysis.order_edges.items()):
        echo(f"  {a} -> {b}  ({site.path}:{site.lineno})")
    for scc in analysis.order_cycles:
        echo(f"  CYCLE: {' <-> '.join(scc)}")
    return LINT_EXIT_CLEAN


def races_report(paths: Sequence[str] = DEFAULT_PATHS,
                 echo: Echo = print) -> int:
    """Emit the full machine-readable state as JSON (for CI artifacts)."""
    try:
        payload = load_program(paths).concurrency.snapshot_payload()
    except ReproError as exc:
        echo(json.dumps({"error": str(exc)}))
        return LINT_EXIT_INTERNAL
    echo(json.dumps(_document(payload), indent=2, sort_keys=True))
    return LINT_EXIT_CLEAN


@internal_errors("races")
def races_snapshot(paths: Sequence[str] = DEFAULT_PATHS,
                   output: str = RACES_SNAPSHOT,
                   echo: Echo = print) -> int:
    payload = load_program(paths).concurrency.snapshot_payload()
    write_snapshot(payload, output)
    echo(f"wrote concurrency snapshot ({len(payload['fields'])} field(s), "
         f"{len(payload['contexts'])} context(s)) to {output}")
    return LINT_EXIT_CLEAN


@internal_errors("races")
def races_diff(paths: Sequence[str] = DEFAULT_PATHS,
               against: str = RACES_SNAPSHOT,
               echo: Echo = print) -> int:
    """Diff current concurrency state vs the committed snapshot.

    Exit 1 when any field/edge/context line is *new* (review required;
    rerun ``repro races snapshot`` after accepting).  Removed lines are
    reported but do not fail.
    """
    payload = load_program(paths).concurrency.snapshot_payload()
    return _diff(payload, against, echo, new="NEW",
                 noun="new concurrency fact(s)",
                 review="review with `repro races show` and refresh the "
                        "snapshot with `repro races snapshot`",
                 unchanged="concurrency state unchanged")
