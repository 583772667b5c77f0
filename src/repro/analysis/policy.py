"""Architecture policy: layer DAG, effect budgets, and rules RPR008-009.

The committed ``ARCHITECTURE.toml`` at the repository root declares the
intended shape of the codebase:

* ``[[layer]]`` tables, bottom-up.  Each names a set of ``repro.*``
  package prefixes (longest prefix wins, so ``repro.core.config`` can
  sit below the rest of ``repro.core``).  A layer may import/call its
  own and *lower* layers only — unless it lists an explicit ``uses``
  set, which restricts it further (the layer order plus ``uses`` edges
  form the layer DAG).
* per-layer ``forbid`` lists: effects (see
  :mod:`repro.analysis.effects`) no function in the layer may carry,
  directly or transitively.
* ``[[waiver]]`` entries: reviewed exceptions, each with a ``reason``.

Two project rules enforce the policy through the normal lint
pipeline:

* **RPR008 layer-discipline** — an import or resolved call edge from a
  lower layer into a higher one (or a module no layer covers).
* **RPR009 transitive-effect-discipline** — a function in a budgeted
  layer carries a forbidden effect; the finding shows the full
  ``via a -> b -> c`` call chain down to the concrete seed.

Both only fire when an ``ARCHITECTURE.toml`` is present in the
working directory, and only report on files inside that directory tree
(:meth:`~repro.analysis.program.Program.in_scope`) — a policy governs
the tree it sits at the root of.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Sequence

from ..contracts import EFFECTS
from ..errors import ReproError
from .callgraph import in_package
from .findings import Finding
from .framework import ModuleContext, ProjectChecker, register_checker

if TYPE_CHECKING:
    from .program import Program

#: Committed policy file, looked up in the working directory.
DEFAULT_POLICY = "ARCHITECTURE.toml"
POLICY_VERSION = 1


class PolicyError(ReproError):
    """The architecture policy file is missing, malformed or inconsistent."""


# -- minimal TOML subset (tier-1 CI includes pythons without tomllib) -------
def _parse_toml_subset(text: str) -> dict:
    """Parse the TOML subset ``ARCHITECTURE.toml`` uses.

    Supported: ``[table]`` / ``[[array-of-tables]]`` headers, ``key =``
    with string / integer / boolean / array-of-strings values (arrays
    may span lines), ``#`` comments.  This exists only as a fallback for
    interpreters without :mod:`tomllib`; on modern pythons the real
    parser is used.
    """
    root: dict = {}
    current = root

    def strip_comment(line: str) -> str:
        out = []
        in_str = False
        for ch in line:
            if ch == '"':
                in_str = not in_str
            if ch == "#" and not in_str:
                break
            out.append(ch)
        return "".join(out).strip()

    def parse_value(raw: str):
        raw = raw.strip()
        if raw.startswith("[") and raw.endswith("]"):
            inner = raw[1:-1].strip()
            if not inner:
                return []
            return [parse_value(item)
                    for item in _split_toml_array(inner)]
        if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
            return raw[1:-1]
        if raw in ("true", "false"):
            return raw == "true"
        try:
            return int(raw)
        except ValueError:
            raise PolicyError(f"unsupported TOML value: {raw!r}")

    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = strip_comment(lines[i])
        i += 1
        if not line:
            continue
        if line.startswith("[[") and line.endswith("]]"):
            name = line[2:-2].strip()
            current = {}
            root.setdefault(name, []).append(current)
        elif line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            current = root.setdefault(name, {})
            if not isinstance(current, dict):
                raise PolicyError(f"TOML table/array clash at [{name}]")
        elif "=" in line:
            key, _, raw = line.partition("=")
            raw = raw.strip()
            # multi-line array: accumulate until brackets balance
            while raw.count("[") > raw.count("]"):
                if i >= len(lines):
                    raise PolicyError("unterminated TOML array")
                raw += " " + strip_comment(lines[i])
                i += 1
            current[key.strip()] = parse_value(raw)
        else:
            raise PolicyError(f"unsupported TOML line: {line!r}")
    return root


def _split_toml_array(inner: str) -> list[str]:
    items, buf, in_str = [], [], False
    for ch in inner:
        if ch == '"':
            in_str = not in_str
        if ch == "," and not in_str:
            items.append("".join(buf))
            buf = []
        else:
            buf.append(ch)
    tail = "".join(buf).strip()
    if tail:
        items.append(tail)
    return [s for s in (item.strip() for item in items) if s]


def _load_toml(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    try:
        import tomllib
    except ImportError:
        return _parse_toml_subset(text)
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise PolicyError(f"malformed {path}: {exc}") from exc


# -- policy model -----------------------------------------------------------
@dataclass(frozen=True)
class Layer:
    name: str
    index: int  #: position bottom-up in the file
    packages: tuple[str, ...]
    forbid: tuple[str, ...] = ()
    uses: tuple[str, ...] | None = None  #: explicit lower-layer allowance


@dataclass(frozen=True)
class Waiver:
    rule: str
    reason: str
    source: str = ""  #: module prefix the edge starts from (RPR008)
    target: str = ""  #: module/package prefix the edge lands in (RPR008)


@dataclass(frozen=True)
class LockPolicy:
    """One ``[[lock]]`` table: what a lock guards and what it forbids.

    ``guards`` entries are *assertions* the concurrency verifier checks
    (every listed field must really have this lock in its common
    lockset); ``forbid`` lists extra effects (beyond the always-banned
    ``io``/``process``) no call may carry while the lock is held.
    """

    name: str  #: lock qname, e.g. ``repro.serve.engine.ServeEngine._lock``
    guards: tuple[str, ...] = ()
    forbid: tuple[str, ...] = ()
    reason: str = ""


@dataclass
class ArchPolicy:
    """The parsed, validated architecture policy."""

    root: str
    layers: list[Layer]
    waivers: list[Waiver] = field(default_factory=list)
    path: str = DEFAULT_POLICY
    #: extra any-thread entry points for the concurrency verifier
    #: (class qnames -> their public methods, or function qnames)
    conc_entries: tuple[str, ...] = ()
    #: public methods documented as externally serialized (scheduler
    #: thread / sync mode only): qname -> reason; excluded from the
    #: any-thread entry set
    conc_serialized: dict[str, str] = field(default_factory=dict)
    #: per-lock policies declared in ``[[lock]]`` tables
    lock_policies: tuple[LockPolicy, ...] = ()

    def __post_init__(self) -> None:
        self._by_name = {layer.name: layer for layer in self.layers}
        prefixes: list[tuple[str, Layer]] = []
        for layer in self.layers:
            for pkg in layer.packages:
                prefixes.append((pkg, layer))
        #: longest-prefix-first package table
        self._prefixes = sorted(prefixes, key=lambda p: -len(p[0]))
        self.validate()

    def validate(self) -> None:
        if not self.layers:
            raise PolicyError(f"{self.path}: no [[layer]] entries")
        seen_pkgs: dict[str, str] = {}
        for layer in self.layers:
            if not layer.packages:
                raise PolicyError(
                    f"{self.path}: layer {layer.name!r} lists no packages")
            for eff in layer.forbid:
                if eff not in EFFECTS:
                    raise PolicyError(
                        f"{self.path}: layer {layer.name!r} forbids unknown "
                        f"effect {eff!r} (known: {', '.join(EFFECTS)})")
            for pkg in layer.packages:
                if pkg != self.root and not pkg.startswith(self.root + "."):
                    raise PolicyError(
                        f"{self.path}: package {pkg!r} in layer "
                        f"{layer.name!r} is outside root {self.root!r}")
                if pkg in seen_pkgs:
                    raise PolicyError(
                        f"{self.path}: package {pkg!r} claimed by layers "
                        f"{seen_pkgs[pkg]!r} and {layer.name!r}")
                seen_pkgs[pkg] = layer.name
            for used in layer.uses or ():
                target = self._by_name.get(used)
                if target is None:
                    raise PolicyError(
                        f"{self.path}: layer {layer.name!r} uses unknown "
                        f"layer {used!r}")
                if target.index >= layer.index:
                    raise PolicyError(
                        f"{self.path}: layer {layer.name!r} may only use "
                        f"lower layers, not {used!r} (the layer order plus "
                        f"uses-edges must form a DAG)")
        for lp in self.lock_policies:
            if not lp.name or not lp.reason:
                raise PolicyError(
                    f"{self.path}: every [[lock]] needs a name and a reason")
            for eff in lp.forbid:
                if eff not in EFFECTS:
                    raise PolicyError(
                        f"{self.path}: lock {lp.name!r} forbids unknown "
                        f"effect {eff!r} (known: {', '.join(EFFECTS)})")
        for name, reason in self.conc_serialized.items():
            if not name or not reason:
                raise PolicyError(
                    f"{self.path}: every [[serialized]] needs a name and "
                    f"a reason")

    def layer_of(self, module: str) -> Layer | None:
        """Longest-prefix layer for a dotted module (or symbol) name.

        The bare root package matches only *exactly* — listing ``repro``
        in a layer covers ``repro/__init__.py``, not every submodule, so
        new packages still trip the RPR008 coverage check until they are
        placed in a layer deliberately.
        """
        for prefix, layer in self._prefixes:
            if module == prefix:
                return layer
            if prefix != self.root and module.startswith(prefix + "."):
                return layer
        return None

    def allowed(self, from_layer: Layer, to_layer: Layer) -> bool:
        if from_layer.name == to_layer.name:
            return True
        if from_layer.uses is not None:
            return to_layer.name in from_layer.uses
        return to_layer.index < from_layer.index

    def waived(self, rule: str, source: str, target: str) -> bool:
        return any(w.rule == rule and in_package(source, [w.source])
                   and in_package(target, [w.target])
                   for w in self.waivers)


def load_policy(path: str | Path = DEFAULT_POLICY) -> ArchPolicy:
    """Load and validate the committed policy file."""
    p = Path(path)
    if not p.is_file():
        raise PolicyError(f"no architecture policy at {p}")
    data = _load_toml(p)
    version = data.get("version")
    if version != POLICY_VERSION:
        raise PolicyError(
            f"{p}: policy version {version!r}; expected {POLICY_VERSION}")
    root = data.get("root")
    if not isinstance(root, str) or not root:
        raise PolicyError(f"{p}: missing root package name")
    layers = []
    for i, entry in enumerate(data.get("layer", [])):
        uses = entry.get("uses")
        layers.append(Layer(
            name=str(entry.get("name", f"layer{i}")),
            index=i,
            packages=tuple(entry.get("packages", [])),
            forbid=tuple(entry.get("forbid", [])),
            uses=None if uses is None else tuple(uses),
        ))
    waivers = []
    for entry in data.get("waiver", []):
        rule = str(entry.get("rule", ""))
        reason = str(entry.get("reason", ""))
        if not rule or not reason:
            raise PolicyError(
                f"{p}: every [[waiver]] needs a rule and a reason")
        waivers.append(Waiver(
            rule=rule, reason=reason,
            source=str(entry.get("from", "")),
            target=str(entry.get("to", "")),
        ))
    conc_tbl = data.get("concurrency", {})
    serialized: dict[str, str] = {}
    for entry in data.get("serialized", []):
        serialized[str(entry.get("name", ""))] = str(entry.get("reason", ""))
    lock_policies = []
    for entry in data.get("lock", []):
        lock_policies.append(LockPolicy(
            name=str(entry.get("name", "")),
            guards=tuple(entry.get("guards", [])),
            forbid=tuple(entry.get("forbid", [])),
            reason=str(entry.get("reason", "")),
        ))
    return ArchPolicy(
        root=root,
        layers=layers,
        waivers=waivers,
        path=str(p),
        conc_entries=tuple(conc_tbl.get("entries", [])),
        conc_serialized=serialized,
        lock_policies=tuple(lock_policies),
    )


def _chain_text(chain: Sequence[str]) -> str:
    return " -> ".join(chain)


class _PolicyChecker(ProjectChecker):
    """Base of RPR008-009: active only under an ``ARCHITECTURE.toml``."""

    def applies(self, contexts: Sequence[ModuleContext]) -> bool:
        return bool(contexts) and Path(DEFAULT_POLICY).is_file()

    def check_project(self,
                      contexts: Sequence[ModuleContext]) -> Iterator[Finding]:
        from .program import program_for  # program.py imports this module

        program = program_for(contexts)
        if program.policy is not None:
            yield from (f for f in self.check_program(program)
                        if program.in_scope(f.path))


# -- RPR008 -----------------------------------------------------------------
@register_checker
class LayerDisciplineChecker(_PolicyChecker):
    """RPR008: module dependencies must respect the layer DAG."""

    rule_id = "RPR008"
    title = "layer-discipline: imports/calls must point down the layer DAG"

    def check_program(self, program: Program) -> Iterator[Finding]:
        policy, graph = program.policy, program.graph

        # every first-party module must be covered by some layer
        for module, path in sorted(graph.modules.items()):
            if policy.layer_of(module) is None:
                yield Finding(
                    path=path, line=1, col=1, rule_id=self.rule_id,
                    message=(f"module {module} is not covered by any layer "
                             f"in {policy.path}"),
                )

        seen_edges: set[tuple[str, str]] = set()

        def violation(from_module: str, target: str, path: str,
                      line: int, kind: str) -> Finding | None:
            from_layer = policy.layer_of(from_module)
            to_layer = policy.layer_of(target)
            if from_layer is None or to_layer is None:
                return None  # uncovered modules already reported above
            if policy.allowed(from_layer, to_layer):
                return None
            if policy.waived(self.rule_id, from_module, target):
                return None
            key = (from_module, to_layer.name + ":" + target)
            if key in seen_edges:
                return None
            seen_edges.add(key)
            return Finding(
                path=path, line=line, col=1, rule_id=self.rule_id,
                message=(f"layer {from_layer.name!r} module {from_module} "
                         f"{kind} {target} in higher layer "
                         f"{to_layer.name!r}"),
            )

        for edge in sorted(graph.import_edges,
                           key=lambda e: (e.path, e.lineno, e.target)):
            f = violation(edge.from_module, edge.target, edge.path,
                          edge.lineno, "imports")
            if f is not None:
                yield f

        for qname in sorted(graph.functions):
            node = graph.functions[qname]
            for callee in sorted(node.calls):
                target = graph.functions[callee]
                if target.module == node.module:
                    continue
                f = violation(node.module, target.module, node.path,
                              node.lineno, "calls into")
                if f is not None:
                    yield f


# -- RPR009 -----------------------------------------------------------------
@register_checker
class TransitiveEffectChecker(_PolicyChecker):
    """RPR009: budgeted layers must not carry forbidden effects."""

    rule_id = "RPR009"
    title = "transitive-effect-discipline: layer effect budgets hold"

    def check_program(self, program: Program) -> Iterator[Finding]:
        policy, graph, analysis = (program.policy, program.graph,
                                   program.effects)

        # (layer, effect) -> candidate functions carrying it
        candidates: dict[tuple[str, str], set[str]] = {}
        for qname, info in analysis.info.items():
            node = graph.functions[qname]
            if qname.endswith(".<module>") or not program.in_scope(node.path):
                continue  # not a budgeted entry point, or not governed
            layer = policy.layer_of(node.module)
            if layer is None or not layer.forbid:
                continue
            for effect in info.effects:
                if effect in layer.forbid:
                    candidates.setdefault(
                        (layer.name, effect), set()).add(qname)

        callers = graph.callers_of()
        for (layer_name, effect), group in sorted(candidates.items()):
            # report only the *outermost* carriers: candidates no other
            # candidate (same layer+effect) calls — i.e. the entry points
            # a reader of this layer actually hits.
            outermost = sorted(
                q for q in group
                if not (callers.get(q, set()) & group)
            )
            if not outermost:
                # every candidate sits inside a call cycle: pick a
                # deterministic representative rather than staying silent
                outermost = [min(group)]
            for qname in outermost:
                if policy.waived(self.rule_id, qname, effect):
                    continue
                node = graph.functions[qname]
                chain = analysis.effect_chain(qname, effect)
                seed = analysis.seed_of(qname, effect)
                seed_txt = f" (seed: {seed.call})" if seed else ""
                how = (f"via {_chain_text(chain)}" if len(chain) > 1
                       else "intrinsically")
                yield Finding(
                    path=node.path, line=node.lineno, col=1,
                    rule_id=self.rule_id,
                    message=(f"function {qname} in layer {layer_name!r} "
                             f"carries forbidden effect {effect!r} "
                             f"{how}{seed_txt}"),
                )
