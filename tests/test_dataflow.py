"""Tests for the static dataflow verifier (``repro.analysis.dataflow``).

Covers the port-contract grammar, the compiler's semantic edge
comparison (spelling variants compile, concrete disagreements still
fail), and the three rules with seeded violations:

* RPR011 — a dim mismatch only visible through a 2-edge chain, with the
  chain named in the finding;
* RPR012 — a fast-backend kernel whose ``@contract`` drifted from its
  graph port (and a direct callee, the second call seam);
* RPR013 — injected overlapping-lifetime and use-after-release arena
  references, dead budget, and unplanned arena use;

plus the acceptance-criteria mutation test (flipping one port dtype in
``kfusion/graphdef.py`` turns ``repro dataflow check`` red) and the
clean-repo / CLI exit-code checks.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.analysis.dataflow import (
    BufferRef,
    GraphUnderCheck,
    check_graphs,
    run_dataflow,
    topo_schedule,
    unify_graph,
)
from repro.analysis.framework import ModuleContext
from repro.analysis.program import load_program
from repro.contracts import (
    ContractError,
    contracts_equal,
    format_contract,
    format_port_contract,
    parse_contract,
    parse_port_contract,
    port_contract_mismatch,
)
from repro.core.registry import register_defaults
from repro.errors import GraphError
from repro.graph import (
    ArenaRegion,
    Edge,
    GraphSpec,
    Port,
    StageSpec,
    compile_graph,
    get_stage,
    register_stage,
)

register_defaults()

REPO_ROOT = Path(__file__).resolve().parents[1]
REPO_SRC = REPO_ROOT / "src" / "repro"


def ctx(path, src):
    return ModuleContext.parse(src, path)


def _spec(name, run=None, inputs=(), outputs=(), **kwargs):
    return StageSpec(
        name=name,
        run=run or (lambda c, i: {p.name: None for p in outputs}),
        inputs=inputs,
        outputs=outputs,
        **kwargs,
    )


@pytest.fixture
def scratch_registry(monkeypatch):
    monkeypatch.setattr("repro.graph.stage._STAGES", {})


def _under_check(spec, origin="tests/synthetic_graphdef.py", **kwargs):
    stages = {node: get_stage(stage) for node, stage in spec.nodes}
    return GraphUnderCheck(spec=spec, stages=stages, origin=origin,
                           **kwargs)


class TestPortContractGrammar:
    def test_bare_tag(self):
        pc = parse_port_contract("track.converged")
        assert pc.tag == "track.converged"
        assert pc.spec is None and not pc.pyramid
        assert format_port_contract(pc) == "track.converged"

    def test_array_contract(self):
        pc = parse_port_contract("depth.map(H,W:f32)")
        assert pc.tag == "depth.map"
        assert pc.spec.dims == ("H", "W")
        assert pc.spec.dtype == "f32"
        assert not pc.pyramid

    def test_pyramid_contract(self):
        pc = parse_port_contract("pyramid.vertices([H,W,3:f32])")
        assert pc.pyramid
        assert pc.spec.dims == ("H", "W", 3)

    def test_whitespace_and_alias_normalize(self):
        a = parse_port_contract("img( H , W : f32 )")
        assert format_port_contract(a) == "img(H,W:f32)"
        b = parse_port_contract("m(2,2:b)")
        c = parse_port_contract("m(2,2:bool)")
        assert format_port_contract(b) == format_port_contract(c)

    def test_format_is_idempotent(self):
        for text in ("x", "a.b.c", "img(H,W:f32)", "p([...,3:f64])",
                     "m(2,2:bool)"):
            once = format_port_contract(parse_port_contract(text))
            again = format_port_contract(parse_port_contract(once))
            assert once == again

    @pytest.mark.parametrize("bad", [
        "", "  ", "1bad", "tag(", "tag()", "tag([])", "a b(H:f32)",
        "tag(H,W:q99)", "tag(H,,W:f32)",
    ])
    def test_malformed_rejected(self, bad):
        with pytest.raises(ContractError):
            parse_port_contract(bad)

    def test_mismatch_semantics(self):
        def mm(a, b):
            return port_contract_mismatch(parse_port_contract(a),
                                          parse_port_contract(b))

        assert mm("img(H,W:f32)", "img( H, W : f32 )") is None
        assert mm("m(2,2:b)", "m(2,2:bool)") is None
        # symbolic dims are edge-compatible with anything
        assert mm("img(H,W:f32)", "img(4,4:f32)") is None
        assert mm("img(r,r:f32)", "img(H,W:f32)") is None
        # concrete disagreements are not
        assert "tag" in mm("img(H,W:f32)", "pic(H,W:f32)")
        assert "dtype" in mm("img(H,W:f32)", "img(H,W:f64)")
        assert "rank" in mm("img(H,W:f32)", "img(H,W,3:f32)")
        assert "dim 1" in mm("img(4,5:f32)", "img(4,6:f32)")
        assert "pyramid" in mm("img(H,W:f32)", "img([H,W:f32])")
        assert "opaque" in mm("img", "img(H,W:f32)")

    def test_contracts_equal_on_array_specs(self):
        assert contracts_equal(parse_contract("H,W:f64"),
                               parse_contract(" H , W : f64 "))
        assert contracts_equal(parse_contract("2,2:b"),
                               parse_contract("2,2:bool"))
        assert not contracts_equal(parse_contract("H,W:f32"),
                                   parse_contract("H,W:f64"))
        assert format_contract(parse_contract("...,3:f64")) == "...,3:f64"


class TestCompilerSemanticEdges:
    """Satellite: edge comparison is semantic, not raw string equality."""

    def _wire(self, out_contract, in_contract):
        register_stage(_spec("syn.src",
                             outputs=(Port("out", out_contract),)))
        register_stage(_spec("syn.dst",
                             inputs=(Port("in", in_contract),)))
        return GraphSpec(name="syn",
                         nodes=(("a", "syn.src"), ("b", "syn.dst")),
                         edges=(Edge("a", "out", "b", "in"),))

    def test_whitespace_variant_compiles(self, scratch_registry):
        spec = self._wire("img(H,W:f32)", "img( H, W : f32 )")
        assert compile_graph(spec).stage_names == ["a", "b"]

    def test_dtype_alias_variant_compiles(self, scratch_registry):
        spec = self._wire("m(2,2:b)", "m(2,2:bool)")
        assert compile_graph(spec).stage_names == ["a", "b"]

    def test_symbol_vs_int_compiles(self, scratch_registry):
        # A single edge cannot judge a symbolic dim; RPR011 owns that.
        spec = self._wire("img(H,W:f32)", "img(4,4:f32)")
        compile_graph(spec)

    def test_dtype_width_mismatch_rejected(self, scratch_registry):
        spec = self._wire("img(H,W:f32)", "img(H,W:f64)")
        with pytest.raises(GraphError) as err:
            compile_graph(spec)
        msg = str(err.value)
        assert "a.out -> b.in" in msg
        assert "'img(H,W:f32)'" in msg and "'img(H,W:f64)'" in msg

    def test_tag_mismatch_still_rejected(self, scratch_registry):
        spec = self._wire("img(H,W:f32)", "pic(H,W:f32)")
        with pytest.raises(GraphError, match=r"a\.out -> b\.in"):
            compile_graph(spec)

    def test_unparsable_port_contract_rejected_at_declaration(self):
        with pytest.raises(GraphError, match="port 'x'"):
            Port("x", "img(")

    def test_region_with_unknown_node_rejected(self, scratch_registry):
        spec = self._wire("img(H,W:f32)", "img(H,W:f32)")
        bad = dataclasses.replace(
            spec, regions=(ArenaRegion("buf_", writer="ghost"),))
        with pytest.raises(GraphError, match="unknown writer node 'ghost'"):
            compile_graph(bad)


class TestUnification:
    """RPR011: symbolic dims unified across the whole graph."""

    def _chain(self, scratch_registry, a_out, b_io, c_in):
        register_stage(_spec("syn.a", outputs=(Port("out", a_out),)))
        register_stage(_spec("syn.b", inputs=(Port("in", b_io),),
                             outputs=(Port("out", b_io),)))
        register_stage(_spec("syn.c", inputs=(Port("in", c_in),)))
        return GraphSpec(
            name="syn",
            nodes=(("a", "syn.a"), ("b", "syn.b"), ("c", "syn.c")),
            edges=(Edge("a", "out", "b", "in"),
                   Edge("b", "out", "c", "in")),
        )

    def test_consistent_labeling_unifies(self, scratch_registry):
        spec = self._chain(scratch_registry, "m.x(4,4:f32)",
                           "m.x(r,r:f32)", "m.x(4,4:f32)")
        assert unify_graph(_under_check(spec)) == []

    def test_conflict_through_two_edge_chain_names_the_chain(
            self, scratch_registry):
        # 4 vs 5 only meet through b's symbolic (r, r) — each single
        # edge is locally fine (the compiler accepts the whole graph),
        # but no assignment of r satisfies both ends.
        spec = self._chain(scratch_registry, "m.x(4,4:f32)",
                           "m.x(r,r:f32)", "m.x(5,5:f32)")
        compile_graph(spec)  # each edge is locally compatible
        findings = unify_graph(_under_check(spec))
        assert findings, "expected an RPR011 conflict"
        msg = findings[0].message
        assert findings[0].rule_id == "RPR011"
        assert "unsatisfiable" in msg
        assert "a.out -> b.in (dim" in msg
        assert "b.out -> c.in (dim" in msg
        assert "= 4" in msg and "= 5" in msg

    def test_symbols_are_node_scoped(self, scratch_registry):
        # 'H' in a and 'H' in c are different unknowns: a(4,H) feeding
        # b(r,s) feeding c(H,5) must NOT conflate a:H with c:H.
        spec = self._chain(scratch_registry, "m.x(4,H:f32)",
                           "m.x(r,s:f32)", "m.x(H,5:f32)")
        assert unify_graph(_under_check(spec)) == []

    def test_unparsable_contract_reported_not_crashed(self):
        # Port() rejects bad contracts at declaration, so malformed
        # contracts reaching the verifier need duck-typed stages (e.g.
        # a hand-rolled graph object from another frontend).
        class FakePort:
            def __init__(self, name, contract):
                self.name, self.contract = name, contract

        class FakeStage:
            def __init__(self, inputs, outputs):
                self.inputs, self.outputs = inputs, outputs
                self.workspace_need = None
                self.run = None

        spec = GraphSpec(name="fake", nodes=(("n", "fake.n"),))
        graph = GraphUnderCheck(
            spec=spec,
            stages={"n": FakeStage((), (FakePort("out", "img("),))},
            origin="tests/fake.py",
        )
        findings = unify_graph(graph)
        assert len(findings) == 1
        assert findings[0].rule_id == "RPR011"
        assert "n.out" in findings[0].message


REGISTRY_SRC = """\
from . import fastk as _fastk


class KernelBackend:
    pass


FAST = KernelBackend(name="fast", integrate=_fastk.kernel)
"""


def _kernel_src(spec):
    return (
        "from ..contracts import contract\n"
        f"@contract(depth={spec!r})\n"
        "def kernel(depth):\n"
        "    return depth\n"
    )


def _graphdef_src(helper_spec=None):
    helper = ""
    if helper_spec is not None:
        helper = (
            "from ..contracts import contract\n"
            f"@contract(depth={helper_spec!r})\n"
            "def helper(depth):\n"
            "    return depth\n"
        )
    return (
        f"{helper}"
        "def _run_stage(ctx, inputs):\n"
        + ("    helper(inputs['depth'])\n" if helper_spec else "")
        + "    ctx.backend.integrate(inputs['depth'])\n"
        "    return {'depth': inputs['depth']}\n"
    )


class TestKernelContracts:
    """RPR012: graph ports vs the @contract of kernels the body calls."""

    def _check(self, scratch, kernel_spec, helper_spec=None,
               port="depth.map(H,W:f32)"):
        contexts = [
            ctx("/scratch/repro/perf/registry.py", REGISTRY_SRC),
            ctx("/scratch/repro/perf/fastk.py", _kernel_src(kernel_spec)),
            ctx("/scratch/repro/myalgo/graphdef.py",
                _graphdef_src(helper_spec)),
        ]
        register_stage(_spec("syn.stage", inputs=(Port("depth", port),)))
        spec = GraphSpec(name="syn", nodes=(("node", "syn.stage"),))
        graph = _under_check(
            spec,
            body_qnames={"node": "repro.myalgo.graphdef._run_stage"},
            refs_by_node={},
        )
        return [f for f in check_graphs([graph], contexts)
                if f.rule_id == "RPR012"]

    def test_matching_kernel_is_clean(self, scratch_registry):
        # width may differ (f64 kernel on an f32 wire IS the backend
        # distinction); kind may not.
        assert self._check(scratch_registry, "H,W:f64") == []

    def test_drifted_backend_kernel_is_blocking(self, scratch_registry):
        findings = self._check(scratch_registry, "H,W:i32")
        assert len(findings) == 1
        msg = findings[0].message
        assert findings[0].severity.value == "error"
        assert "backend 'fast'" in msg
        assert "repro.perf.fastk.kernel" in msg
        assert "dtype kind" in msg

    def test_drifted_rank_detected(self, scratch_registry):
        findings = self._check(scratch_registry, "H,W,3:f32")
        assert len(findings) == 1
        assert "rank" in findings[0].message

    def test_conflicting_int_dim_detected(self, scratch_registry):
        findings = self._check(scratch_registry, "4,W:f32",
                               port="depth.map(8,W:f32)")
        assert len(findings) == 1
        assert "kernel 4 != port 8" in findings[0].message

    def test_direct_callee_contract_checked(self, scratch_registry):
        findings = self._check(scratch_registry, "H,W:f64",
                               helper_spec="H,W,3:f64")
        assert len(findings) == 1
        assert "callee" in findings[0].message
        assert "helper" in findings[0].message

    def test_kernel_params_without_ports_ignored(self, scratch_registry):
        # poses/thresholds are not wired through graph ports; RPR012
        # only compares same-named params.
        contexts = [
            ctx("/scratch/repro/perf/registry.py", REGISTRY_SRC),
            ctx("/scratch/repro/perf/fastk.py",
                "from ..contracts import contract\n"
                "@contract(pose='4,4:f64')\n"
                "def kernel(depth, pose):\n"
                "    return depth\n"),
            ctx("/scratch/repro/myalgo/graphdef.py", _graphdef_src()),
        ]
        register_stage(_spec(
            "syn.stage", inputs=(Port("depth", "depth.map(H,W:f32)"),)))
        spec = GraphSpec(name="syn", nodes=(("node", "syn.stage"),))
        graph = _under_check(
            spec,
            body_qnames={"node": "repro.myalgo.graphdef._run_stage"},
            refs_by_node={},
        )
        assert [f for f in check_graphs([graph], contexts)
                if f.rule_id == "RPR012"] == []


class TestLiveness:
    """RPR013: regions vs the schedule and observed buffer refs."""

    def _graph(self, scratch, regions, needs=True):
        need = (lambda r: 16) if needs else None
        register_stage(_spec("syn.a", outputs=(Port("out", "num"),),
                             workspace_need=need))
        for name in ("b", "c"):
            register_stage(_spec(
                f"syn.{name}", inputs=(Port("in", "num"),),
                outputs=(Port("out", "num"),), workspace_need=need))
        register_stage(_spec("syn.d", inputs=(Port("in", "num"),),
                             workspace_need=need))
        spec = GraphSpec(
            name="syn",
            nodes=(("a", "syn.a"), ("b", "syn.b"), ("c", "syn.c"),
                   ("d", "syn.d")),
            edges=(Edge("a", "out", "b", "in"),
                   Edge("b", "out", "c", "in"),
                   Edge("c", "out", "d", "in")),
            regions=regions,
        )
        return spec

    def _findings(self, spec, refs):
        graph = _under_check(spec, refs_by_node=refs)
        return [f for f in check_graphs([graph])
                if f.rule_id == "RPR013"]

    @staticmethod
    def _ref(name, qname="repro.perf.kern.f", line=1):
        return BufferRef(name=name, exact=True, qname=qname, lineno=line)

    def test_schedule_is_deterministic_topo(self, scratch_registry):
        spec = self._graph(scratch_registry, ())
        graph = _under_check(spec, refs_by_node={})
        assert topo_schedule(graph) == ["a", "b", "c", "d"]

    def test_clean_region_usage(self, scratch_registry):
        spec = self._graph(
            scratch_registry,
            (ArenaRegion("buf_", writer="a", readers=("c",)),))
        refs = {"a": [self._ref("buf_x")]}
        assert self._findings(spec, refs) == []

    def test_overlapping_lifetime_write_detected(self, scratch_registry):
        # b touches a's buffers while the a->c window is live.
        spec = self._graph(
            scratch_registry,
            (ArenaRegion("buf_", writer="a", readers=("c",)),))
        refs = {"a": [self._ref("buf_x")], "b": [self._ref("buf_x")]}
        findings = self._findings(spec, refs)
        assert len(findings) == 1
        assert "overlapping-lifetime" in findings[0].message
        assert "'b'" in findings[0].message
        assert "'buf_'" in findings[0].message

    def test_use_after_release_detected(self, scratch_registry):
        # d touches a's buffers after the a->c window closed.
        spec = self._graph(
            scratch_registry,
            (ArenaRegion("buf_", writer="a", readers=("c",)),))
        refs = {"a": [self._ref("buf_x")], "d": [self._ref("buf_x")]}
        findings = self._findings(spec, refs)
        assert len(findings) == 1
        assert "use-after-release" in findings[0].message
        assert "'d'" in findings[0].message

    def test_reader_scheduled_before_writer(self, scratch_registry):
        spec = self._graph(
            scratch_registry,
            (ArenaRegion("buf_", writer="c", readers=("a",)),))
        refs = {"c": [self._ref("buf_x")]}
        findings = self._findings(spec, refs)
        assert len(findings) == 1
        assert "use-after-release" in findings[0].message
        assert "previous frame" in findings[0].message

    def test_cross_frame_reader_before_writer_is_legal(
            self, scratch_registry):
        # The raycast-model pattern: written late, read early next frame.
        spec = self._graph(
            scratch_registry,
            (ArenaRegion("buf_", writer="c", readers=("a",),
                         cross_frame=True),))
        refs = {"c": [self._ref("buf_x")]}
        assert self._findings(spec, refs) == []

    def test_cross_frame_region_never_releasable(self, scratch_registry):
        # Any outside toucher overlaps a cross-frame region.
        spec = self._graph(
            scratch_registry,
            (ArenaRegion("buf_", writer="a", readers=(),
                         cross_frame=True),))
        refs = {"a": [self._ref("buf_x")], "d": [self._ref("buf_x")]}
        findings = self._findings(spec, refs)
        assert len(findings) == 1
        assert "overlapping-lifetime" in findings[0].message

    def test_dead_budget_warned(self, scratch_registry):
        spec = self._graph(
            scratch_registry,
            (ArenaRegion("buf_", writer="a"),
             ArenaRegion("ghost_", writer="b"),))
        refs = {"a": [self._ref("buf_x")]}
        findings = self._findings(spec, refs)
        assert len(findings) == 1
        assert findings[0].severity.value == "warning"
        assert "dead budget" in findings[0].message
        assert "'ghost_'" in findings[0].message

    def test_unplanned_buffer_detected(self, scratch_registry):
        spec = self._graph(scratch_registry,
                           (ArenaRegion("buf_", writer="a"),))
        refs = {"a": [self._ref("buf_x"), self._ref("rogue_y")]}
        findings = self._findings(spec, refs)
        assert len(findings) == 1
        assert "matches no declared region" in findings[0].message

    def test_arena_use_without_workspace_need(self, scratch_registry):
        spec = self._graph(scratch_registry,
                           (ArenaRegion("buf_", writer="a"),),
                           needs=False)
        refs = {"a": [self._ref("buf_x")]}
        findings = self._findings(spec, refs)
        assert len(findings) == 1
        assert "no workspace need" in findings[0].message

    def test_longest_prefix_wins(self, scratch_registry):
        # "buf_vip" belongs to the longer-lived sub-family, so d's read
        # inside that family's window is legal while "buf_x" stays
        # writer-private.
        spec = self._graph(
            scratch_registry,
            (ArenaRegion("buf_", writer="a"),
             ArenaRegion("buf_vip", writer="a", readers=("d",)),))
        refs = {"a": [self._ref("buf_x"), self._ref("buf_vip0")],
                "d": [self._ref("buf_vip0")]}
        assert self._findings(spec, refs) == []


@pytest.fixture(scope="module")
def repo_contexts():
    return load_program([str(REPO_SRC)]).contexts


def _registered_graphs():
    from repro.cli import _collect_registered_graphs

    graphs, failures = _collect_registered_graphs()
    assert failures == []
    return graphs


class TestCleanRepoAndMutation:
    def test_registered_graphs_are_clean(self, repo_contexts):
        assert check_graphs(_registered_graphs(), repo_contexts) == []

    def test_run_dataflow_exits_zero(self, repo_contexts):
        out = []
        code = run_dataflow(_registered_graphs(), [str(REPO_SRC)],
                            echo=out.append)
        assert code == 0
        assert out[0].startswith("clean:")

    def test_flipping_port_dtype_turns_check_red(self, repo_contexts):
        # The acceptance-criteria mutation: kfusion/graphdef.py declares
        # the depth wire as f32; flipping it to i32 must make the
        # kernel cross-check fail (the integrate/bilateral kernels
        # declare float contracts).
        source = (REPO_SRC / "kfusion" / "graphdef.py").read_text()
        assert 'DEPTH_MAP = "depth.map(H,W:f32)"' in source

        graphs = _registered_graphs()
        kfusion = next(g for g in graphs if g.spec.name == "kfusion")
        mutated_stages = {}
        for node, stage in kfusion.stages.items():
            def flip(ports):
                return tuple(
                    Port(p.name, "depth.map(H,W:i32)")
                    if p.contract == "depth.map(H,W:f32)" else p
                    for p in ports)
            mutated_stages[node] = dataclasses.replace(
                stage, inputs=flip(stage.inputs),
                outputs=flip(stage.outputs))
        mutated = dataclasses.replace(kfusion, stages=mutated_stages)
        findings = check_graphs([mutated], repo_contexts)
        assert any(f.rule_id == "RPR012" for f in findings)
        assert all(f.severity.value == "error"
                   for f in findings if f.rule_id == "RPR012")

    def test_kfusion_arena_regions_match_reality(self, repo_contexts):
        # The declared regions are exercised for real: every region hits
        # at least one reachable buffer reference (no dead budget) and
        # every reference lands in a region (no unplanned use).
        graphs = _registered_graphs()
        kfusion = next(g for g in graphs if g.spec.name == "kfusion")
        assert len(kfusion.spec.regions) >= 8
        findings = [f for f in check_graphs([kfusion], repo_contexts)
                    if f.rule_id == "RPR013"]
        assert findings == []


class TestDataflowCli:
    def test_check_exits_zero_and_reports_clean(self, capsys):
        from repro.cli import main

        assert main(["dataflow", "check", str(REPO_SRC)]) == 0
        assert "clean:" in capsys.readouterr().out

    def test_check_json_format(self, capsys):
        from repro.cli import main

        assert main(["dataflow", "check", "--format", "json",
                     str(REPO_SRC)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["summary"]["total"] == 0

    def test_show_lists_ports_and_regions(self, capsys):
        from repro.cli import main

        assert main(["dataflow", "show", "kfusion"]) == 0
        out = capsys.readouterr().out
        assert "depth.map(H,W:f32)" in out
        assert "region rc_vertices*" in out and "cross-frame" in out

    def test_show_json_shape(self, capsys):
        from repro.cli import main

        assert main(["dataflow", "show", "kfusion",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["graph"] == "kfusion"
        assert doc["schedule"] == ["preprocess", "track", "integrate",
                                   "raycast"]
        ports = {(p["node"], p["port"]): p["normalized"]
                 for p in doc["ports"]}
        assert ports[("preprocess", "depth")] == "depth.map(H,W:f32)"

    def test_show_unknown_graph_is_internal_error(self, capsys):
        from repro.cli import main

        assert main(["dataflow", "show", "teapot"]) == 2
