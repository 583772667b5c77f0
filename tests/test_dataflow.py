"""Tests for the kernel-contract check (``repro.analysis.dataflow``).

Covers the port-contract grammar, the compiler's semantic edge
comparison (spelling variants compile, concrete disagreements still
fail), and RPR012 with seeded violations: a fast-backend kernel whose
``@contract`` drifted from its graph port, and a direct callee (the
second call seam).  The acceptance-criteria mutation test (flipping one
port dtype of the kfusion graph turns ``repro graph check`` red) and
the clean-repo check run through ``repro graph check``.
"""

import dataclasses
import types
from pathlib import Path

import pytest

from repro.analysis.dataflow import (
    GraphUnderCheck,
    check_graphs,
    resolve_slot_kernels,
    run_kernel_contract_check,
)
from repro.analysis.framework import ModuleContext
from repro.cli import main
from repro.contracts import (
    ContractError,
    contract,
    parse_port_contract,
    port_contract_mismatch,
)
from repro.core.registry import register_defaults
from repro.errors import GraphError
from repro.graph import (
    Edge,
    GraphSpec,
    Port,
    StageSpec,
    compile_graph,
    create_graph,
    get_stage,
    graph_names,
    register_stage,
)
from repro.graph.stage import _STAGES
from repro.perf import get_kernel_backend, kernel_backend_names

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
        assert (a.tag, a.spec.dims, a.spec.dtype) == ("img", ("H", "W"),
                                                      "f32")
        b = parse_port_contract("m(2,2:b)")
        c = parse_port_contract("m(2,2:bool)")
        assert b.spec.dtype == c.spec.dtype == "bool"

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
        # A symbolic dim is edge-compatible with any size.
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


def _fast_backend(**contracts):
    """A synthetic ``fast`` backend whose integrate slot declares
    ``contracts``, read live like a registered backend's."""
    def kernel(depth, pose=None):
        return depth

    kernel.__module__, kernel.__qualname__ = "repro.perf.fastk", "kernel"
    return types.SimpleNamespace(name="fast",
                                 integrate=contract(**contracts)(kernel))


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
               port="depth.map(H,W:f32)", backend=None):
        contexts = [ctx("/scratch/repro/myalgo/graphdef.py",
                        _graphdef_src(helper_spec))]
        register_stage(_spec("syn.stage", inputs=(Port("depth", port),)))
        spec = GraphSpec(name="syn", nodes=(("node", "syn.stage"),))
        graph = _under_check(
            spec,
            body_qnames={"node": "repro.myalgo.graphdef._run_stage"},
        )
        backend = backend or _fast_backend(depth=kernel_spec)
        return [f for f in check_graphs([graph], contexts, [backend])
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
        assert self._check(scratch_registry, None,
                           backend=_fast_backend(pose="4,4:f64")) == []


def _registered_graphs():
    """Every registered graph, compiled, as ``repro graph check`` hands
    them to RPR012."""
    graphs = []
    for name in graph_names():
        instance = compile_graph(create_graph(name))
        graphs.append(GraphUnderCheck(
            spec=instance.spec, origin=f"<{name}>",
            stages={node.name: node.spec for node in instance.schedule}))
    return graphs


class TestCleanRepoAndMutation:
    def test_registered_graphs_are_clean(self, capsys):
        assert main(["graph", "check"]) == 0
        assert "clean: 0 error(s)" in capsys.readouterr().out

    def test_run_kernel_contract_check_exits_zero(self):
        out = []
        code = run_kernel_contract_check(
            _registered_graphs(), [str(REPO_SRC)],
            [get_kernel_backend(n) for n in kernel_backend_names()],
            echo=out.append)
        assert code == 0
        assert out[0].startswith("clean:")

    def test_every_backend_slot_contract_is_compared(self):
        # bilateral_filter, integrate and raycast_model declare
        # contracts on all three backends (the reference adapters carry
        # their kernels' contracts); the other slots declare none.
        rows = resolve_slot_kernels(
            [get_kernel_backend(n) for n in kernel_backend_names()])
        assert {slot: [info.label for info in infos]
                for slot, infos in rows.items()} == {
            slot: ["backend 'fast'", "backend 'reference'",
                   "backend 'sparse'"]
            for slot in ("bilateral_filter", "integrate", "raycast_model")
        }

    def test_flipping_port_dtype_turns_check_red(self, capsys, monkeypatch):
        # The acceptance-criteria mutation: kfusion/graphdef.py declares
        # the depth wire as f32; flipping it to i32 on every kfusion
        # stage still compiles (both edge ends agree) but must make the
        # kernel cross-check fail (the integrate/bilateral kernels
        # declare float contracts).
        source = (REPO_SRC / "kfusion" / "graphdef.py").read_text()
        assert 'DEPTH_MAP = "depth.map(H,W:f32)"' in source

        def flip(ports):
            return tuple(Port(p.name, "depth.map(H,W:i32)")
                         if p.contract == "depth.map(H,W:f32)" else p
                         for p in ports)

        stages = {
            name: dataclasses.replace(stage, inputs=flip(stage.inputs),
                                      outputs=flip(stage.outputs))
            for name, stage in _STAGES.items()
        }
        monkeypatch.setattr("repro.graph.stage._STAGES", stages)
        assert main(["graph", "check", "--graph", "kfusion"]) == 1
        out = capsys.readouterr().out
        assert "ok   kfusion" in out  # the wiring itself still compiles
        rpr012 = [line for line in out.splitlines() if " RPR012 " in line]
        assert rpr012
        assert all("[error]" in line and "i32" in line for line in rpr012)

