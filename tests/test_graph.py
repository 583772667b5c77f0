"""Unit tests for the stage-graph runtime (``repro.graph``).

Covers the registry discipline, the compiler's structural validations
(each with its named-entity error message), failure semantics
(:class:`~repro.errors.StageExecutionError` naming the stage), and
stream taps (sampling cadence, span attributes, read-only samplers).
"""

import numpy as np
import pytest

from repro.errors import GraphError, StageExecutionError
from repro.graph import (
    Edge,
    GraphSpec,
    Port,
    StageContext,
    StageSpec,
    TapSpec,
    compile_graph,
    create_graph,
    default_sampler,
    get_stage,
    graph_names,
    register_graph,
    register_stage,
    stage_names,
)
from repro.core.registry import register_defaults
from repro.telemetry import Tracer, use_tracer

register_defaults()  # imports the kfusion + odometry graph definitions


def _spec(name, run=None, inputs=(), outputs=(), **kwargs):
    return StageSpec(
        name=name,
        run=run or (lambda ctx, inputs: {p.name: None for p in outputs}),
        inputs=inputs,
        outputs=outputs,
        **kwargs,
    )


@pytest.fixture
def scratch_registry(monkeypatch):
    """An isolated stage registry so tests can register freely."""
    monkeypatch.setattr("repro.graph.stage._STAGES", {})
    from repro.graph import stage as stage_mod
    return stage_mod


class TestPortAndStageSpec:
    def test_port_requires_name_and_contract(self):
        with pytest.raises(GraphError, match="name and a contract"):
            Port("", "depth.map")
        with pytest.raises(GraphError, match="name and a contract"):
            Port("depth", "")

    def test_duplicate_port_names_rejected(self):
        with pytest.raises(GraphError, match="duplicate output port"):
            _spec("s", outputs=(Port("a", "x"), Port("a", "y")))

    def test_empty_name_rejected(self):
        with pytest.raises(GraphError, match="non-empty name"):
            _spec("")


class TestStageRegistry:
    def test_register_and_lookup(self, scratch_registry):
        spec = register_stage(_spec("toy.alpha"))
        assert get_stage("toy.alpha") is spec
        assert stage_names() == ["toy.alpha"]

    def test_duplicate_name_rejected(self, scratch_registry):
        register_stage(_spec("toy.alpha"))
        with pytest.raises(GraphError, match="already registered"):
            register_stage(_spec("toy.alpha"))

    def test_unknown_stage_lists_inventory(self, scratch_registry):
        register_stage(_spec("toy.alpha"))
        with pytest.raises(GraphError, match="toy.alpha"):
            get_stage("toy.beta")

    def test_production_stages_registered(self):
        # The real registry carries the kfusion + odometry stages.
        assert "kfusion.track" in stage_names()
        assert "odometry.track" in stage_names()


class TestGraphRegistry:
    def test_production_graphs_registered(self):
        assert {"kfusion", "icp_odometry"} <= set(graph_names())

    def test_unknown_graph_rejected(self):
        with pytest.raises(GraphError, match="unknown graph"):
            create_graph("teapot")

    def test_duplicate_graph_rejected(self):
        with pytest.raises(GraphError, match="already registered"):
            register_graph("kfusion", lambda: None)

    def test_factory_kwargs_forwarded(self):
        spec = create_graph("kfusion", publish_render=True)
        assert "render" in spec.node_names()


def _toy_graph(scratch_registry):
    """a -> b -> c diamond-free chain over an isolated registry."""
    register_stage(_spec("toy.a", outputs=(Port("out", "num"),),
                         run=lambda ctx, i: {"out": 1}))
    register_stage(_spec("toy.b", inputs=(Port("in", "num"),),
                         outputs=(Port("out", "num"),),
                         run=lambda ctx, i: {"out": i["in"] + 1}))
    register_stage(_spec("toy.c", inputs=(Port("in", "num"),),
                         outputs=(Port("out", "num"),),
                         run=lambda ctx, i: {"out": i["in"] * 2}))
    return GraphSpec(
        name="toy",
        nodes=(("a", "toy.a"), ("b", "toy.b"), ("c", "toy.c")),
        edges=(Edge("a", "out", "b", "in"), Edge("b", "out", "c", "in")),
    )


class TestCompilerValidation:
    def test_happy_path_runs(self, scratch_registry):
        instance = compile_graph(_toy_graph(scratch_registry))
        values = instance.run_frame(StageContext())
        assert values[("c", "out")] == 4
        assert instance.stage_names == ["a", "b", "c"]

    def test_empty_graph_rejected(self):
        with pytest.raises(GraphError, match="no nodes"):
            compile_graph(GraphSpec(name="void", nodes=()))

    def test_duplicate_node_names_rejected(self, scratch_registry):
        _toy_graph(scratch_registry)
        spec = GraphSpec(name="dup",
                         nodes=(("a", "toy.a"), ("a", "toy.b")))
        with pytest.raises(GraphError, match="duplicate node names"):
            compile_graph(spec)

    def test_unregistered_stage_rejected(self):
        spec = GraphSpec(name="g", nodes=(("a", "no.such.stage"),))
        with pytest.raises(GraphError, match="unknown stage"):
            compile_graph(spec)

    def test_edge_to_unknown_node_rejected(self, scratch_registry):
        spec = _toy_graph(scratch_registry)
        bad = GraphSpec(name="g", nodes=spec.nodes,
                        edges=spec.edges + (Edge("c", "out", "ghost", "in"),))
        with pytest.raises(GraphError,
                           match=r"c\.out -> ghost\.in.*unknown "
                                 r"destination node 'ghost'"):
            compile_graph(bad)

    def test_edge_from_unknown_port_rejected(self, scratch_registry):
        spec = _toy_graph(scratch_registry)
        bad = GraphSpec(name="g", nodes=spec.nodes,
                        edges=(Edge("a", "bogus", "b", "in"),
                               spec.edges[1]))
        with pytest.raises(GraphError, match="no output port 'bogus'"):
            compile_graph(bad)

    def test_contract_mismatch_names_edge_and_contracts(
            self, scratch_registry):
        _toy_graph(scratch_registry)
        register_stage(_spec("toy.txt", inputs=(Port("in", "text"),),
                             outputs=(Port("out", "text"),)))
        bad = GraphSpec(
            name="g",
            nodes=(("a", "toy.a"), ("t", "toy.txt")),
            edges=(Edge("a", "out", "t", "in"),),
        )
        with pytest.raises(GraphError) as err:
            compile_graph(bad)
        msg = str(err.value)
        assert "a.out -> t.in" in msg
        assert "'num'" in msg and "'text'" in msg

    def test_double_fed_input_rejected(self, scratch_registry):
        spec = _toy_graph(scratch_registry)
        bad = GraphSpec(name="g", nodes=spec.nodes,
                        edges=spec.edges + (Edge("a", "out", "c", "in"),))
        with pytest.raises(GraphError, match="fed twice"):
            compile_graph(bad)

    def test_unfed_input_rejected(self, scratch_registry):
        spec = _toy_graph(scratch_registry)
        bad = GraphSpec(name="g", nodes=spec.nodes, edges=spec.edges[:1])
        with pytest.raises(GraphError, match=r"input c\.in .* not fed"):
            compile_graph(bad)

    def test_cycle_reported_with_named_edges(self, scratch_registry):
        _toy_graph(scratch_registry)
        cyc = GraphSpec(
            name="loop",
            nodes=(("b", "toy.b"), ("c", "toy.c")),
            edges=(Edge("b", "out", "c", "in"), Edge("c", "out", "b", "in")),
        )
        with pytest.raises(GraphError) as err:
            compile_graph(cyc)
        msg = str(err.value)
        assert "cycle" in msg
        assert "b.out -> c.in" in msg and "c.out -> b.in" in msg

    def test_tap_on_unknown_node_rejected(self, scratch_registry):
        spec = _toy_graph(scratch_registry).with_tap("ghost", "out")
        with pytest.raises(GraphError, match="unknown node 'ghost'"):
            compile_graph(spec)

    def test_tap_on_unknown_port_rejected(self, scratch_registry):
        spec = _toy_graph(scratch_registry).with_tap("a", "bogus")
        with pytest.raises(GraphError, match="no output port 'bogus'"):
            compile_graph(spec)

    def test_tap_every_must_be_positive(self, scratch_registry):
        spec = _toy_graph(scratch_registry).with_tap("a", "out", every=0)
        with pytest.raises(GraphError, match="every=0"):
            compile_graph(spec)


class TestDeterministicSchedule:
    def test_lexicographic_tiebreak(self, scratch_registry):
        register_stage(_spec("toy.src", outputs=(Port("out", "num"),)))
        register_stage(_spec("toy.sink", inputs=(Port("in", "num"),)))
        spec = GraphSpec(
            name="fanout",
            nodes=(("m", "toy.src"), ("z", "toy.sink"), ("a", "toy.sink"),
                   ("k", "toy.sink")),
            edges=(Edge("m", "out", "z", "in"), Edge("m", "out", "a", "in"),
                   Edge("m", "out", "k", "in")),
        )
        assert compile_graph(spec).stage_names == ["m", "a", "k", "z"]

    def test_kfusion_schedule_matches_legacy_order(self):
        instance = compile_graph(create_graph("kfusion",
                                              publish_render=True))
        assert instance.stage_names == [
            "preprocess", "track", "integrate", "raycast", "render",
        ]


class TestFailureSemantics:
    def _raising_graph(self, scratch_registry, exc):
        def boom(ctx, inputs):
            raise exc
        register_stage(_spec("toy.a", outputs=(Port("out", "num"),),
                             run=lambda ctx, i: {"out": 1}))
        register_stage(_spec("toy.boom", inputs=(Port("in", "num"),),
                             run=boom))
        return GraphSpec(name="boomy",
                         nodes=(("a", "toy.a"), ("boom", "toy.boom")),
                         edges=(Edge("a", "out", "boom", "in"),))

    def test_stage_exception_wrapped_and_named(self, scratch_registry):
        spec = self._raising_graph(scratch_registry,
                                   ValueError("bad voxel"))
        instance = compile_graph(spec)

        class FakeFrame:
            index = 7

        with pytest.raises(StageExecutionError) as err:
            instance.run_frame(StageContext(frame=FakeFrame()))
        assert err.value.stage == "boom"
        assert err.value.frame_index == 7
        assert "bad voxel" in str(err.value)
        assert "'boom'" in str(err.value)
        assert isinstance(err.value.__cause__, ValueError)

    def test_stage_execution_error_not_double_wrapped(
            self, scratch_registry):
        inner = StageExecutionError("already named", stage="inner")
        spec = self._raising_graph(scratch_registry, inner)
        instance = compile_graph(spec)
        with pytest.raises(StageExecutionError) as err:
            instance.run_frame(StageContext())
        assert err.value is inner  # re-raised, not wrapped again

    def test_missing_declared_output_detected(self, scratch_registry):
        register_stage(_spec("toy.hollow",
                             outputs=(Port("out", "num"),),
                             run=lambda ctx, i: {}))
        instance = compile_graph(
            GraphSpec(name="g", nodes=(("h", "toy.hollow"),)))
        with pytest.raises(StageExecutionError,
                           match=r"did not produce .*\['out'\]"):
            instance.run_frame(StageContext())
        try:
            instance.run_frame(StageContext())
        except StageExecutionError as exc:
            assert exc.stage == "h"

    def test_graph_error_hierarchy(self):
        from repro.errors import ReproError
        assert issubclass(GraphError, ReproError)
        assert issubclass(StageExecutionError, GraphError)


class _FakeIndexedFrame:
    def __init__(self, index):
        self.index = index


class TestStreamTaps:
    def _emit_graph(self, scratch_registry):
        register_stage(_spec(
            "toy.emit", outputs=(Port("out", "arr"),),
            run=lambda ctx, i: {"out": np.arange(6, dtype=np.float32)},
        ))
        return GraphSpec(name="tapped", nodes=(("emit", "toy.emit"),))

    def _tapped_instance(self, scratch_registry, **tap_kwargs):
        spec = self._emit_graph(scratch_registry)
        return compile_graph(spec.with_tap("emit", "out", **tap_kwargs))

    def test_tap_emits_named_span_with_attrs(self, scratch_registry):
        spec = self._emit_graph(scratch_registry)
        # The same tap attached three ways: keyword, TapSpec, (node, port).
        for tapped in (spec.with_tap("emit", "out"),
                       spec.with_taps([TapSpec(node="emit", port="out")]),
                       spec.with_taps([("emit", "out")])):
            instance = compile_graph(tapped)
            tracer = Tracer(enabled=True)
            with use_tracer(tracer):
                instance.run_frame(StageContext(frame=_FakeIndexedFrame(3)))
            taps = [s for s in tracer.spans if s.name == "tap.emit.out"]
            assert len(taps) == 1
            attrs = taps[0].attrs
            assert attrs["frame"] == 3
            assert attrs["node"] == "emit" and attrs["port"] == "out"
            assert attrs["shape"] == "6" and attrs["dtype"] == "float32"

    def test_tap_sampling_cadence(self, scratch_registry):
        instance = self._tapped_instance(scratch_registry, every=3)
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            for idx in range(7):
                instance.run_frame(
                    StageContext(frame=_FakeIndexedFrame(idx)))
        frames = [s.attrs["frame"] for s in tracer.spans
                  if s.name == "tap.emit.out"]
        assert frames == [0, 3, 6]

    def test_tap_noop_without_tracer(self, scratch_registry):
        """With tracing disabled the tap must not even sample."""
        calls = []

        def sampler(value):
            calls.append(value)
            return {}

        instance = self._tapped_instance(scratch_registry, sampler=sampler)
        instance.run_frame(StageContext(frame=_FakeIndexedFrame(0)))
        assert calls == []

    def test_custom_sampler_and_name(self, scratch_registry):
        instance = self._tapped_instance(
            scratch_registry, name="probe",
            sampler=lambda v: {"mean": float(v.mean())})
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            instance.run_frame(StageContext(frame=_FakeIndexedFrame(0)))
        span = next(s for s in tracer.spans if s.name == "probe")
        assert span.attrs["mean"] == pytest.approx(2.5)


class TestDefaultSampler:
    def test_array_summary(self):
        arr = np.array([[1.0, np.nan], [3.0, 4.0]], dtype=np.float64)
        out = default_sampler(arr)
        assert out["kind"] == "ndarray" and out["shape"] == "2x2"
        assert out["finite_fraction"] == pytest.approx(0.75)
        assert out["min"] == pytest.approx(1.0)
        assert out["max"] == pytest.approx(4.0)

    def test_pyramid_summary(self):
        pyr = [np.zeros((4, 4)), np.zeros((2, 2))]
        out = default_sampler(pyr)
        assert out["kind"] == "pyramid" and out["levels"] == 2

    def test_scalars_pass_through(self):
        assert default_sampler(True) == {"kind": "bool", "value": 1.0}
        assert default_sampler(3) == {"kind": "int", "value": 3.0}

    def test_opaque_object_reports_type(self):
        class Widget:
            pass
        assert default_sampler(Widget()) == {"kind": "Widget"}

    def test_sampler_output_is_json_safe(self):
        import json
        arr = np.arange(12, dtype=np.float32).reshape(3, 4)
        json.dumps(default_sampler(arr))
