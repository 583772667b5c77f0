"""The compiled pipeline: a validated schedule that runs one frame.

A :class:`PipelineInstance` is what the runtime compiler emits: the
deterministic stage schedule with pre-resolved input wiring and the
attached stream taps.  Per frame it

* threads one :class:`~repro.graph.stage.StageContext` through every
  scheduled stage,
* times each stage with one :class:`repro.telemetry.stage` block per
  node, feeding both the frame workload's wall times and a
  backend-stamped tracer span,
* routes produced port values to downstream consumers,
* fires stream taps (sampled telemetry spans) on tapped outputs, and
* converts any exception a stage body raises into
  :class:`~repro.errors.StageExecutionError` naming the stage.
"""

from __future__ import annotations

from ..errors import StageExecutionError
from ..telemetry import current_tracer, stage as timed_stage
from .taps import default_sampler


class PipelineInstance:
    """Executable result of :func:`repro.graph.compiler.compile_graph`."""

    def __init__(self, spec, schedule):
        self.spec = spec
        self.schedule = schedule

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def stage_names(self) -> list[str]:
        """Scheduled node names, in execution order."""
        return [node.name for node in self.schedule]

    def __len__(self) -> int:
        return len(self.schedule)

    def run_frame(self, ctx) -> dict:
        """Run every stage once over ``ctx``; returns the edge values.

        The returned dict maps ``(node, port)`` to the produced value —
        primarily for tests and taps; pipelines keep cross-frame state
        on ``ctx.state``.
        """
        values: dict = {}
        frame_index = getattr(ctx.frame, "index", None)
        backend = getattr(ctx.backend, "name", None)
        for node in self.schedule:
            inputs = {
                edge.dst_port: values[(edge.src, edge.src_port)]
                for edge in node.feeds
            }
            attrs = {"frame": frame_index}
            if backend is not None:
                attrs["backend"] = backend
            workload = ctx.workload if node.spec.workload_timed else None
            with timed_stage(workload, node.name, **attrs) as timed:
                ctx.span_attrs = timed.attrs
                try:
                    outputs = node.spec.run(ctx, inputs)
                except StageExecutionError:
                    raise
                except Exception as exc:
                    raise StageExecutionError(
                        f"stage {node.name!r} (graph "
                        f"{self.spec.name!r}, frame {frame_index}) "
                        f"raised {type(exc).__name__}: {exc}",
                        stage=node.name,
                        frame_index=frame_index,
                    ) from exc
                outputs = outputs if outputs is not None else {}
                missing = [port.name for port in node.spec.outputs
                           if port.name not in outputs]
                if missing:
                    raise StageExecutionError(
                        f"stage {node.name!r} (graph {self.spec.name!r}) "
                        f"did not produce declared outputs {missing}",
                        stage=node.name,
                        frame_index=frame_index,
                    )
            for port in node.spec.outputs:
                values[(node.name, port.name)] = outputs[port.name]
            for tap in node.taps:
                self._fire_tap(tap, values, frame_index, backend)
        return values

    def _fire_tap(self, tap, values, frame_index, backend) -> None:
        tracer = current_tracer()
        if not tracer.enabled:
            return
        if tap.every > 1 and frame_index is not None \
                and frame_index % tap.every:
            return
        value = values[(tap.node, tap.port)]
        sampler = tap.sampler or default_sampler
        with tracer.span(tap.span_name, frame=frame_index,
                         backend=backend, node=tap.node,
                         port=tap.port) as span:
            span.attrs.update(sampler(value))
