"""Stage specifications and the process-wide stage registry.

A *stage* is one schedulable unit of a SLAM pipeline (preprocess, track,
integrate, ...).  Following SLAMBench2's treatment of algorithm phases as
pluggable artifacts behind a common API, each stage declares everything
the runtime compiler (:mod:`repro.graph.compiler`) needs to place it in
a pipeline graph *without running it*:

* **ports** — named inputs and outputs, each carrying a contract string
  (``"depth.map"``, ``"pyramid.vertices"``).  The compiler only wires an
  edge when the producer and consumer contracts are equal.

The registry itself follows the :class:`~repro.perf.KernelBackend`
registry's write-once discipline: duplicate names are rejected, lookups
of unknown names fail loudly with the registered inventory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from ..contracts import ContractError, parse_port_contract
from ..errors import GraphError


@dataclass(frozen=True)
class Port:
    """One named stage input or output.

    Attributes:
        name: port identifier, unique within the stage's direction
            (``"depth"``, ``"vertices"``).
        contract: port contract under the
            :mod:`repro.contracts` port grammar — a dotted tag,
            optionally carrying an array spec: ``"track.converged"``,
            ``"depth.map(H,W:f32)"``, ``"pyramid.vertices([H,W,3:f32])"``.
            An edge is only valid between ports whose contracts are
            semantically equal.
    """

    name: str
    contract: str

    def __post_init__(self):
        if not self.name or not self.contract:
            raise GraphError(
                f"port needs a name and a contract, got "
                f"({self.name!r}, {self.contract!r})"
            )
        try:
            parse_port_contract(self.contract)
        except ContractError as exc:
            raise GraphError(f"port {self.name!r}: {exc}") from None


@dataclass
class StageContext:
    """Everything a stage body may read while running one frame.

    The compiled :class:`~repro.graph.instance.PipelineInstance` builds
    one per frame and threads it through every scheduled stage.  Edge
    values travel separately (the instance passes each stage its wired
    inputs); the context carries the frame-invariant surroundings:

    Attributes:
        frame: the input :class:`~repro.core.frame.Frame`.
        workload: the frame's :class:`~repro.core.workload.FrameWorkload`
            kernel record.
        state: the pipeline's cross-frame state object (for KinectFusion,
            the system instance itself: pose, volume, tracking status).
        backend: the run's :class:`~repro.perf.KernelBackend` (``None``
            for pipelines without selectable kernels).
        workspace: the run's :class:`~repro.perf.FrameWorkspace` arena
            (``None`` for workspace-less backends).
        params: the algorithm's parameter object.
        span_attrs: attributes of the running stage's tracer span; the
            instance points it at each stage's span before the body
            runs, so a body can record what it did (``voxels_updated``).
    """

    frame: Any = None
    workload: Any = None
    state: Any = None
    backend: Any = None
    workspace: Any = None
    params: Any = None
    span_attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class StageSpec:
    """One registered, schedulable pipeline stage.

    Attributes:
        name: registry-global identifier, dot-scoped by convention
            (``"kfusion.track"``).
        run: the stage body: ``run(ctx, inputs) -> outputs`` where
            ``inputs``/``outputs`` are dicts keyed by port name.  Every
            declared output port must appear in the returned dict.
        inputs: consumed ports (wired by graph edges).
        outputs: produced ports.
        workload_timed: record the stage's wall time into the frame
            workload (the four canonical kernel stages do; auxiliary
            stages like the GUI render only get a tracer span).
        description: one-line human summary for ``repro graph show``.
    """

    name: str
    run: Callable[[StageContext, dict], dict]
    inputs: tuple[Port, ...] = ()
    outputs: tuple[Port, ...] = ()
    workload_timed: bool = True
    description: str = ""

    def __post_init__(self):
        if not self.name:
            raise GraphError("stage needs a non-empty name")
        for direction, ports in (("input", self.inputs),
                                 ("output", self.outputs)):
            names = [p.name for p in ports]
            if len(names) != len(set(names)):
                raise GraphError(
                    f"stage {self.name!r}: duplicate {direction} port "
                    f"names in {names}"
                )

    def input_port(self, name: str) -> Port | None:
        for port in self.inputs:
            if port.name == name:
                return port
        return None

    def output_port(self, name: str) -> Port | None:
        for port in self.outputs:
            if port.name == name:
                return port
        return None


_STAGES: dict[str, StageSpec] = {}


def register_stage(spec: StageSpec) -> StageSpec:
    """Add a stage to the registry (unique names enforced)."""
    if spec.name in _STAGES:
        raise GraphError(f"stage {spec.name!r} already registered")
    # effect-ok: import-time write-once registry (duplicates rejected above)
    _STAGES[spec.name] = spec
    return spec


def get_stage(name: str) -> StageSpec:
    """Look up a registered stage by name."""
    try:
        return _STAGES[name]
    except KeyError:
        raise GraphError(
            f"unknown stage {name!r}; registered: {stage_names()}"
        ) from None


def stage_names() -> list[str]:
    return sorted(_STAGES)


__all__ = [
    "Port",
    "StageContext",
    "StageSpec",
    "get_stage",
    "register_stage",
    "stage_names",
]
