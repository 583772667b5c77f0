"""KinectFusion as a declarative stage graph.

This module is the graph-pipeline face of :mod:`repro.kfusion.pipeline`:
each of the five phases (preprocess, track, integrate, raycast, render)
is a registered :class:`~repro.graph.StageSpec` whose body runs the
kernel-backend calls for that phase and records their workload.  The
golden tables in ``tests/test_golden_run.py`` pin the compiled graph's
accuracy and status sequence on every backend.

Stage bodies read the pipeline's cross-frame state (pose, TSDF volume,
raycast reference, tracking status) through ``ctx.state`` — the
:class:`~repro.kfusion.pipeline.KinectFusion` instance — and frame data
through the graph's typed edges:

.. code-block:: text

   preprocess ──depth──────────────────▶ integrate ──volume─▶ raycast
        │ ├──vertices──▶ track ─tracked─▶    │                   │
        │ └──normals───▶   │                 └──volume─▶ render ◀┘ model
        ▼
   (workload kernels)
"""

from __future__ import annotations

from ..core.outputs import TrackingStatus
from ..graph import Edge, GraphSpec, Port, StageSpec, register_graph, \
    register_stage
from . import kernels
from .params import BOOTSTRAP_FRAMES, PYRAMID_LEVELS
from .preprocessing import downsample_depth
from .render import render_volume

#: Contract vocabulary of the KinectFusion graph.  Array-valued wires
#: carry their shape/dtype (the :mod:`repro.contracts` port
#: grammar); ``H``/``W`` are the compute-camera resolution.  Every port
#: uses one of these constants, so the two ends of an edge cannot
#: disagree.  Pyramid contracts (``[...]``) describe the finest level.
#: The dtype names the wire's *declared* element type — the fast backend
#: computes in float32, the reference in float64; ``repro graph check``
#: (RPR012) compares dtype kind only, exactly like the runtime
#: ``@contract`` checks.
DEPTH_MAP = "depth.map(H,W:f32)"
VERTEX_PYRAMID = "pyramid.vertices([H,W,3:f32])"
NORMAL_PYRAMID = "pyramid.normals([H,W,3:f32])"
TRACKED_FLAG = "track.converged"
TSDF_VOLUME = "tsdf.volume"
REFERENCE_MODEL = "model.reference"


def _run_preprocess(ctx, inputs):
    sys = ctx.state
    params, cam = ctx.params, sys.compute_camera
    backend, ws, workload = ctx.backend, ctx.workspace, ctx.workload

    workload.add(kernels.acquire(sys.input_camera.pixel_count))
    depth = downsample_depth(ctx.frame.depth, params.compute_size_ratio)
    workload.add(
        kernels.downsample(sys.input_camera.pixel_count, cam.pixel_count)
    )
    depth = backend.bilateral_filter(depth, ws)
    workload.add(kernels.bilateral_filter(cam.pixel_count))

    pyramid = backend.build_pyramid(depth, PYRAMID_LEVELS, ws)
    for level in range(1, len(pyramid)):
        workload.add(kernels.half_sample(pyramid[level].size))
    vertices, normals, _cams = backend.vertex_normal_pyramid(
        pyramid, cam, ws
    )
    for level_depth in pyramid:
        workload.add(kernels.depth_to_vertex(level_depth.size))
        workload.add(kernels.vertex_to_normal(level_depth.size))
    return {"depth": depth, "vertices": vertices, "normals": normals}


def _run_track(ctx, inputs):
    sys, params, workload = ctx.state, ctx.params, ctx.workload
    vertices, normals = inputs["vertices"], inputs["normals"]

    first_frame = sys.frames_processed == 0
    should_track = (
        not first_frame
        and ctx.frame.index % params.tracking_rate == 0
        and sys.reference is not None
    )
    tracked = first_frame  # frame 0 counts as tracked at the start pose
    if should_track:
        iters = params.pyramid_iterations[: len(vertices)]
        result = ctx.backend.track(
            vertices,
            normals,
            sys.reference,
            sys.pose_estimate,
            iters,
            params.icp_threshold,
            ctx.workspace,
            huber_delta=sys.huber_delta,
        )
        for level, used in enumerate(result.iterations_per_level):
            level_pixels = (vertices[level].shape[0]
                            * vertices[level].shape[1])
            for _ in range(used):
                workload.add(kernels.track_iteration(level_pixels))
                workload.add(kernels.reduce_iteration(level_pixels))
                workload.add(kernels.solve())
        sys.record_track(result)
        if result.tracked:
            tracked = True
            sys.set_status(TrackingStatus.OK)
        else:
            sys.set_status(TrackingStatus.LOST)
    elif not first_frame:
        sys.set_status(TrackingStatus.SKIPPED)
    else:
        sys.set_status(TrackingStatus.BOOTSTRAP)
    return {"tracked": tracked}


def _run_integrate(ctx, inputs):
    sys, params = ctx.state, ctx.params
    depth, tracked = inputs["depth"], inputs["tracked"]

    first_frame = sys.frames_processed == 0
    should_integrate = (
        tracked or sys.frames_processed < BOOTSTRAP_FRAMES
    ) and (ctx.frame.index % params.integration_rate == 0 or first_frame)
    updated = 0
    if should_integrate:
        updated = ctx.backend.integrate(
            sys.volume,
            depth,
            sys.compute_camera,
            sys.pose_estimate,
            params.mu_distance,
            ctx.workspace,
        )
        ctx.workload.add(kernels.integrate(params.volume_resolution))
    ctx.span_attrs["voxels_updated"] = updated
    return {"volume": sys.volume}


def _run_raycast(ctx, inputs):
    sys, params = ctx.state, ctx.params
    model = ctx.backend.raycast_model(
        inputs["volume"],
        sys.compute_camera,
        sys.pose_estimate,
        params.mu_distance,
        ctx.workspace,
    )
    sys.set_reference(model)
    if model.samples_evaluated is not None:
        ctx.span_attrs["samples_evaluated"] = model.samples_evaluated
        ctx.span_attrs["rays_hit"] = model.rays_hit
    ctx.workload.add(
        kernels.raycast(
            sys.compute_camera.pixel_count,
            params.volume_size,
            params.mu_distance,
            params.voxel_size,
        )
    )
    return {"model": model}


def _run_render(ctx, inputs):
    sys, params = ctx.state, ctx.params
    render = render_volume(
        inputs["volume"], sys.compute_camera, sys.pose_estimate,
        params.mu_distance,
    )
    sys.set_render(render)
    ctx.workload.add(kernels.render(sys.compute_camera.pixel_count))
    return {}


PREPROCESS = register_stage(StageSpec(
    name="kfusion.preprocess",
    run=_run_preprocess,
    outputs=(
        Port("depth", DEPTH_MAP),
        Port("vertices", VERTEX_PYRAMID),
        Port("normals", NORMAL_PYRAMID),
    ),
    description="downsample, bilateral-filter, build depth/vertex/normal "
                "pyramids",
))

TRACK = register_stage(StageSpec(
    name="kfusion.track",
    run=_run_track,
    inputs=(
        Port("vertices", VERTEX_PYRAMID),
        Port("normals", NORMAL_PYRAMID),
    ),
    outputs=(Port("tracked", TRACKED_FLAG),),
    description="multi-scale point-to-plane ICP against the raycast "
                "prediction",
))

INTEGRATE = register_stage(StageSpec(
    name="kfusion.integrate",
    run=_run_integrate,
    inputs=(
        Port("depth", DEPTH_MAP),
        Port("tracked", TRACKED_FLAG),
    ),
    outputs=(Port("volume", TSDF_VOLUME),),
    description="fuse the frame into the TSDF while tracking is good",
))

RAYCAST = register_stage(StageSpec(
    name="kfusion.raycast",
    run=_run_raycast,
    inputs=(Port("volume", TSDF_VOLUME),),
    outputs=(Port("model", REFERENCE_MODEL),),
    description="render the surface prediction the next track step "
                "aligns against",
))

RENDER = register_stage(StageSpec(
    name="kfusion.render",
    run=_run_render,
    inputs=(
        Port("volume", TSDF_VOLUME),
        # The model input carries no pixels the shader needs; it pins
        # the render after the raycast.
        Port("model", REFERENCE_MODEL),
    ),
    workload_timed=False,  # tracer-only span, not a canonical stage
    description="optional shaded model render (the GUI's right panel)",
))


def kfusion_graph(publish_render: bool = False) -> GraphSpec:
    """The KinectFusion pipeline as a declarative graph."""
    nodes = [
        ("preprocess", "kfusion.preprocess"),
        ("track", "kfusion.track"),
        ("integrate", "kfusion.integrate"),
        ("raycast", "kfusion.raycast"),
    ]
    edges = [
        Edge("preprocess", "vertices", "track", "vertices"),
        Edge("preprocess", "normals", "track", "normals"),
        Edge("preprocess", "depth", "integrate", "depth"),
        Edge("track", "tracked", "integrate", "tracked"),
        Edge("integrate", "volume", "raycast", "volume"),
    ]
    if publish_render:
        nodes.append(("render", "kfusion.render"))
        edges.append(Edge("integrate", "volume", "render", "volume"))
        edges.append(Edge("raycast", "model", "render", "model"))
    return GraphSpec(name="kfusion", nodes=tuple(nodes),
                     edges=tuple(edges))


register_graph("kfusion", kfusion_graph)
