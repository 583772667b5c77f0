"""Frame-to-frame ICP odometry as a declarative stage graph.

The toy baseline's three phases — preprocess, track, and the
frame-to-frame reference update — registered as graph stages over the
same contract vocabulary as KinectFusion's graph
(:mod:`repro.kfusion.graphdef`), so the pyramid contracts are shared and
a tap attached to ``preprocess.vertices`` means the same thing in both
pipelines.  The bodies run the reference kernels and record their
workload; :class:`repro.baselines.odometry.ICPOdometry` holds the
cross-frame state they read and write.
"""

from __future__ import annotations

import numpy as np

from ..geometry import se3
from ..graph import Edge, GraphSpec, Port, StageSpec, register_graph, \
    register_stage
from ..kfusion import kernels
from ..kfusion.graphdef import (
    NORMAL_PYRAMID,
    REFERENCE_MODEL,
    TRACKED_FLAG,
    VERTEX_PYRAMID,
)
from ..kfusion.preprocessing import (
    bilateral_filter,
    build_pyramid,
    downsample_depth,
    vertex_normal_pyramid,
)
from ..kfusion.tracking import ReferenceModel, track


def _run_preprocess(ctx, inputs):
    sys, cfg, cam = ctx.state, ctx.params, ctx.state.compute_camera
    workload = ctx.workload

    workload.add(kernels.acquire(sys.input_camera.pixel_count))
    depth = downsample_depth(ctx.frame.depth, cfg["compute_size_ratio"])
    workload.add(
        kernels.downsample(sys.input_camera.pixel_count, cam.pixel_count)
    )
    depth = bilateral_filter(depth)
    workload.add(kernels.bilateral_filter(cam.pixel_count))

    pyramid = build_pyramid(depth, 3)
    for level in range(1, len(pyramid)):
        workload.add(kernels.half_sample(pyramid[level].size))
    vertices, normals, _ = vertex_normal_pyramid(pyramid, cam)
    for level_depth in pyramid:
        workload.add(kernels.depth_to_vertex(level_depth.size))
        workload.add(kernels.vertex_to_normal(level_depth.size))
    return {"vertices": vertices, "normals": normals}


def _run_track(ctx, inputs):
    sys, cfg, workload = ctx.state, ctx.params, ctx.workload
    vertices, normals = inputs["vertices"], inputs["normals"]

    tracked = False
    if sys.reference is None:
        sys.set_status_bootstrap()
    else:
        iters = (
            cfg["pyramid_iterations_l0"],
            cfg["pyramid_iterations_l1"],
            cfg["pyramid_iterations_l2"],
        )[: len(vertices)]
        result = track(
            vertices,
            normals,
            sys.reference,
            sys.pose_estimate,
            iters,
            cfg["icp_threshold"],
        )
        for level, used in enumerate(result.iterations_per_level):
            lpx = vertices[level].shape[0] * vertices[level].shape[1]
            for _ in range(used):
                workload.add(kernels.track_iteration(lpx))
                workload.add(kernels.reduce_iteration(lpx))
                workload.add(kernels.solve())
        tracked = result.tracked
        sys.record_track(result)
    return {"tracked": tracked}


def _run_model(ctx, inputs):
    """Lift this frame's finest maps to the world frame as the new
    reference — the ``tracked`` input pins the update after the track."""
    sys, cam = ctx.state, ctx.state.compute_camera
    vertices, normals = inputs["vertices"], inputs["normals"]
    pose = sys.pose_estimate

    h, w = cam.shape
    flat_v = vertices[0].reshape(-1, 3)
    flat_n = normals[0].reshape(-1, 3)
    valid = np.any(flat_n != 0.0, axis=-1)
    v_w = np.zeros_like(flat_v)
    n_w = np.zeros_like(flat_n)
    v_w[valid] = se3.transform_points(pose, flat_v[valid])
    n_w[valid] = flat_n[valid] @ pose[:3, :3].T
    model = ReferenceModel(
        vertices=v_w.reshape(h, w, 3),
        normals=n_w.reshape(h, w, 3),
        camera=cam,
        pose_volume_from_camera=pose.copy(),
    )
    sys.set_reference(model)
    return {"model": model}


PREPROCESS = register_stage(StageSpec(
    name="odometry.preprocess",
    run=_run_preprocess,
    outputs=(
        Port("vertices", VERTEX_PYRAMID),
        Port("normals", NORMAL_PYRAMID),
    ),
    description="downsample, bilateral-filter, build vertex/normal "
                "pyramids (reference kernels)",
))

TRACK = register_stage(StageSpec(
    name="odometry.track",
    run=_run_track,
    inputs=(
        Port("vertices", VERTEX_PYRAMID),
        Port("normals", NORMAL_PYRAMID),
    ),
    outputs=(Port("tracked", TRACKED_FLAG),),
    description="frame-to-frame multi-scale ICP against the previous "
                "frame's maps",
))

MODEL = register_stage(StageSpec(
    name="odometry.model",
    run=_run_model,
    inputs=(
        Port("vertices", VERTEX_PYRAMID),
        Port("normals", NORMAL_PYRAMID),
        Port("tracked", TRACKED_FLAG),
    ),
    outputs=(Port("model", REFERENCE_MODEL),),
    description="promote this frame's finest maps to the next reference",
))


def odometry_graph() -> GraphSpec:
    """The ICP-odometry pipeline as a declarative graph."""
    return GraphSpec(
        name="icp_odometry",
        nodes=(
            ("preprocess", "odometry.preprocess"),
            ("track", "odometry.track"),
            ("model", "odometry.model"),
        ),
        edges=(
            Edge("preprocess", "vertices", "track", "vertices"),
            Edge("preprocess", "normals", "track", "normals"),
            Edge("preprocess", "vertices", "model", "vertices"),
            Edge("preprocess", "normals", "model", "normals"),
            Edge("track", "tracked", "model", "tracked"),
        ),
    )


register_graph("icp_odometry", odometry_graph)
