"""Fast multi-scale point-to-plane ICP.

Same Gauss-Newton iteration as :mod:`repro.kfusion.tracking` — the pose
update, damping, trust region and quality gates are untouched float64
math — but the per-pixel front end (transform, projective association,
gathers, gating) runs in float32 with the loop-invariant work hoisted:

* the reference maps are flattened, downcast and their validity mask
  computed **once per frame** (the reference re-derives ``has_ref`` from
  a fresh gather every iteration of every level);
* the association gates (``cos(NORMAL_THRESHOLD)``, squared distance
  threshold) are constants, computed once;
* the transform and projection write into per-level workspace buffers
  reused across all Gauss-Newton iterations instead of allocating
  fresh ``(N, 3)`` float64 arrays six times per iteration.

The small matched-subset arrays (residuals, Jacobian) are extracted per
iteration and accumulated in float64 so the 6x6 normal equations and the
SE(3) update are numerically the reference solver.
"""

from __future__ import annotations

import numpy as np

from ..errors import TrackingError
from ..geometry import se3
from ..kfusion.tracking import (
    DIST_THRESHOLD,
    MAX_RMSE,
    MIN_INLIER_FRACTION,
    NORMAL_THRESHOLD,
    ReferenceModel,
    TrackResult,
    _huber_weights,
)
from .common import project_f32
from .workspace import FrameWorkspace

_COS_NORMAL_THRESHOLD = float(np.cos(NORMAL_THRESHOLD))
_DIST_SQ_THRESHOLD = float(DIST_THRESHOLD) ** 2


class _PreparedReference:
    """Per-frame float32 view of the reference model (hoisted gathers)."""

    __slots__ = ("vertices", "normals", "has_ref", "camera", "cam_from_vol")

    def __init__(self, reference: ReferenceModel):
        self.vertices = np.ascontiguousarray(
            reference.vertices.reshape(-1, 3), dtype=np.float32
        )
        self.normals = np.ascontiguousarray(
            reference.normals.reshape(-1, 3), dtype=np.float32
        )
        self.has_ref = np.any(self.normals != 0.0, axis=-1)
        self.camera = reference.camera
        self.cam_from_vol = se3.inverse(reference.pose_volume_from_camera)


def _solve_level(
    cur_vertices: np.ndarray,
    cur_normals: np.ndarray,
    prepared: _PreparedReference,
    pose: np.ndarray,
    iterations: int,
    icp_threshold: float,
    level: int,
    ws: FrameWorkspace,
    huber_delta: float | None = None,
) -> tuple[np.ndarray, float, float, int]:
    """Gauss-Newton at one pyramid level (reference solver, fast front end)."""
    n_px = cur_vertices.shape[0] * cur_vertices.shape[1]
    cur_v = cur_vertices.reshape(-1, 3)
    cur_n = cur_normals.reshape(-1, 3)
    valid_cur = np.any(cur_n != 0.0, axis=-1)
    n_valid = max(int(valid_cur.sum()), 1)

    ref_cam = prepared.camera

    p_vol = ws.buffer(f"icp_pvol_l{level}", (n_px, 3))
    n_vol = ws.buffer(f"icp_nvol_l{level}", (n_px, 3))
    p_ref = ws.buffer(f"icp_pref_l{level}", (n_px, 3))

    rmse = float("inf")
    inlier_fraction = 0.0
    used = 0

    for _ in range(iterations):
        # Current vertices into the volume frame, then the reference
        # camera, all float32 into reused buffers.
        R32 = pose[:3, :3].astype(np.float32)
        t32 = pose[:3, 3].astype(np.float32)
        np.matmul(cur_v, R32.T, out=p_vol)
        p_vol += t32
        np.matmul(cur_n, R32.T, out=n_vol)
        Rc = prepared.cam_from_vol[:3, :3].astype(np.float32)
        tc = prepared.cam_from_vol[:3, 3].astype(np.float32)
        np.matmul(p_vol, Rc.T, out=p_ref)
        p_ref += tc

        u, v, in_view = project_f32(ref_cam, p_ref)
        np.nan_to_num(u, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
        np.nan_to_num(v, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
        flat = np.rint(v).astype(np.int32)
        np.clip(flat, 0, ref_cam.height - 1, out=flat)
        flat *= ref_cam.width
        ui = np.rint(u).astype(np.int32)
        np.clip(ui, 0, ref_cam.width - 1, out=ui)
        flat += ui

        r_v = prepared.vertices[flat]
        r_n = prepared.normals[flat]

        diff = r_v - p_vol
        dist_sq = np.einsum("ij,ij->i", diff, diff)
        cos_angle = np.einsum("ij,ij->i", n_vol, r_n)

        matched = (
            valid_cur
            & in_view
            & prepared.has_ref[flat]
            & (dist_sq < _DIST_SQ_THRESHOLD)
            & (cos_angle > _COS_NORMAL_THRESHOLD)
        )
        n_matched = int(matched.sum())
        inlier_fraction = n_matched / n_valid
        if n_matched < 6:
            break

        # Matched subset in float64: from here on this is the reference
        # solver verbatim.
        n_m = r_n[matched].astype(float)  # f64-ok: solver operates in f64
        p_m = p_vol[matched].astype(float)  # f64-ok: solver operates in f64
        d_m = diff[matched].astype(float)  # f64-ok: solver operates in f64
        e = np.einsum("ij,ij->i", n_m, d_m)
        rmse = float(np.sqrt(np.mean(e * e)))

        J = np.concatenate([n_m, np.cross(p_m, n_m)], axis=1)
        if huber_delta is not None:
            w = _huber_weights(e, huber_delta)
            A = (J * w[:, None]).T @ J
            b = (J * w[:, None]).T @ e
        else:
            A = J.T @ J
            b = J.T @ e
        lam = 1e-4 * np.trace(A) / 6.0 + 1e-12
        try:
            xi = np.linalg.solve(A + lam * np.eye(6), b)
        except np.linalg.LinAlgError:
            break
        norm = float(np.linalg.norm(xi))
        if norm > 0.1:
            xi = xi * (0.1 / norm)
        used += 1

        pose = se3.se3_exp(xi) @ pose
        pose[:3, :3] = se3.orthonormalize(pose[:3, :3])

        if float(np.linalg.norm(xi)) < icp_threshold:
            break

    return pose, rmse, inlier_fraction, used


def track(
    vertex_pyramid: list[np.ndarray],
    normal_pyramid: list[np.ndarray],
    reference: ReferenceModel,
    initial_pose: np.ndarray,
    pyramid_iterations: tuple[int, ...],
    icp_threshold: float,
    ws: FrameWorkspace,
    huber_delta: float | None = None,
) -> TrackResult:
    """Track one frame (same contract as ``kfusion.tracking.track``)."""
    if len(vertex_pyramid) != len(pyramid_iterations):
        raise TrackingError(
            f"{len(vertex_pyramid)} pyramid levels but "
            f"{len(pyramid_iterations)} iteration counts"
        )
    prepared = _PreparedReference(reference)
    pose = np.asarray(initial_pose, dtype=float).copy()  # f64-ok: pose
    rmse = float("inf")
    inlier_fraction = 0.0
    per_level = [0] * len(vertex_pyramid)

    for level in reversed(range(len(vertex_pyramid))):
        iters = pyramid_iterations[level]
        if iters <= 0:
            continue
        pose, rmse, inlier_fraction, used = _solve_level(
            vertex_pyramid[level],
            normal_pyramid[level],
            prepared,
            pose,
            iters,
            icp_threshold,
            level,
            ws,
            huber_delta=huber_delta,
        )
        per_level[level] = used

    tracked = (
        np.isfinite(rmse)
        and rmse < MAX_RMSE
        and inlier_fraction > MIN_INLIER_FRACTION
    )
    return TrackResult(
        pose=pose,
        tracked=bool(tracked),
        rmse=float(rmse),
        inlier_fraction=float(inlier_fraction),
        iterations=int(sum(per_level)),
        iterations_per_level=tuple(per_level),
    )
