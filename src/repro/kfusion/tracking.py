"""Multi-scale point-to-plane ICP tracking (KinectFusion's ``trackKernel``
and ``reduceKernel`` followed by the host-side ``solve``).

The tracker aligns the current frame's vertex pyramid against the surface
prediction raycast from the model at the previous pose, using projective
data association and a point-to-plane error metric, coarse-to-fine over the
pyramid, with Gauss-Newton updates on SE(3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import TrackingError
from ..geometry import PinholeCamera, se3

#: Association gates from the reference implementation.
DIST_THRESHOLD = 0.1  # metres
NORMAL_THRESHOLD = 0.8  # max angle between normals, radians

#: Track-quality gates (SLAMBench's checkPoseKernel).
MIN_INLIER_FRACTION = 0.10
MAX_RMSE = 0.02  # metres


@dataclass(frozen=True)
class TrackResult:
    """Outcome of tracking one frame.

    Attributes:
        pose: estimated camera-to-volume 4x4 pose.
        tracked: whether the estimate passed the quality gates.
        rmse: point-to-plane RMS error of the final iteration (metres).
        inlier_fraction: matched pixels / valid pixels at the finest level.
        iterations: total Gauss-Newton iterations executed (all levels).
        iterations_per_level: iterations actually executed at each level,
            finest first (drives the simulator's tracking cost).
    """

    pose: np.ndarray
    tracked: bool
    rmse: float
    inlier_fraction: float
    iterations: int
    iterations_per_level: tuple[int, ...] = ()


@dataclass(frozen=True)
class ReferenceModel:
    """Surface prediction the tracker aligns against.

    Vertex/normal maps are stored in the *volume* frame, at the compute
    resolution, together with the camera pose they were rendered from.
    """

    vertices: np.ndarray  # (H, W, 3) volume frame
    normals: np.ndarray  # (H, W, 3) volume frame
    camera: PinholeCamera
    pose_volume_from_camera: np.ndarray  # pose used for the raycast
    #: March work counts, where the raycaster reports them (the ``fast``
    #: and ``sparse`` kernels do): trilinear samples evaluated and rays
    #: that found a zero crossing.  The raycast stage puts them on its
    #: span.
    samples_evaluated: int | None = None
    rays_hit: int | None = None


def _huber_weights(residuals: np.ndarray, delta: float) -> np.ndarray:
    """Huber IRLS weights: 1 inside the inlier band, delta/|e| outside.

    Down-weights the heavy-tailed residuals that depth-edge artefacts and
    dropout produce, without the hard cut a distance gate alone gives.
    """
    a = np.abs(residuals)
    w = np.ones_like(a)
    outside = a > delta
    w[outside] = delta / a[outside]
    return w


def _solve_level(
    cur_vertices: np.ndarray,
    cur_normals: np.ndarray,
    reference: ReferenceModel,
    pose: np.ndarray,
    iterations: int,
    icp_threshold: float,
    huber_delta: float | None = None,
) -> tuple[np.ndarray, float, float, int]:
    """Run Gauss-Newton at one pyramid level.

    Returns ``(pose, rmse, inlier_fraction, iterations_used)``.
    """
    h, w = cur_vertices.shape[:2]
    cur_v = cur_vertices.reshape(-1, 3)
    cur_n = cur_normals.reshape(-1, 3)
    valid_cur = np.any(cur_n != 0.0, axis=-1)
    n_valid = max(int(valid_cur.sum()), 1)

    ref_v = reference.vertices.reshape(-1, 3)
    ref_n = reference.normals.reshape(-1, 3)
    ref_cam = reference.camera
    cam_from_vol_ref = se3.inverse(reference.pose_volume_from_camera)

    rmse = float("inf")
    inlier_fraction = 0.0
    used = 0

    for _ in range(iterations):
        # Transform current vertices into the volume frame.
        p_vol = se3.transform_points(pose, cur_v)
        n_vol = cur_n @ pose[:3, :3].T

        # Projective association: project into the reference camera.
        p_ref_cam = se3.transform_points(cam_from_vol_ref, p_vol)
        pixels, in_view = ref_cam.project(p_ref_cam)
        finite = np.nan_to_num(pixels, nan=0.0, posinf=0.0, neginf=0.0)
        u = np.clip(np.round(finite[:, 0]).astype(int), 0, ref_cam.width - 1)
        v = np.clip(np.round(finite[:, 1]).astype(int), 0, ref_cam.height - 1)
        flat = v * ref_cam.width + u

        r_v = ref_v[flat]
        r_n = ref_n[flat]
        has_ref = np.any(r_n != 0.0, axis=-1)

        diff = r_v - p_vol
        dist = np.linalg.norm(diff, axis=-1)
        cos_angle = np.einsum("ij,ij->i", n_vol, r_n)

        matched = (
            valid_cur
            & in_view
            & has_ref
            & (dist < DIST_THRESHOLD)
            & (cos_angle > np.cos(NORMAL_THRESHOLD))
        )
        n_matched = int(matched.sum())
        inlier_fraction = n_matched / n_valid
        if n_matched < 6:
            break

        e = np.einsum("ij,ij->i", r_n[matched], diff[matched])
        rmse = float(np.sqrt(np.mean(e * e)))

        # Point-to-plane Jacobian rows: [n, p x n] for xi = [v, w].
        n_m = r_n[matched]
        p_m = p_vol[matched]
        J = np.concatenate([n_m, np.cross(p_m, n_m)], axis=1)

        if huber_delta is not None:
            w = _huber_weights(e, huber_delta)
            A = (J * w[:, None]).T @ J
            b = (J * w[:, None]).T @ e
        else:
            A = J.T @ J
            b = J.T @ e
        # Levenberg damping scaled to the problem size: planar scenes make
        # A near-singular along in-plane translations, and an undamped
        # Gauss-Newton step can slide arbitrarily far along that null
        # space while keeping the point-to-plane residual at zero.
        lam = 1e-4 * np.trace(A) / 6.0 + 1e-12
        try:
            xi = np.linalg.solve(A + lam * np.eye(6), b)
        except np.linalg.LinAlgError:
            break
        # Trust region: a single ICP step larger than this is never a
        # refinement between consecutive video frames.
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
    huber_delta: float | None = None,
) -> TrackResult:
    """Track one frame against the reference surface prediction.

    Args:
        vertex_pyramid / normal_pyramid: current-frame camera-frame maps,
            finest level first (as built by ``vertex_normal_pyramid``).
        reference: volume-frame surface prediction (finest resolution).
        initial_pose: camera-to-volume pose prior (previous frame's pose).
        pyramid_iterations: iterations per level, finest first.
        icp_threshold: early-exit threshold on the SE(3) update norm.
        huber_delta: enable robust (Huber-IRLS) weighting with this inlier
            band in metres; ``None`` keeps the reference implementation's
            plain least squares.
    """
    if len(vertex_pyramid) != len(pyramid_iterations):
        raise TrackingError(
            f"{len(vertex_pyramid)} pyramid levels but "
            f"{len(pyramid_iterations)} iteration counts"
        )
    pose = np.asarray(initial_pose, dtype=float).copy()
    rmse = float("inf")
    inlier_fraction = 0.0
    per_level = [0] * len(vertex_pyramid)

    # Coarse-to-fine: iterate levels from last (coarsest) to first.
    for level in reversed(range(len(vertex_pyramid))):
        iters = pyramid_iterations[level]
        if iters <= 0:
            continue
        pose, rmse, inlier_fraction, used = _solve_level(
            vertex_pyramid[level],
            normal_pyramid[level],
            reference,
            pose,
            iters,
            icp_threshold,
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
