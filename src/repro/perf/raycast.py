"""Compacted-ray TSDF raycasting.

The reference raycaster keeps full-size per-ray state alive for the
whole march and re-derives the active set with ``flatnonzero`` plus
full-array fancy indexing at *every* step — cost stays O(total rays)
per step even when a handful of rays are still marching.  Here the
working set is physically compacted after each step: rays that hit or
leave the volume are dropped from the arrays, so step cost tracks the
number of *live* rays.  Sampling and gradients go through the fused
float32 trilinear gathers of :mod:`repro.perf.trilinear`.

The march itself (step size, zero-crossing detection, linear crossing
refinement, termination) is the reference algorithm, so both backends
see the same surface.

Output is the tracker's :class:`ReferenceModel` directly (volume-frame
maps); the reference pipeline raycasts in the camera frame and then
transforms the valid pixels back to the volume frame, which the fast
path skips entirely — the march already works in volume coordinates.
"""

from __future__ import annotations

import numpy as np

from ..contracts import contract
from ..geometry import PinholeCamera
from ..kfusion.tracking import ReferenceModel
from ..kfusion.volume import TSDFVolume
from .common import translation_f32, unit_rays_f32
from .trilinear import gradient_f32, sample_f32
from .workspace import FrameWorkspace


@contract(pose_volume_from_camera="4,4:f64")
def raycast_model(
    volume: TSDFVolume,
    camera: PinholeCamera,
    pose_volume_from_camera: np.ndarray,
    mu: float,
    ws: FrameWorkspace,
    near: float = 0.1,
    far: float | None = None,
) -> ReferenceModel:
    """March all pixel rays; return the volume-frame surface prediction."""
    if far is None:
        far = float(np.sqrt(3.0)) * volume.size + near
    near = np.float32(near)
    far = np.float32(far)

    R = np.asarray(pose_volume_from_camera[:3, :3], dtype=np.float32)
    origin = translation_f32(pose_volume_from_camera)
    dirs_all = ws.buffer("rc_dirs", (camera.pixel_count, 3))
    np.matmul(unit_rays_f32(camera), R.T, out=dirs_all)

    n_rays = camera.pixel_count
    step = np.float32(max(0.75 * mu, volume.voxel_size))

    hit_t = ws.zeros("rc_hit_t", (n_rays,))
    hit = ws.zeros("rc_hit", (n_rays,), dtype=bool)

    # Compacted working set: full-size initial state lives in the arena
    # (the budget's "per-ray march state"); compaction then shrinks the
    # views as rays retire, so later steps cost O(live rays).
    active_idx = np.arange(n_rays, dtype=np.int64)
    dirs = dirs_all
    t = ws.buffer("rc_t", (n_rays,))
    t.fill(near)
    prev_val = ws.buffer("rc_prev_val", (n_rays,))
    prev_val.fill(1.0)
    prev_valid = ws.zeros("rc_prev_valid", (n_rays,), dtype=bool)

    max_steps = int(np.ceil((far - near) / step)) + 1
    samples_evaluated = 0
    for _ in range(max_steps):
        if active_idx.size == 0:
            break
        samples_evaluated += active_idx.size
        pts = origin + t[:, None] * dirs
        val, valid = sample_f32(volume, pts)

        # Zero crossing: previous sample positive, current negative.
        crossing = prev_valid & valid & (prev_val > 0.0) & (val <= 0.0)
        if crossing.any():
            c = active_idx[crossing]
            f0 = prev_val[crossing]
            f1 = val[crossing]
            denom = np.where(np.abs(f0 - f1) > 1e-12, f0 - f1,
                             np.float32(1e-12))
            hit_t[c] = (t[crossing] - step) + (f0 / denom) * step
            hit[c] = True

        # Compact: drop rays that hit or would march past the far plane.
        keep = ~crossing & (t + step <= far)
        active_idx = active_idx[keep]
        dirs = dirs[keep]
        t = t[keep]
        t += step
        prev_val = val[keep]
        prev_valid = valid[keep]

    h, w = camera.shape
    v_map = ws.zeros("rc_vertices", (n_rays, 3))
    n_map = ws.zeros("rc_normals", (n_rays, 3))
    if hit.any():
        hit_idx = np.flatnonzero(hit)
        pts_vol = origin + hit_t[hit_idx, None] * dirs_all[hit_idx]
        grad = gradient_f32(volume, pts_vol)
        norm = np.linalg.norm(grad, axis=-1)
        good = norm > 1e-12
        keep = hit_idx[good]
        v_map[keep] = pts_vol[good]
        n_map[keep] = grad[good] / norm[good, None]

    return ReferenceModel(
        vertices=v_map.reshape(h, w, 3),
        normals=n_map.reshape(h, w, 3),
        camera=camera,
        pose_volume_from_camera=np.asarray(
            pose_volume_from_camera, dtype=float  # f64-ok: pose, 16 values
        ).copy(),
        samples_evaluated=samples_evaluated,
        rays_hit=int(np.count_nonzero(hit)),
    )
