"""TSDF raycasting (KinectFusion's ``raycastKernel``).

Marches a ray per pixel through the volume, finds the zero crossing of the
interpolated TSDF, and returns the predicted vertex and normal maps the
tracker aligns against.  Step size and refinement follow the reference
implementation: coarse steps of ~0.75*mu outside the surface band, with a
linear interpolation of the crossing once a sign change is seen.
"""

from __future__ import annotations

import numpy as np

from ..contracts import contract
from ..geometry import PinholeCamera, se3
from .volume import TSDFVolume


@contract(pose_volume_from_camera="4,4:f64")
def raycast(
    volume: TSDFVolume,
    camera: PinholeCamera,
    pose_volume_from_camera: np.ndarray,
    mu: float,
    near: float = 0.1,
    far: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Render predicted vertex/normal maps from the TSDF.

    Returns ``(vertex_map, normal_map)``, both ``(H, W, 3)`` in the
    *camera* frame of ``pose_volume_from_camera`` — ready for the tracker,
    zeros at pixels where no surface was found.
    """
    if far is None:
        far = float(np.sqrt(3.0)) * volume.size + near

    dirs_cam = camera.pixel_rays().reshape(-1, 3)
    dirs_cam = dirs_cam / np.linalg.norm(dirs_cam, axis=-1, keepdims=True)
    R = pose_volume_from_camera[:3, :3]
    origin = pose_volume_from_camera[:3, 3]
    dirs_vol = dirs_cam @ R.T

    n_rays = dirs_vol.shape[0]
    step = max(0.75 * mu, volume.voxel_size)

    t = np.full(n_rays, near)
    prev_val = np.full(n_rays, 1.0)
    prev_valid = np.zeros(n_rays, dtype=bool)
    hit_t = np.zeros(n_rays)
    hit = np.zeros(n_rays, dtype=bool)
    alive = np.ones(n_rays, dtype=bool)

    max_steps = int(np.ceil((far - near) / step)) + 1
    for _ in range(max_steps):
        if not alive.any():
            break
        idx = np.flatnonzero(alive)
        pts = origin + t[idx, None] * dirs_vol[idx]
        val, valid = volume.sample_trilinear(pts)

        # Zero crossing: previous sample positive, current negative.
        crossing = prev_valid[idx] & valid & (prev_val[idx] > 0.0) & (val <= 0.0)
        if crossing.any():
            c = idx[crossing]
            f0 = prev_val[c]
            f1 = val[crossing]
            denom = np.where(np.abs(f0 - f1) > 1e-12, f0 - f1, 1e-12)
            frac = f0 / denom
            hit_t[c] = (t[c] - step) + frac * step
            hit[c] = True
            alive[c] = False

        rest = idx[~crossing]
        prev_val[rest] = val[~crossing]
        prev_valid[rest] = valid[~crossing]
        t[rest] += step
        dead = t[rest] > far
        alive[rest[dead]] = False

    vertices = np.zeros((n_rays, 3))
    normals = np.zeros((n_rays, 3))
    if hit.any():
        pts_vol = origin + hit_t[hit, None] * dirs_vol[hit]
        grad = volume.gradient(pts_vol)
        norm = np.linalg.norm(grad, axis=-1)
        good = norm > 1e-12
        n_vol = np.zeros_like(grad)
        n_vol[good] = grad[good] / norm[good, None]

        cam_from_vol = se3.inverse(pose_volume_from_camera)
        vertices_hit = se3.transform_points(cam_from_vol, pts_vol)
        normals_hit = n_vol @ cam_from_vol[:3, :3].T

        hit_idx = np.flatnonzero(hit)
        keep = good
        vertices[hit_idx[keep]] = vertices_hit[keep]
        normals[hit_idx[keep]] = normals_hit[keep]

    shape = (camera.height, camera.width, 3)
    return vertices.reshape(shape), normals.reshape(shape)
