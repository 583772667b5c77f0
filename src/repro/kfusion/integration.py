"""TSDF integration (KinectFusion's ``integrateKernel``).

Every voxel centre is projected into the current depth frame; voxels that
land on a valid measurement update their truncated signed distance by a
weighted running average.  The signed distance is the projective distance
along the camera ray (depth difference), truncated at ``mu``.
"""

from __future__ import annotations

import numpy as np

from ..contracts import contract
from ..geometry import PinholeCamera, se3
from .volume import TSDFVolume

MAX_WEIGHT = 100.0


@contract(depth="H,W:f64", pose_volume_from_camera="4,4:f64")
def integrate(
    volume: TSDFVolume,
    depth: np.ndarray,
    camera: PinholeCamera,
    pose_volume_from_camera: np.ndarray,
    mu: float,
) -> int:
    """Fuse one depth frame into the TSDF volume.

    Args:
        volume: the TSDF volume (volume frame = world frame here).
        depth: ``(H, W)`` metres at the compute resolution, 0 = invalid.
        camera: intrinsics matching ``depth``.
        pose_volume_from_camera: camera-to-volume 4x4 pose.
        mu: truncation band in metres.

    Returns:
        The number of voxels updated (useful for tests and ablations).
    """
    centers = volume.voxel_centers_world()
    cam_from_vol = se3.inverse(pose_volume_from_camera)
    pts_cam = se3.transform_points(cam_from_vol, centers)

    pixels, in_view = camera.project(pts_cam)
    if not in_view.any():
        return 0

    u = np.round(pixels[:, 0]).astype(int)
    v = np.round(pixels[:, 1]).astype(int)
    u = np.clip(u, 0, camera.width - 1)
    v = np.clip(v, 0, camera.height - 1)
    measured = np.where(in_view, depth[v, u], 0.0)
    has_depth = in_view & (measured > 0.0)

    # Projective signed distance: measured depth minus voxel depth along z.
    sdf = measured - pts_cam[:, 2]
    # Voxels far behind the surface are occluded — do not update them.
    updatable = has_depth & (sdf > -mu)
    if not updatable.any():
        return 0

    tsdf_new = np.clip(sdf / mu, -1.0, 1.0)

    flat_t = volume.tsdf.reshape(-1)
    flat_w = volume.weight.reshape(-1)
    idx = np.flatnonzero(updatable)
    w_old = flat_w[idx]
    w_new = w_old + 1.0
    # KinectFusion's running average: divide by the uncapped count,
    # then cap the weight, so a saturated voxel keeps a convex mix.
    flat_t[idx] = (flat_t[idx] * w_old + tsdf_new[idx]) / w_new
    flat_w[idx] = np.minimum(w_new, MAX_WEIGHT)
    return int(idx.size)
