"""Fast float32 TSDF integration.

The reference kernel materialises a fresh ``(r^3, 3)`` float64 voxel
centre array (meshgrid + stack), transforms it with a dense ``(N, 3) @
(3, 3)`` matmul and projects through the float64 camera path — several
hundred megabytes of temporaries per frame at common resolutions.  The
fast kernel exploits the grid's separability: per-axis rotated
coordinate vectors (three length-``r`` arrays each) are broadcast into
the three full camera coordinates directly inside preallocated float32
workspace buffers, and the projection/rounding/update pipeline runs
with ``out=`` arithmetic end to end.

Update semantics (projective SDF, truncation, occlusion cut, running
weighted average with the weight cap) match the reference exactly.
"""

from __future__ import annotations

import numpy as np

from ..contracts import contract
from ..geometry import PinholeCamera, se3
from ..kfusion.integration import MAX_WEIGHT
from ..kfusion.volume import TSDFVolume
from .common import PROJECT_EDGE_EPS, PROJECT_MIN_Z
from .workspace import FrameWorkspace


@contract(depth="H,W:f32", pose_volume_from_camera="4,4:f64")
def integrate(
    volume: TSDFVolume,
    depth: np.ndarray,
    camera: PinholeCamera,
    pose_volume_from_camera: np.ndarray,
    mu: float,
    ws: FrameWorkspace,
) -> int:
    """Fuse one float32 depth frame into the TSDF volume."""
    r = volume.resolution
    n = r**3
    shape = (r, r, r)
    cam_from_vol = se3.inverse(pose_volume_from_camera)
    R = cam_from_vol[:3, :3].astype(np.float32)
    trans = cam_from_vol[:3, 3].astype(np.float32)

    # Voxel centres along one axis: (i + 0.5) * voxel_size, length r.
    axis = ws.buffer("int_axis", (r,))
    axis[:] = (np.arange(r, dtype=np.float32) + np.float32(0.5))
    axis *= np.float32(volume.voxel_size)

    # Separable rigid transform: camera coordinate k of voxel (i, j, l)
    # is R[k,0]*axis[i] + R[k,1]*axis[j] + R[k,2]*axis[l] + t[k].
    def cam_coord(k: int, out: np.ndarray) -> np.ndarray:
        ax = R[k, 0] * axis
        ay = R[k, 1] * axis
        az = R[k, 2] * axis + trans[k]
        np.add(ax[:, None, None] + ay[None, :, None], az[None, None, :],
               out=out)
        return out

    X = cam_coord(0, ws.buffer("int_x", shape))
    Y = cam_coord(1, ws.buffer("int_y", shape))
    Z = cam_coord(2, ws.buffer("int_z", shape))

    # Projection with PinholeCamera.project's exact validity rule.
    U = ws.buffer("int_u", shape)
    V = ws.buffer("int_v", shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(X, Z, out=U)
        U *= np.float32(camera.fx)
        U += np.float32(camera.cx)
        np.divide(Y, Z, out=V)
        V *= np.float32(camera.fy)
        V += np.float32(camera.cy)

    eps = np.float32(PROJECT_EDGE_EPS)
    in_view = ws.buffer("int_in_view", shape, dtype=bool)
    m = ws.buffer("int_mask", shape, dtype=bool)
    np.greater(Z, np.float32(PROJECT_MIN_Z), out=in_view)
    in_view &= np.isfinite(U, out=m)
    in_view &= np.isfinite(V, out=m)
    in_view &= np.greater_equal(U, -eps, out=m)
    in_view &= np.less_equal(U, np.float32(camera.width - 1) + eps, out=m)
    in_view &= np.greater_equal(V, -eps, out=m)
    in_view &= np.less_equal(V, np.float32(camera.height - 1) + eps, out=m)
    if not in_view.any():
        return 0

    # Round to the nearest pixel and clamp, as the reference does.
    np.nan_to_num(U, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
    np.nan_to_num(V, copy=False, nan=0.0, posinf=0.0, neginf=0.0)
    np.rint(U, out=U)
    np.rint(V, out=V)
    np.clip(U, 0, camera.width - 1, out=U)
    np.clip(V, 0, camera.height - 1, out=V)
    # Flat pixel index (exact in float32: max index < 2^24).
    V *= np.float32(camera.width)
    V += U
    pix = ws.buffer("int_pix", shape, dtype=np.int32)
    np.copyto(pix, V, casting="unsafe")

    measured = U  # reuse: U's content is no longer needed
    np.take(depth.reshape(-1).astype(np.float32, copy=False), pix.reshape(-1),
            out=measured.reshape(-1))
    measured[~in_view] = 0.0

    # Projective signed distance: measured depth minus voxel depth.
    sdf = Z
    np.subtract(measured, Z, out=sdf)
    # updatable = in_view & measured > 0 & sdf > -mu
    updatable = in_view
    updatable &= measured > 0.0
    updatable &= sdf > np.float32(-mu)
    idx = np.flatnonzero(updatable.reshape(-1))
    if idx.size == 0:
        return 0

    tsdf_new = sdf.reshape(-1)[idx]
    tsdf_new /= np.float32(mu)
    np.clip(tsdf_new, -1.0, 1.0, out=tsdf_new)

    flat_t = volume.tsdf.reshape(-1)
    flat_w = volume.weight.reshape(-1)
    w_old = flat_w[idx]
    w_new = w_old + np.float32(1.0)
    flat_t[idx] = (flat_t[idx] * w_old + tsdf_new) / w_new
    flat_w[idx] = np.minimum(w_new, np.float32(MAX_WEIGHT))
    return int(idx.size)
