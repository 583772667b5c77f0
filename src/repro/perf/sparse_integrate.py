"""Sparse voxel-block TSDF integration.

Two passes per frame:

1. **Allocate** — back-project every valid depth pixel and walk a short
   sample ladder along its ray through the truncation band (in front of
   the measured surface far enough to cover the raycaster's last
   empty-space step, behind it past +mu), marking the 8³ blocks each
   sample's trilinear corner neighbourhood can touch in an ``nb³``
   table and allocating the marked blocks that have no slot yet.
2. **Update** — for every allocated block still inside the camera
   frustum (conservative plane test on block AABBs), apply the dense
   fast kernel's *exact* float32 op sequence (projection, validity,
   occlusion cut, running weighted average) to the block's voxels.
   Camera coordinates are separable, so they are built per block axis:
   the x and y terms summed once into an (8, 8) plane per block, the z
   term broadcast over it.

Because unallocated space reads as the empty state and the update rule
is bit-identical to :func:`repro.perf.integrate.integrate`, voxels in
allocated blocks carry bit-equal tsdf/weight to a dense run that saw
the same allocation-era frames (tests/test_sparse_volume.py pins the
static-camera case).  Free space *outside* the band is deliberately not
carved — that is the entire speedup — so sample *validity* in skipped
space differs from the dense volume; the sparse raycaster compensates
(see :mod:`repro.perf.sparse_raycast`) and the golden-equivalence suite
bounds the end-to-end effect (identical status sequences, ATE within
the documented 2%).
"""

from __future__ import annotations

import numpy as np

from ..contracts import contract
from ..geometry import PinholeCamera, se3
from ..kfusion.integration import MAX_WEIGHT
from ..kfusion.memory import (
    sparse_band_samples,
    sparse_chunk_blocks,
)
from ..kfusion.sparse import BLOCK, BLOCK_VOXELS, SparseTSDFVolume
from .common import PROJECT_EDGE_EPS, PROJECT_MIN_Z, pixel_rays_f32
from .workspace import FrameWorkspace

#: log2 of BLOCK_VOXELS: a chunk lane splits into (block, voxel) by shifts.
_VOXEL_BITS = BLOCK_VOXELS.bit_length() - 1


def band_offsets(mu: float, voxel: float) -> np.ndarray:
    """Depth offsets of the allocation ladder (float32, metres).

    Spans ``[-front, +back]`` around each measured depth: ``front``
    covers one raycast step plus the trilinear/gradient corner reach so
    the sample *before* a zero crossing still has every corner
    allocated; ``back`` covers the truncation band plus the same reach.
    Spacing of two voxels with the kernel's ±1-voxel block dilation
    leaves no gaps along the ray.
    """
    step = max(0.75 * mu, voxel)
    front = step + 3.0 * voxel
    back = mu + 3.0 * voxel
    n = sparse_band_samples(mu, voxel)
    return np.linspace(-front, back, n).astype(np.float32)


def _allocate_band(
    volume: SparseTSDFVolume,
    depth: np.ndarray,
    camera: PinholeCamera,
    pose_volume_from_camera: np.ndarray,
    mu: float,
    ws: FrameWorkspace,
) -> None:
    """Allocate every block the frame's truncation band can touch."""
    voxel = np.float32(volume.voxel_size)
    offsets = band_offsets(mu, volume.voxel_size)
    s = offsets.shape[0]
    px = camera.pixel_count
    rays = pixel_rays_f32(camera).reshape(-1, 3)

    dsamp = ws.buffer("int_band_depth", (px, s))
    np.add(depth.reshape(-1, 1), offsets[None, :], out=dsamp)

    pts_cam = ws.buffer("int_band_pts_cam", (px * s, 3))
    np.multiply(rays[:, None, :], dsamp[:, :, None],
                out=pts_cam.reshape(px, s, 3))
    R = np.ascontiguousarray(pose_volume_from_camera[:3, :3],
                             dtype=np.float32)
    t = np.ascontiguousarray(pose_volume_from_camera[:3, 3],
                             dtype=np.float32)
    pts = ws.buffer("int_band_pts", (px * s, 3))
    np.matmul(pts_cam, R.T, out=pts)
    pts += t

    vox = ws.buffer("int_band_vox", (px * s, 3), dtype=np.int32)
    np.floor_divide(pts, voxel, out=pts)
    np.copyto(vox, pts, casting="unsafe")

    r = volume.resolution
    ok = ws.buffer("int_band_ok", (px * s,), dtype=bool)
    # Valid pixel, and the ±1-voxel corner neighbourhood overlaps the
    # grid (samples far outside must not allocate clipped face blocks).
    np.all((vox >= -1) & (vox <= r), axis=-1, out=ok)
    ok &= np.repeat(depth.reshape(-1) > 0.0, s)
    if not ok.any():
        return

    nb = volume.blocks_per_side
    # Lateral dilation: a voxel projecting to pixel p sits up to half a
    # ray spacing (depth / focal) off p's ray, which at coarse compute
    # resolutions exceeds a voxel — dilate by that many voxels (plus
    # one for the trilinear corner reach) so every voxel the dense
    # kernel updates inside the band lands in an allocated block.
    rad = ws.buffer("int_band_rad", (px * s,), dtype=np.int32)
    half_spacing = dsamp.reshape(-1) / np.float32(
        2.0 * min(camera.fx, camera.fy) * volume.voxel_size
    )
    np.copyto(rad, np.ceil(half_spacing), casting="unsafe")
    # Cap at 3 (+1 corner reach = 4): a ±4-voxel span can straddle at
    # most two blocks per axis, which is what the 8-corner marking
    # below assumes; coarser-than-that ray spacing leaves residual
    # divergence the golden suite bounds.
    np.clip(rad, 0, 3, out=rad)
    rad += 1
    vox = vox[ok]
    rad = rad[ok, None]
    # Flat block-table offsets of each sample's low/high block per axis.
    stride = np.array([nb * nb, nb, 1], dtype=np.int32)
    lo = np.clip((vox - rad) >> 3, 0, nb - 1) * stride
    hi = np.clip((vox + rad) >> 3, 0, nb - 1) * stride
    marked = ws.zeros("int_band_marked", (nb**3,), dtype=bool)
    for c in range(8):
        cx = hi[:, 0] if c & 1 else lo[:, 0]
        cy = hi[:, 1] if c & 2 else lo[:, 1]
        cz = hi[:, 2] if c & 4 else lo[:, 2]
        marked[cx + cy + cz] = True
    volume.allocate_marked(marked)


def _visible_block_slots(
    volume: SparseTSDFVolume,
    camera: PinholeCamera,
    cam_from_vol: np.ndarray,
) -> np.ndarray:
    """Slots of allocated blocks whose AABB may intersect the frustum.

    Conservative: a block is culled only when all 8 AABB corners sit
    behind the camera, or (with every corner strictly in front) all
    fall outside the same image edge — the linear half-plane form of
    the projection bounds, so no division and no false exclusions.
    """
    n = volume.allocated_blocks
    if n == 0:
        return np.empty(0, dtype=np.int64)
    bm = volume.voxel_size * BLOCK
    base = volume.block_coords[:n].astype(float) * bm  # f64-ok: cull test
    # 8 AABB corners per block, (n, 8, 3).
    corners = np.empty((n, 8, 3))  # f64-ok: cull test
    for c in range(8):
        corners[:, c, 0] = base[:, 0] + (bm if c & 1 else 0.0)
        corners[:, c, 1] = base[:, 1] + (bm if c & 2 else 0.0)
        corners[:, c, 2] = base[:, 2] + (bm if c & 4 else 0.0)
    flat = corners.reshape(-1, 3) @ cam_from_vol[:3, :3].T \
        + cam_from_vol[:3, 3]
    x, y, z = (flat[:, i].reshape(n, 8) for i in range(3))

    culled = np.all(z <= PROJECT_MIN_Z, axis=1)
    front = np.all(z > 0.0, axis=1)
    eps = PROJECT_EDGE_EPS + 1e-3  # slack: cull must never be wrong
    w1, h1 = camera.width - 1, camera.height - 1
    for coord, f, cc, limit in (
        (x, camera.fx, camera.cx, w1),
        (y, camera.fy, camera.cy, h1),
    ):
        low = f * coord + (cc + eps) * z  # u >= -eps  <=>  low >= 0
        high = f * coord - (limit + eps - cc) * z  # u <= limit+eps
        culled |= front & np.all(low < 0.0, axis=1)
        culled |= front & np.all(high > 0.0, axis=1)
    return np.flatnonzero(~culled)


@contract(depth="H,W:f32", pose_volume_from_camera="4,4:f64")
def integrate(
    volume: SparseTSDFVolume,
    depth: np.ndarray,
    camera: PinholeCamera,
    pose_volume_from_camera: np.ndarray,
    mu: float,
    ws: FrameWorkspace,
) -> int:
    """Fuse one float32 depth frame into the sparse TSDF volume."""
    _allocate_band(volume, depth, camera, pose_volume_from_camera, mu, ws)

    cam_from_vol = se3.inverse(pose_volume_from_camera)
    visible = _visible_block_slots(volume, camera, cam_from_vol)
    if visible.size == 0:
        return 0
    R = cam_from_vol[:3, :3].astype(np.float32)
    trans = cam_from_vol[:3, 3].astype(np.float32)

    r = volume.resolution
    nbv = volume.blocks_per_side * BLOCK
    # Per-axis rotated coordinate vectors over the padded block grid —
    # identical values to the dense kernel's `R[k, i] * axis` terms, so
    # the gathered camera coordinates are bit-equal per voxel.
    axis = ws.buffer("int_sp_axis", (nbv,))
    axis[:] = (np.arange(nbv, dtype=np.float32) + np.float32(0.5))
    axis *= np.float32(volume.voxel_size)
    rot = ws.buffer("int_sp_rot", (3, 3, nbv))
    for k in range(3):
        for i in range(3):
            np.multiply(np.float32(R[k, i]), axis, out=rot[k, i])
        rot[k, 2] += trans[k]

    chunk = sparse_chunk_blocks(volume.blocks_per_side)
    cv = chunk * BLOCK_VOXELS
    shape = (cv,)
    X = ws.buffer("int_sp_x", shape)
    Y = ws.buffer("int_sp_y", shape)
    Z = ws.buffer("int_sp_z", shape)
    U = ws.buffer("int_sp_u", shape)
    V = ws.buffer("int_sp_v", shape)
    PIX = ws.buffer("int_sp_pix", shape, dtype=np.int32)
    IN_VIEW = ws.buffer("int_sp_in_view", shape, dtype=bool)
    M = ws.buffer("int_sp_mask", shape, dtype=bool)
    # Per block axis: the 8 voxel indices along x/y/z, whether each lies
    # inside the logical grid, the rotated coordinates gathered at them,
    # and one (8, 8) x-y plane of partial sums.
    AXI = ws.buffer("int_sp_axis_idx", (3, chunk, BLOCK), dtype=np.int64)
    AXIN = ws.buffer("int_sp_axis_in", (3, chunk, BLOCK), dtype=bool)
    AXR = ws.buffer("int_sp_axis_rot", (3, chunk, BLOCK))
    PLANE = ws.buffer("int_sp_plane", (chunk, BLOCK, BLOCK))

    local = np.arange(BLOCK, dtype=np.int64)
    depth_flat = depth.reshape(-1).astype(np.float32, copy=False)
    flat_t = volume.tsdf_blocks.reshape(-1)
    flat_w = volume.weight_blocks.reshape(-1)
    eps = np.float32(PROJECT_EDGE_EPS)
    updated = 0

    for at in range(0, visible.size, chunk):
        slots = visible[at:at + chunk]
        b = slots.size
        nvox = b * BLOCK_VOXELS
        axi = AXI[:, :b]
        np.multiply(volume.block_coords[slots].T[:, :, None], BLOCK,
                    out=axi)
        axi += local
        gi, gj, gl = axi

        # Camera coordinates, grouped exactly like the dense kernel:
        # (R[k,0]*ax_i + R[k,1]*ax_j) + (R[k,2]*ax_l + t_k), the first
        # sum once per block x-y plane, the second broadcast along z.
        x, y, z = X[:nvox], Y[:nvox], Z[:nvox]
        u, v = U[:nvox], V[:nvox]
        in_view, m = IN_VIEW[:nvox], M[:nvox]
        ri, rj, rl = AXR[:, :b]
        plane = PLANE[:b]
        for k, out in ((0, x), (1, y), (2, z)):
            np.take(rot[k, 0], gi, out=ri)
            np.take(rot[k, 1], gj, out=rj)
            np.take(rot[k, 2], gl, out=rl)
            np.add(ri[:, :, None], rj[:, None, :], out=plane)
            np.add(plane[..., None], rl[:, None, None, :],
                   out=out.reshape(b, BLOCK, BLOCK, BLOCK))

        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(x, z, out=u)
            u *= np.float32(camera.fx)
            u += np.float32(camera.cx)
            np.divide(y, z, out=v)
            v *= np.float32(camera.fy)
            v += np.float32(camera.cy)

        # No isfinite guard needed: u/v are only non-finite where the
        # division blew up, i.e. z <= PROJECT_MIN_Z, and those lanes are
        # already masked out by the depth test (nan compares False, so
        # the bound checks below also reject any nan that slips through).
        np.greater(z, np.float32(PROJECT_MIN_Z), out=in_view)
        in_view &= np.greater_equal(u, -eps, out=m)
        in_view &= np.less_equal(u, np.float32(camera.width - 1) + eps,
                                 out=m)
        in_view &= np.greater_equal(v, -eps, out=m)
        in_view &= np.less_equal(v, np.float32(camera.height - 1) + eps,
                                 out=m)
        if not in_view.any():
            continue

        # Round to the nearest pixel and clamp into the image.  fmax/fmin
        # also send the non-finite lanes (all out of view) to an in-image
        # pixel, so the depth gather stays in bounds; in-view lanes get
        # the dense kernel's exact pixel.
        np.rint(u, out=u)
        np.rint(v, out=v)
        np.fmax(u, np.float32(0.0), out=u)
        np.fmin(u, np.float32(camera.width - 1), out=u)
        np.fmax(v, np.float32(0.0), out=v)
        np.fmin(v, np.float32(camera.height - 1), out=v)
        v *= np.float32(camera.width)
        v += u
        pix = PIX[:nvox]
        np.copyto(pix, v, casting="unsafe")

        # Out-of-view lanes read some pixel's depth, but every test below
        # is and-ed into in_view, so they never update.
        measured = u  # reuse, as the dense kernel does
        np.take(depth_flat, pix, out=measured)
        sdf = z
        np.subtract(measured, z, out=sdf)
        updatable = in_view
        updatable &= np.greater(measured, np.float32(0.0), out=m)
        updatable &= np.greater(sdf, np.float32(-mu), out=m)
        # Padding voxels past the logical grid exist only when the
        # resolution is not a multiple of the block size; the dense
        # kernel has no such voxels, so never write them.
        if nbv != r:
            inside = AXIN[:, :b]
            np.less(axi, r, out=inside)
            upd = updatable.reshape(b, BLOCK, BLOCK, BLOCK)
            upd &= inside[0, :, :, None, None]
            upd &= inside[1, :, None, :, None]
            upd &= inside[2, :, None, None, :]
        idx = np.flatnonzero(updatable)
        if idx.size == 0:
            continue

        # Chunk lane idx is voxel idx % 512 of block slots[idx // 512].
        tgt = slots[idx >> _VOXEL_BITS]
        tgt <<= _VOXEL_BITS
        tgt |= idx & (BLOCK_VOXELS - 1)

        tsdf_new = sdf[idx]
        tsdf_new /= np.float32(mu)
        np.clip(tsdf_new, -1.0, 1.0, out=tsdf_new)

        w_old = flat_w[tgt]
        w_new = w_old + np.float32(1.0)
        flat_t[tgt] = (flat_t[tgt] * w_old + tsdf_new) / w_new
        flat_w[tgt] = np.minimum(w_new, np.float32(MAX_WEIGHT))
        updated += int(idx.size)
    if updated:
        volume.refresh_nonpositive_mask()
    return updated
