"""Space-skipping raycast over the sparse voxel-block TSDF.

Same march as the fast dense raycaster — uniform step grid, zero
crossing where a valid positive sample is followed by a non-positive
one, linear refinement between them — restructured as a segmented
(ray x step) grid with two sparse accelerations:

* **Volume clipping** — per-ray entry/exit distances against the volume
  AABB (one slab test up front) bound each ray's emission range; rays
  retire between segments once past their exit.
* **Crossing-candidate skipping** — a valid trilinear sample can read
  ``<= 0`` only if one of its 8 corner voxels is below
  :data:`~repro.kfusion.sparse.NONPOS_FLOOR`, which the volume's 2³
  sub-block ``nonpositive_mask`` records (forward-dilated, so one
  gather at the sample's base voxel ``>> 1`` tests all 8 corners).  A
  crossing pair is a positive sample followed by such a sample, so
  each segment tile keeps only flagged samples and their
  t-predecessors; every other sample is left unsampled.

Kept samples go through a trilinear gather that is bit-identical to
:func:`repro.perf.trilinear.sample_f32` over the block data (same op
order, same corner order), and every crossing pair the dense march
would evaluate is still evaluated, so over the same voxels the hits are
bit-identical to the dense fast raycaster (tests/test_sparse_volume.py
checks this against random volumes).  Residual divergence against a
dense *run* is limited to free space the dense integrate carved but the
band allocator skips, and is bounded end-to-end by the
golden-equivalence suite (identical status sequences, ATE within 2%).
"""

from __future__ import annotations

import numpy as np

from ..contracts import contract
from ..geometry import PinholeCamera
from ..kfusion.sparse import BLOCK, BLOCK_VOXELS, SparseTSDFVolume
from ..kfusion.tracking import ReferenceModel
from .common import translation_f32, unit_rays_f32
from .trilinear import _CORNERS
from .workspace import FrameWorkspace

#: Corner offsets of :data:`repro.perf.trilinear._CORNERS` as (1, 8)
#: integer rows, for the corner-vectorised gather below.
_OX = np.array([c[0] for c in _CORNERS], dtype=np.int32)[None, :]
_OY = np.array([c[1] for c in _CORNERS], dtype=np.int32)[None, :]
_OZ = np.array([c[2] for c in _CORNERS], dtype=np.int32)[None, :]
_OXB = _OX.astype(bool)
_OYB = _OY.astype(bool)
_OZB = _OZ.astype(bool)


def sample_sparse_f32(
    volume: SparseTSDFVolume,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Trilinear TSDF at float32 volume-frame points, block-table gather.

    Bit-identical to :func:`repro.perf.trilinear.sample_f32` wherever the
    touched blocks are allocated; unallocated corners read the empty
    state (tsdf 1.0, weight 0.0), which is what the dense volume holds
    at any voxel integration never updated.  All 8 trilinear corners are
    gathered in one ``(n, 8)`` pass through the volume's dense
    coord->slot table — no hashing on this path — with the dense
    kernel's weight-product grouping and corner accumulation order
    preserved so the float32 results round identically.
    """
    r = volume.resolution
    nb = volume.blocks_per_side
    inv_voxel = np.float32(1.0 / volume.voxel_size)
    p = points * inv_voxel
    p -= np.float32(0.5)

    base = np.floor(p)
    frac = p - base
    base = base.astype(np.int32)

    inside = ((base >= 0) & (base <= r - 2)).all(axis=-1)
    np.clip(base, 0, r - 2, out=base)

    # (n, 8) corner voxel coordinates and their block-table slots.  All
    # index arithmetic stays int32: the largest flat voxel index is
    # blocks * BLOCK_VOXELS < 2^31 up to resolution 1024.
    ix = base[:, 0:1] + _OX  # effect-ok: batch-sized
    iy = base[:, 1:2] + _OY  # effect-ok: batch-sized
    iz = base[:, 2:3] + _OZ  # effect-ok: batch-sized
    bidx = ((ix >> 3) * np.int32(nb) + (iy >> 3)) * np.int32(nb) \
        + (iz >> 3)
    slots = volume.block_slot_table.take(bidx)
    local = ((ix & 7) * BLOCK + (iy & 7)) * BLOCK + (iz & 7)
    found = slots >= 0
    flat = np.where(found, slots, 0) * np.int32(BLOCK_VOXELS) + local
    tv = volume.tsdf_blocks.reshape(-1).take(flat)
    wv = volume.weight_blocks.reshape(-1).take(flat)
    tv[~found] = np.float32(1.0)
    wv[~found] = np.float32(0.0)

    # Corner weights with the dense grouping ((wx * wy) * wz), then the
    # same sequential corner-order accumulation as trilinear.sample_f32.
    one = np.float32(1.0)
    fx, fy, fz = frac[:, 0:1], frac[:, 1:2], frac[:, 2:3]
    w = np.where(_OXB, fx, one - fx)  # effect-ok: batch-sized
    w = w * np.where(_OYB, fy, one - fy)  # effect-ok: batch-sized
    w *= np.where(_OZB, fz, one - fz)
    w *= tv

    values = np.zeros(len(p), dtype=np.float32)  # effect-ok: batch-sized
    # (live-ray batches vary per step, as in trilinear.sample_f32)
    for c in range(8):
        values += w[:, c]

    valid = inside & (wv > 0.0).all(axis=-1)
    values[~valid] = np.float32(1.0)
    return values, valid


def gradient_sparse_f32(volume: SparseTSDFVolume,
                        points: np.ndarray) -> np.ndarray:
    """Central-difference gradient via the sparse sampler (cf.
    :func:`repro.perf.trilinear.gradient_f32`)."""
    eps = np.float32(volume.voxel_size)
    n = len(points)
    queries = np.empty((6, n, 3), dtype=np.float32)  # effect-ok: batch-sized
    for axis in range(3):
        queries[2 * axis] = points
        queries[2 * axis][:, axis] += eps
        queries[2 * axis + 1] = points
        queries[2 * axis + 1][:, axis] -= eps
    vals, _ = sample_sparse_f32(volume, queries.reshape(-1, 3))
    vals = vals.reshape(6, n)
    g = np.empty((n, 3), dtype=np.float32)  # effect-ok: batch-sized
    inv = np.float32(1.0) / (np.float32(2.0) * eps)
    for axis in range(3):
        np.subtract(vals[2 * axis], vals[2 * axis + 1], out=g[:, axis])
        g[:, axis] *= inv
    return g


def _volume_slab(origin: np.ndarray, dirs: np.ndarray, size: float,
                 near: np.float32, t_enter: np.ndarray,
                 t_exit: np.ndarray) -> None:
    """Per-ray entry/exit distances against the volume AABB, into
    ``t_enter``/``t_exit`` (float32)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (np.float32(0.0) - origin) / dirs  # effect-ok: per-frame rays
        t1 = (np.float32(size) - origin) / dirs  # effect-ok: per-frame rays
    lo = np.minimum(t0, t1)
    hi = np.maximum(t0, t1)
    # Axis-parallel rays: 0/0 -> nan; the axis imposes no bound.
    np.nan_to_num(lo, copy=False, nan=-np.inf)
    np.nan_to_num(hi, copy=False, nan=np.inf)
    np.max(lo, axis=-1, out=t_enter)
    np.min(hi, axis=-1, out=t_exit)
    np.maximum(t_enter, near, out=t_enter)


#: March-grid indices covered per segment of the segmented-grid march.
#: Short enough that rays hitting a surface retire before scheduling
#: much of the band behind it, long enough that a frame needs only a
#: handful of segments.
SEGMENT_STEPS = 16


@contract(pose_volume_from_camera="4,4:f64")
def raycast_model(
    volume: SparseTSDFVolume,
    camera: PinholeCamera,
    pose_volume_from_camera: np.ndarray,
    mu: float,
    ws: FrameWorkspace,
    near: float = 0.1,
    far: float | None = None,
) -> ReferenceModel:
    """March all pixel rays as a segmented (ray x step) grid.

    The march grid is the dense raycaster's t-sequence crossed with the
    live rays.  Instead of stepping rays one sample at a time, each
    iteration takes a *segment* of ``SEGMENT_STEPS`` consecutive grid
    indices and tests every (ray, index) pair at once: one flat gather
    from the volume's non-positive sub-block mask flags the samples
    that may read ``<= 0``, and only those and their t-predecessors are
    sampled — any other sample reads > 0 or is invalid, and no crossing
    pair can contain it.  ``np.flatnonzero`` over the C-ordered tile
    yields the evaluated samples ray-major and t-ascending for free, so
    each ray's first zero crossing is selected vectorised: a crossing is
    two *t-adjacent* samples, both valid, spanning the sign change —
    exactly the step-by-step march's ``prev``/current test.  Rays whose
    first crossing is found retire between segments (the dense march
    would have stopped there); segments share their boundary index, so
    a crossing pair straddling the cut re-forms in the next segment.
    """
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

    te = ws.buffer("rc_t_enter", (n_rays,))
    tx = ws.buffer("rc_t_exit", (n_rays,))
    _volume_slab(origin, dirs_all, volume.size, near, te, tx)

    ns = volume.nonpositive_mask.shape[0]
    nonpos_flat = volume.nonpositive_mask.reshape(-1)

    # The dense raycaster advances every live ray by the same float32
    # ``t += step`` accumulation, so all its rays share one t-sequence.
    # Precompute that exact sequence (sequential f32 adds — NOT k*step,
    # whose different rounding would shift hit_t at the last ulp and
    # let the two backends drift apart frames later) and let each ray
    # carry an integer index into it: a skip of k whole steps lands on
    # the bit-identical t the dense march would have reached.
    max_steps = int(np.ceil((far - near) / step)) + 1
    ts = np.empty(max_steps + 2, dtype=np.float32)  # effect-ok: per-frame
    ts[0] = near
    for i in range(max_steps + 1):
        ts[i + 1] = ts[i] + step
    last = max_steps + 1

    # -- segmented grid march -------------------------------------------
    # Per-ray emission bounds.  The far bound is the dense march's exact
    # loop condition (``t <= far``); the AABB entry/exit bounds are
    # padded by one step — a sample outside the volume is invalid in
    # the trilinear sampler regardless, so the pad only costs a few
    # extra evaluated-and-discarded samples and can never change which
    # crossing pairs form.
    alive = np.arange(n_rays, dtype=np.int64)
    dirs = dirs_all
    lb = te - step
    ub = np.minimum(tx + step, far)

    inv_vox = np.float32(1.0 / volume.voxel_size)
    r = volume.resolution
    s = 0
    while alive.size:
        e = min(s + SEGMENT_STEPS, last)
        t_seg = ts[s:e + 1]
        k = t_seg.size
        # (rays, k) tile of in-bounds samples that may read <= 0: the
        # sampler's own base voxel (same ops, same clip) gathered from
        # the sub-block non-positive mask.
        pts = origin + t_seg[None, :, None] * dirs[:, None, :]
        p = pts * inv_vox  # effect-ok: tile-sized
        p -= np.float32(0.5)
        np.floor(p, out=p)
        base = p.astype(np.int32)
        np.clip(base, 0, r - 2, out=base)
        base >>= 1
        sidx = (base[..., 0] * np.int32(ns) + base[..., 1]) \
            * np.int32(ns) + base[..., 2]
        flag = nonpos_flat.take(sidx)
        flag &= t_seg[None, :] >= lb[:, None]
        flag &= t_seg[None, :] <= ub[:, None]
        # A crossing is a positive sample followed by a flagged one, so
        # keep the flagged samples and their t-predecessors.  The last
        # column's pair with the next index re-forms in the next segment.
        sampled = flag.copy()
        sampled[:, :-1] |= flag[:, 1:]
        # C-order flatnonzero enumerates the tile ray-major and
        # t-ascending — exactly the order the crossing scan needs.
        rows = np.flatnonzero(sampled.reshape(-1))  # effect-ok: tile-sized
        if rows.size:
            ray_l = rows // k
            tidx_o = s + rows % k
            v, valid = sample_sparse_f32(volume, pts.reshape(-1, 3)[rows])

            same = ray_l[1:] == ray_l[:-1]
            same &= tidx_o[1:] == tidx_o[:-1] + 1
            same &= valid[:-1] & valid[1:]
            same &= v[:-1] > 0.0
            same &= v[1:] <= 0.0
            j = np.flatnonzero(same)  # effect-ok: hit-sized
            if j.size:
                uniq, first = np.unique(ray_l[j], return_index=True)
                jj = j[first]
                f0 = v[jj]
                f1 = v[jj + 1]
                denom = np.where(np.abs(f0 - f1) > 1e-12, f0 - f1,
                                 np.float32(1e-12))
                g = alive[uniq]
                hit_t[g] = (ts[tidx_o[jj] + 1] - step) \
                    + (f0 / denom) * step
                hit[g] = True
        if e >= last:
            break
        # Retire rays that found their crossing or left their bounds;
        # the next segment starts at this one's end index, so the
        # shared boundary sample re-forms any pair split by the cut.
        keep = ~hit[alive]
        keep &= ts[e + 1] <= ub
        if not keep.all():
            alive = alive[keep]
            dirs = dirs[keep]
            lb = lb[keep]
            ub = ub[keep]
        s = e

    h, w = camera.shape
    v_map = ws.zeros("rc_vertices", (n_rays, 3))
    n_map = ws.zeros("rc_normals", (n_rays, 3))
    if hit.any():
        hit_idx = np.flatnonzero(hit)
        pts_vol = origin + hit_t[hit_idx, None] * dirs_all[hit_idx]
        grad = gradient_sparse_f32(volume, pts_vol)
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
    )
