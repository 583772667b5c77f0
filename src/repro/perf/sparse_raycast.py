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
from .workspace import FrameWorkspace

#: In-block index strides of a +1 voxel step along x, y, z (block rows
#: are x-major, see :class:`~repro.kfusion.sparse.SparseTSDFVolume`).
_LOCAL_STRIDE = np.array([[BLOCK * BLOCK], [BLOCK], [1]], dtype=np.int32)


def _gather_corners(volume: SparseTSDFVolume,
                    b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """TSDF ``(8, n)`` at the 8 trilinear corners of base voxels ``b``
    ``(3, n)`` int32 (clipped to the grid; used as scratch), and
    whether all 8 corners are observed.

    Corner order is ``c = ox + 2 oy + 4 oz``.  Per sample, the base
    voxel's block index, in-block index and per-axis carry bit (base
    voxel on its block's last plane) are computed once on ``(n,)``
    vectors; the corners' indices then follow by doubling adds into
    ``(8, n)`` arrays.  An unallocated corner shows only through
    validity: its block slot is -1, so its flat index is negative and
    the gather clips it to a real voxel whose value no valid sample
    uses.
    """
    nb = volume.blocks_per_side
    n = b.shape[1]
    local = b & (BLOCK - 1)
    carry = local == BLOCK - 1
    b >>= 3
    # Block-table index (intp: the gathers' index type, so none of them
    # converts) and in-block index of every corner.
    flat = np.empty((8, n), dtype=np.intp)
    loc = np.empty((8, n), dtype=np.int32)
    np.multiply(b[0], nb, out=flat[0])
    flat[0] += b[1]
    flat[0] *= nb
    flat[0] += b[2]
    local *= _LOCAL_STRIDE
    np.add(local[0], local[1], out=loc[0])
    loc[0] += local[2]
    # Per-axis deltas of a +1 corner step: a carry moves to the next
    # block and wraps the in-block index from 7 back to 0.
    dblk = carry * np.array([[nb * nb], [nb], [1]], dtype=np.int32)
    dloc = carry * (-BLOCK * _LOCAL_STRIDE)
    dloc += _LOCAL_STRIDE
    # Corners [2^a, 2^(a+1)) are corners [0, 2^a) stepped along axis a.
    for axis in range(3):
        lo, hi = 1 << axis, 2 << axis
        np.add(flat[:lo], dblk[axis], out=flat[lo:hi])
        np.add(loc[:lo], dloc[axis], out=loc[lo:hi])

    # Flat voxel index of every corner, over its block index.
    np.multiply(volume.block_slot_table.take(flat), BLOCK_VOXELS, out=flat,
                dtype=np.intp)
    flat += loc
    observed = flat.min(axis=0) >= 0
    observed &= volume.weight_blocks.reshape(-1).take(
        flat, mode="clip").min(axis=0) > 0.0
    return volume.tsdf_blocks.reshape(-1).take(flat, mode="clip"), observed


def _sample_planes(volume: SparseTSDFVolume,
                   p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Trilinear TSDF at ``(3, n)`` float32 voxel-space planes ``p``
    (``point / voxel_size - 0.5`` per axis; used as scratch).

    Every op runs on ``(n,)``, ``(3, n)`` or ``(8, n)`` arrays: no
    3- or 8-wide inner loops.
    """
    r = volume.resolution
    n = p.shape[1]
    base = np.floor(p)
    frac = p
    frac -= base
    base = base.astype(np.int32)
    # Negative coordinates wrap to huge unsigned ones: one compare
    # tests both grid bounds.
    valid = (base.view(np.uint32) <= r - 2).all(axis=0)
    np.clip(base, 0, r - 2, out=base)
    tv, observed = _gather_corners(volume, base)
    valid &= observed

    # Corner weights (8, n) with the dense grouping ((wx * wy) * wz),
    # then the same corner-order accumulation as trilinear.sample_f32.
    f = np.empty((3, 2, n), dtype=np.float32)
    f[:, 1] = frac
    np.subtract(np.float32(1.0), frac, out=f[:, 0])
    w = f[2][:, None, None, :] * (f[1][:, None, :] * f[0][None, :, :])
    w = w.reshape(8, n)
    w *= tv
    values = np.zeros(n, dtype=np.float32)
    for c in range(8):
        values += w[c]
    values[~valid] = np.float32(1.0)
    return values, valid


def sample_sparse_f32(
    volume: SparseTSDFVolume,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Trilinear TSDF at float32 volume-frame points, block-table gather.

    Bit-identical to :func:`repro.perf.trilinear.sample_f32` on the
    densified volume: a corner in an unallocated block makes the sample
    invalid, as the dense volume's empty state (weight 0.0) does at any
    voxel integration never updated.  All 8 trilinear corners are
    gathered corner-major through the volume's dense coord->slot table
    (no hashing on this path), with the dense kernel's weight-product
    grouping and corner accumulation order preserved so the float32
    results round identically.
    """
    p = np.empty((3, len(points)), dtype=np.float32)
    np.multiply(points.T, np.float32(1.0 / volume.voxel_size), out=p)
    p -= np.float32(0.5)
    return _sample_planes(volume, p)


def gradient_sparse_f32(volume: SparseTSDFVolume,
                        points: np.ndarray) -> np.ndarray:
    """Central-difference gradient via the sparse sampler (cf.
    :func:`repro.perf.trilinear.gradient_f32`).

    The six query sets are built per axis as ``(6, n)`` planes: row
    ``2a`` is the points shifted by ``+eps`` along axis ``a``, row
    ``2a + 1`` by ``-eps``.
    """
    eps = np.float32(volume.voxel_size)
    n = len(points)
    q = np.empty((3, 6, n), dtype=np.float32)
    q[...] = points.T[:, None, :]
    for axis in range(3):
        q[axis, 2 * axis] += eps
        q[axis, 2 * axis + 1] -= eps
    q *= np.float32(1.0 / volume.voxel_size)
    q -= np.float32(0.5)
    vals, _ = _sample_planes(volume, q.reshape(3, 6 * n))
    vals = vals.reshape(6, n)
    g = np.empty((n, 3), dtype=np.float32)
    inv = np.float32(1.0) / (np.float32(2.0) * eps)
    for axis in range(3):
        np.subtract(vals[2 * axis], vals[2 * axis + 1], out=g[:, axis])
        g[:, axis] *= inv
    return g


def _may_read_nonpositive(volume: SparseTSDFVolume,
                          p: np.ndarray) -> np.ndarray:
    """Flags of the samples at voxel-space planes ``p`` ``(3, ...)``
    that may read ``<= 0``: the sampler's base voxel (same clip;
    truncation equals its floor once clipped at 0) gathered from the
    sub-block non-positive mask."""
    ns = volume.nonpositive_mask.shape[0]
    sub = p.astype(np.int32)
    np.clip(sub, 0, volume.resolution - 2, out=sub)
    sub >>= 1
    sidx = sub[0]
    sidx *= ns
    sidx += sub[1]
    sidx *= ns
    sidx += sub[2]
    return volume.nonpositive_mask.reshape(-1).take(sidx)


def _volume_slab(origin: np.ndarray, dirs: np.ndarray, size: float,
                 near: np.float32, t_enter: np.ndarray,
                 t_exit: np.ndarray) -> None:
    """Per-ray entry/exit distances against the volume AABB, into
    ``t_enter``/``t_exit`` (float32)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (np.float32(0.0) - origin) / dirs
        t1 = (np.float32(size) - origin) / dirs
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

    The tile is laid out plane-major: x, y and z as ``(rays, k)``
    planes in voxel space, so no op runs over 3-wide points, and the
    sampler receives the selected entries of those planes.
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

    # The dense raycaster advances every live ray by the same float32
    # ``t += step`` accumulation, so all its rays share one t-sequence.
    # Precompute that exact sequence (sequential f32 adds, as
    # ``np.add.accumulate`` makes them — NOT k*step, whose different
    # rounding would shift hit_t at the last ulp and let the two
    # backends drift apart frames later) and let each ray
    # carry an integer index into it: a skip of k whole steps lands on
    # the bit-identical t the dense march would have reached.
    max_steps = int(np.ceil((far - near) / step)) + 1
    ts = np.full(max_steps + 2, step, dtype=np.float32)
    ts[0] = near
    np.add.accumulate(ts, out=ts)
    last = max_steps + 1

    # -- segmented grid march -------------------------------------------
    # Per-ray emission bounds.  The far bound is the dense march's exact
    # loop condition (``t <= far``); the AABB entry/exit bounds are
    # padded by one step — a sample outside the volume is invalid in
    # the trilinear sampler regardless, so the pad only costs a few
    # extra evaluated-and-discarded samples and can never change which
    # crossing pairs form.
    alive = np.arange(n_rays, dtype=np.int64)
    dirs = dirs_all.T
    lb = te - step
    ub = np.minimum(tx + step, far)
    samples_evaluated = 0

    inv_vox = np.float32(1.0 / volume.voxel_size)
    s = 0
    while alive.size:
        e = min(s + SEGMENT_STEPS, last)
        t_seg = ts[s:e + 1]
        k = t_seg.size
        # x, y and z of the (rays, k) tile in voxel space, by the
        # sampler's own float32 ops on each coordinate.
        p = np.multiply.outer(dirs, t_seg)
        p += origin[:, None, None]
        p *= inv_vox
        p -= np.float32(0.5)
        flag = _may_read_nonpositive(volume, p)
        flag &= t_seg >= lb[:, None]
        flag &= t_seg <= ub[:, None]
        # A crossing is a positive sample followed by a flagged one, so
        # keep the flagged samples and their t-predecessors.  The last
        # column's pair with the next index re-forms in the next segment.
        sampled = flag.copy()
        sampled[:, :-1] |= flag[:, 1:]
        # C-order flatnonzero enumerates the tile ray-major and
        # t-ascending — exactly the order the crossing scan needs.
        rows = np.flatnonzero(sampled.reshape(-1))
        if rows.size:
            samples_evaluated += rows.size
            ray_l = rows // k
            tidx_o = s + rows % k
            v, valid = _sample_planes(
                volume, p.reshape(3, -1).take(rows, axis=1))

            same = ray_l[1:] == ray_l[:-1]
            same &= tidx_o[1:] == tidx_o[:-1] + 1
            same &= valid[:-1] & valid[1:]
            same &= v[:-1] > 0.0
            same &= v[1:] <= 0.0
            j = np.flatnonzero(same)
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
            dirs = dirs[:, keep]
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
        samples_evaluated=samples_evaluated,
        rays_hit=int(np.count_nonzero(hit)),
    )
