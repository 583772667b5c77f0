"""Fused float32 trilinear TSDF sampling.

The reference :meth:`TSDFVolume.sample_trilinear` recomputes voxel
coordinates, corner indices and weights for every call — and its
central-difference :meth:`TSDFVolume.gradient` makes six more
full-pipeline calls per query batch.  The fast path folds the whole
thing into flat-index gathers: corner indices are computed once per
batch, the value and the six central-difference lookups share one
vectorised sampler invocation, and everything stays float32.

Semantics match the reference exactly: points outside the grid or with
any zero-weight corner are invalid and sample to 1.0 ("far outside"),
including inside the gradient's finite differences.
"""

from __future__ import annotations

import numpy as np

from ..kfusion.volume import TSDFVolume

#: Corner offsets in (x, y, z), the reference kernel's iteration order.
_CORNERS = [(c & 1, (c >> 1) & 1, (c >> 2) & 1) for c in range(8)]


def sample_f32(
    volume: TSDFVolume,
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Trilinear TSDF values at float32 volume-frame ``points`` ``(N, 3)``.

    Returns ``(values, valid)`` with the reference invalid-to-1.0
    convention, computed with flat-index corner gathers.
    """
    r = volume.resolution
    inv_voxel = np.float32(1.0 / volume.voxel_size)
    p = points * inv_voxel
    p -= np.float32(0.5)

    base = np.floor(p)
    frac = p - base
    base = base.astype(np.int32)

    inside = ((base >= 0) & (base <= r - 2)).all(axis=-1)
    np.clip(base, 0, r - 2, out=base)

    # Flat gather index of corner (0, 0, 0); the other corners are fixed
    # strides away, so the index arithmetic is done once per batch.
    flat000 = (base[:, 0].astype(np.int64) * r + base[:, 1]) * r + base[:, 2]
    tsdf_flat = volume.tsdf.reshape(-1)
    weight_flat = volume.weight.reshape(-1)

    fx, fy, fz = frac[:, 0], frac[:, 1], frac[:, 2]
    wx = (np.float32(1.0) - fx, fx)
    wy = (np.float32(1.0) - fy, fy)
    wz = (np.float32(1.0) - fz, fz)

    values = np.zeros(len(p), dtype=np.float32)
    observed = np.ones(len(p), dtype=bool)
    # (query batches are the compacted live-ray set, so their length
    # varies per call — a fixed-shape arena buffer cannot hold them)
    for ox, oy, oz in _CORNERS:
        idx = flat000 + ((ox * r + oy) * r + oz)
        values += (wx[ox] * wy[oy] * wz[oz]) * tsdf_flat[idx]
        observed &= weight_flat[idx] > 0.0

    valid = inside & observed
    values[~valid] = np.float32(1.0)
    return values, valid


def gradient_f32(volume: TSDFVolume, points: np.ndarray) -> np.ndarray:
    """Central-difference TSDF gradient at float32 points, ``(N, 3)``.

    One fused sampler call evaluates all six offset batches (the
    reference makes six separate ``sample_trilinear`` calls, each paying
    its own coordinate/corner setup).  ``eps`` is one voxel, as in the
    reference.
    """
    eps = np.float32(volume.voxel_size)
    n = len(points)
    queries = np.empty((6, n, 3), dtype=np.float32)
    for axis in range(3):
        queries[2 * axis] = points
        queries[2 * axis][:, axis] += eps
        queries[2 * axis + 1] = points
        queries[2 * axis + 1][:, axis] -= eps
    vals, _ = sample_f32(volume, queries.reshape(-1, 3))
    vals = vals.reshape(6, n)
    g = np.empty((n, 3), dtype=np.float32)
    inv = np.float32(1.0) / (np.float32(2.0) * eps)
    for axis in range(3):
        np.subtract(vals[2 * axis], vals[2 * axis + 1], out=g[:, axis])
        g[:, axis] *= inv
    return g
