"""The truncated signed distance function (TSDF) volume.

KinectFusion's map is a dense voxel grid storing, per voxel, a truncated
signed distance to the nearest surface and an accumulation weight.  The
volume is axis-aligned in the *volume frame*; the pipeline places the
camera at a fixed initial pose inside it (SLAMBench's ``initial_pos_factor``
puts the camera at the volume centre's xy and at z=0 looking in).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError


class TSDFVolume:
    """Dense TSDF voxel grid.

    Attributes:
        resolution: voxels per side.
        size: physical edge length in metres.
        tsdf: ``(r, r, r)`` float32 array of truncated signed distances,
            normalised to [-1, 1] (distance / mu).
        weight: ``(r, r, r)`` float32 accumulation weights.
    """

    def __init__(self, resolution: int, size: float):
        if resolution < 4:
            raise ConfigurationError(f"volume resolution too small: {resolution}")
        if size <= 0:
            raise ConfigurationError(f"volume size must be positive: {size}")
        self.resolution = int(resolution)
        self.size = float(size)
        self.tsdf = np.ones(
            (self.resolution,) * 3, dtype=np.float32
        )  # 1.0 == "far outside"
        self.weight = np.zeros((self.resolution,) * 3, dtype=np.float32)

    @property
    def voxel_size(self) -> float:
        return self.size / self.resolution

    def reset(self) -> None:
        """Clear the volume to the empty state."""
        self.tsdf.fill(1.0)
        self.weight.fill(0.0)

    def densify(self) -> tuple[np.ndarray, np.ndarray]:
        """The dense ``(r, r, r)`` tsdf/weight fields (no copy).

        Mirrors :meth:`SparseTSDFVolume.densify
        <repro.kfusion.sparse.SparseTSDFVolume.densify>`, so whole-volume
        consumers read either volume the same way.
        """
        return self.tsdf, self.weight

    def voxel_centers_world(self) -> np.ndarray:
        """World (volume-frame) coordinates of all voxel centres, ``(r^3, 3)``.

        Voxel (i, j, k) covers ``[i, i+1) * voxel_size`` along x, so its
        centre is at ``(i + 0.5) * voxel_size``.
        """
        r = self.resolution
        idx = (np.arange(r, dtype=float) + 0.5) * self.voxel_size
        gx, gy, gz = np.meshgrid(idx, idx, idx, indexing="ij")
        return np.stack([gx, gy, gz], axis=-1).reshape(-1, 3)

    def world_to_voxel(self, points: np.ndarray) -> np.ndarray:
        """Continuous voxel coordinates of volume-frame points."""
        return np.asarray(points, dtype=float) / self.voxel_size - 0.5

    def contains(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Mask of points inside the volume (with an optional metre margin)."""
        p = np.asarray(points, dtype=float)
        return np.all((p >= margin) & (p <= self.size - margin), axis=-1)

    def sample_trilinear(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Trilinearly interpolated TSDF at volume-frame ``points``.

        Returns ``(values, valid)``; points outside the grid or in
        unobserved space (any corner with zero weight) are invalid and get
        value 1.0.
        """
        p = self.world_to_voxel(points)
        r = self.resolution
        base = np.floor(p).astype(int)
        frac = p - base

        inside = np.all((base >= 0) & (base <= r - 2), axis=-1)
        base_c = np.clip(base, 0, r - 2)

        values = np.zeros(len(p))
        observed = np.ones(len(p), dtype=bool)
        for corner in range(8):
            ox, oy, oz = corner & 1, (corner >> 1) & 1, (corner >> 2) & 1
            ix = base_c[:, 0] + ox
            iy = base_c[:, 1] + oy
            iz = base_c[:, 2] + oz
            w = (
                (frac[:, 0] if ox else 1.0 - frac[:, 0])
                * (frac[:, 1] if oy else 1.0 - frac[:, 1])
                * (frac[:, 2] if oz else 1.0 - frac[:, 2])
            )
            values += w * self.tsdf[ix, iy, iz]
            observed &= self.weight[ix, iy, iz] > 0.0

        valid = inside & observed
        values = np.where(valid, values, 1.0)
        return values, valid

    def gradient(self, points: np.ndarray, eps: float | None = None) -> np.ndarray:
        """Central-difference TSDF gradient at volume-frame points, ``(N, 3)``.

        Used to shade raycast normals.  ``eps`` defaults to one voxel.
        """
        if eps is None:
            eps = self.voxel_size
        p = np.asarray(points, dtype=float)
        g = np.zeros_like(p)
        for axis in range(3):
            offset = np.zeros(3)
            offset[axis] = eps
            hi, _ = self.sample_trilinear(p + offset)
            lo, _ = self.sample_trilinear(p - offset)
            g[:, axis] = (hi - lo) / (2.0 * eps)
        return g

    def occupancy_mask(self) -> np.ndarray:
        """Boolean observed-voxel mask, ``(r, r, r)`` (one weight scan).

        The single occupancy pass :meth:`occupied_fraction` and
        :meth:`extract_surface_points` both build on; callers running
        several occupancy-derived queries per frame can compute it once
        and pass it down.
        """
        return self.weight > 0.0

    def occupied_fraction(self, occupancy: np.ndarray | None = None) -> float:
        """Fraction of voxels that have been observed at least once."""
        mask = occupancy if occupancy is not None else self.occupancy_mask()
        return float(np.count_nonzero(mask)) / self.weight.size

    def extract_surface_points(self, threshold: float = 0.25,
                               occupancy: np.ndarray | None = None
                               ) -> np.ndarray:
        """Volume-frame points near the zero crossing, ``(N, 3)``.

        A cheap surface extraction (voxels with small |tsdf| and non-zero
        weight) used by the point-cloud output and reconstruction metric.
        Shares :meth:`occupancy_mask`'s weight pass; the threshold test
        narrows that mask in place on a private copy.
        """
        mask = (occupancy.copy() if occupancy is not None
                else self.occupancy_mask())
        mask &= np.abs(self.tsdf) < threshold
        idx = np.argwhere(mask)
        return (idx.astype(float) + 0.5) * self.voxel_size

    @property
    def allocated_blocks(self) -> int:
        """8³-block count backing the grid (dense: the whole grid).

        The sparse volume reports only the blocks it lazily allocated;
        the dense grid is fully materialised at construction, so the
        telemetry gauge reads the full block grid here.
        """
        per_side = -(-self.resolution // 8)
        return per_side**3

    @property
    def allocated_bytes(self) -> int:
        """Actual bytes held by the voxel fields."""
        return self.tsdf.nbytes + self.weight.nbytes
