"""Triangle-mesh extraction from the TSDF (marching tetrahedra).

SLAMBench's "accuracy of the generated 3D model" ultimately refers to the
reconstructed surface; this module extracts it as a triangle mesh.  We use
marching *tetrahedra* rather than marching cubes: each voxel cell is split
into six tetrahedra, and each tetrahedron's sign pattern yields zero, one
or two triangles with vertices linearly interpolated onto the zero
crossing.  Tetrahedra need no 256-entry case tables and have no ambiguous
configurations, at the cost of slightly more triangles.

The implementation is vectorised over all cells (one pass per
tetrahedron case), so extracting a 64^3 volume takes well under a second.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DatasetError
from .sparse import SparseTSDFVolume
from .volume import TSDFVolume

#: The six tetrahedra of a cube, as corner indices into the cube's
#: (z, y, x)-bit corner numbering: corner k has offset
#: ((k >> 2) & 1, (k >> 1) & 1, k & 1) in (x, y, z)... we use the
#: convention offset = (k & 1, (k >> 1) & 1, (k >> 2) & 1) for (i, j, k).
#: This is the standard diagonal (0,7) decomposition.
_TETRAHEDRA = (
    (0, 5, 1, 7),
    (0, 1, 3, 7),
    (0, 3, 2, 7),
    (0, 2, 6, 7),
    (0, 6, 4, 7),
    (0, 4, 5, 7),
)

_CORNER_OFFSETS = np.array(
    [[(k >> 0) & 1, (k >> 1) & 1, (k >> 2) & 1] for k in range(8)],
    dtype=float,
)


@dataclass(frozen=True)
class TriangleMesh:
    """An indexed triangle mesh in the volume frame (metres)."""

    vertices: np.ndarray  # (V, 3)
    triangles: np.ndarray  # (T, 3) int indices

    def __post_init__(self):
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise DatasetError("vertices must be (V, 3)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise DatasetError("triangles must be (T, 3)")
        if len(self.triangles) and self.triangles.max() >= len(self.vertices):
            raise DatasetError("triangle index out of range")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    def surface_area(self) -> float:
        """Total area of all triangles (m^2)."""
        if not len(self.triangles):
            return 0.0
        a = self.vertices[self.triangles[:, 0]]
        b = self.vertices[self.triangles[:, 1]]
        c = self.vertices[self.triangles[:, 2]]
        cross = np.cross(b - a, c - a)
        return float(0.5 * np.linalg.norm(cross, axis=-1).sum())

    def triangle_centroids(self) -> np.ndarray:
        """Centroid of every triangle, ``(T, 3)``."""
        if not len(self.triangles):
            return np.empty((0, 3))
        return self.vertices[self.triangles].mean(axis=1)

    def save_obj(self, path: str, comment: str = "") -> None:
        """Write the mesh as a Wavefront OBJ file (1-based indices)."""
        with open(path, "w") as f:
            if comment:
                f.write(f"# {comment}\n")
            for v in self.vertices:
                f.write(f"v {v[0]:.6f} {v[1]:.6f} {v[2]:.6f}\n")
            for t in self.triangles:
                f.write(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}\n")


def load_obj(path: str) -> TriangleMesh:
    """Read a (vertices + triangular faces only) OBJ file."""
    vertices, triangles = [], []
    try:
        with open(path) as f:
            for line_no, line in enumerate(f, 1):
                parts = line.split()
                if not parts or parts[0].startswith("#"):
                    continue
                if parts[0] == "v":
                    if len(parts) < 4:
                        raise DatasetError(f"{path}:{line_no}: short vertex")
                    vertices.append([float(x) for x in parts[1:4]])
                elif parts[0] == "f":
                    if len(parts) != 4:
                        raise DatasetError(
                            f"{path}:{line_no}: only triangles supported"
                        )
                    triangles.append(
                        [int(p.split("/")[0]) - 1 for p in parts[1:4]]
                    )
    except OSError as exc:
        raise DatasetError(f"cannot read OBJ {path}: {exc}") from exc
    if not vertices:
        raise DatasetError(f"{path}: no vertices")
    return TriangleMesh(
        vertices=np.asarray(vertices, dtype=float),
        triangles=np.asarray(triangles, dtype=int).reshape(-1, 3),
    )


def extract_mesh(volume: TSDFVolume | SparseTSDFVolume,
                 max_triangles: int | None = None) -> TriangleMesh:
    """Extract the zero level set of an observed TSDF as a mesh.

    Cells are only meshed where *all eight* corners were observed
    (non-zero weight) — unobserved space carries no surface evidence.

    Args:
        volume: the TSDF volume, dense or sparse (read through its
            ``densify()``).
        max_triangles: optional cap (uniform subsample) for huge meshes.
    """
    r = volume.resolution
    tsdf, weight = volume.densify()
    tsdf = tsdf.astype(float)
    observed = weight > 0.0

    # Corner values for every cell, shape (r-1, r-1, r-1, 8).
    def corner(field, k):
        dx, dy, dz = int(_CORNER_OFFSETS[k, 0]), int(_CORNER_OFFSETS[k, 1]), \
            int(_CORNER_OFFSETS[k, 2])
        return field[dx : r - 1 + dx, dy : r - 1 + dy, dz : r - 1 + dz]

    values = np.stack([corner(tsdf, k) for k in range(8)], axis=-1)
    valid = np.stack([corner(observed, k) for k in range(8)], axis=-1).all(
        axis=-1
    )

    # Candidate cells: observed and straddling the zero level.
    signs = values < 0.0
    straddle = valid & signs.any(axis=-1) & (~signs).any(axis=-1)
    cells = np.argwhere(straddle)
    if len(cells) == 0:
        return TriangleMesh(vertices=np.empty((0, 3)),
                            triangles=np.empty((0, 3), dtype=int))

    cell_values = values[straddle]  # (N, 8)
    base = cells.astype(float)  # cell origin in voxel units

    triangles = []
    for tet in _TETRAHEDRA:
        v = cell_values[:, tet]  # (N, 4)
        neg = v < 0.0
        n_neg = neg.sum(axis=1)

        # Case A: one corner on one side (1 or 3 negatives) -> 1 triangle.
        for flip in (False, True):
            inside = ~neg if flip else neg
            lone = inside.sum(axis=1) == 1
            if not lone.any():
                continue
            idx = np.flatnonzero(lone)
            apex = np.argmax(inside[idx], axis=1)
            others = np.array(
                [[a for a in range(4) if a != ap] for ap in apex]
            )
            tri = _interp_triangle(v[idx], apex, others, base[idx], tet)
            triangles.append(tri)

        # Case B: two corners on each side -> a quad -> 2 triangles.
        two = n_neg == 2
        if two.any():
            idx = np.flatnonzero(two)
            vv = v[idx]
            nn = neg[idx]
            # The two negative corners (a0, a1) and positive (b0, b1).
            order = np.argsort(~nn, axis=1, kind="stable")
            a0, a1 = order[:, 0], order[:, 1]
            b0, b1 = order[:, 2], order[:, 3]
            p00 = _edge_point(vv, a0, b0, base[idx], tet)
            p01 = _edge_point(vv, a0, b1, base[idx], tet)
            p10 = _edge_point(vv, a1, b0, base[idx], tet)
            p11 = _edge_point(vv, a1, b1, base[idx], tet)
            triangles.append(np.stack([p00, p01, p11], axis=1))
            triangles.append(np.stack([p00, p11, p10], axis=1))

    if not triangles:
        return TriangleMesh(vertices=np.empty((0, 3)),
                            triangles=np.empty((0, 3), dtype=int))
    tri_pts = np.concatenate(triangles, axis=0)  # (T, 3, 3) voxel units

    if max_triangles is not None and len(tri_pts) > max_triangles:
        step = int(np.ceil(len(tri_pts) / max_triangles))
        tri_pts = tri_pts[::step]

    # Deduplicate vertices on a fine grid to build the index buffer.
    flat = tri_pts.reshape(-1, 3)
    keys = np.round(flat * 256.0).astype(np.int64)
    _, unique_idx, inverse = np.unique(
        keys, axis=0, return_index=True, return_inverse=True
    )
    vertices = flat[unique_idx] * volume.voxel_size
    # Voxel coordinates measure voxel centres: shift by half a voxel.
    vertices += 0.5 * volume.voxel_size
    faces = inverse.reshape(-1, 3)

    # Drop degenerate triangles (two corners collapsed by deduplication).
    ok = (
        (faces[:, 0] != faces[:, 1])
        & (faces[:, 1] != faces[:, 2])
        & (faces[:, 0] != faces[:, 2])
    )
    return TriangleMesh(vertices=vertices, triangles=faces[ok])


def _edge_point(values, a, b, base, tet):
    """Zero crossing on edge (a, b) of each tetrahedron, voxel units."""
    rows = np.arange(len(values))
    va = values[rows, a]
    vb = values[rows, b]
    denom = va - vb
    denom = np.where(np.abs(denom) > 1e-12, denom, 1e-12)
    t = np.clip(va / denom, 0.0, 1.0)[:, None]
    ca = _CORNER_OFFSETS[np.asarray(tet)[a]]
    cb = _CORNER_OFFSETS[np.asarray(tet)[b]]
    return base + ca + t * (cb - ca)


def _interp_triangle(values, apex, others, base, tet):
    """One triangle from an apex corner against three opposite corners."""
    pts = [
        _edge_point(values, apex, others[:, j], base, tet) for j in range(3)
    ]
    return np.stack(pts, axis=1)  # (N, 3, 3)
