"""Fast float32 preprocessing kernels.

Three changes over :mod:`repro.kfusion.preprocessing`:

* the bilateral filter slides window *views* over one zero-padded copy
  of the depth map instead of materialising 25 ``_shift2d`` full copies
  (plus 25 shifted validity masks), with the spatial-weight table
  precomputed once per (radius, sigma) pair;
* all maps are float32 and the heavy per-tap arithmetic runs through
  preallocated workspace buffers (``out=`` everywhere);
* vertex maps reuse the camera's cached pixel-ray grid.

Validity semantics are identical to the reference: the padding ring is
zero, so out-of-frame neighbours are invalid, invalid pixels contribute
nothing, and a pixel with no valid neighbour stays invalid.
"""

from __future__ import annotations

import numpy as np

from ..contracts import contract
from ..errors import ConfigurationError
from ..geometry import PinholeCamera
from ..kfusion.memory import BILATERAL_RADIUS
from .common import pixel_rays_f32
from .workspace import FrameWorkspace

#: Reference bilateral parameters (preprocessing.bilateral_filter).
SIGMA_SPACE = 1.5
SIGMA_DEPTH = 0.05

#: (radius, sigma_space) -> (2r+1, 2r+1) float32 spatial weight table.
_SPATIAL_TABLES: dict[tuple[int, float], np.ndarray] = {}


def spatial_weight_table(radius: int = BILATERAL_RADIUS,
                         sigma_space: float = SIGMA_SPACE) -> np.ndarray:
    """The per-tap spatial Gaussian weights, computed once and cached."""
    key = (radius, sigma_space)
    table = _SPATIAL_TABLES.get(key)
    if table is None:
        d = np.arange(-radius, radius + 1, dtype=np.float32)
        sq = d[:, None] ** 2 + d[None, :] ** 2
        table = np.exp(-sq / np.float32(2.0 * sigma_space * sigma_space))
        table.flags.writeable = False
        # (entries are immutable and identical for equal keys: replay-safe)
        _SPATIAL_TABLES[key] = table
    return table


@contract(depth="H,W:f64")
def bilateral_filter(depth: np.ndarray, ws: FrameWorkspace,
                     radius: int = BILATERAL_RADIUS,
                     sigma_space: float = SIGMA_SPACE,
                     sigma_depth: float = SIGMA_DEPTH) -> np.ndarray:
    """Edge-preserving depth smoothing on a zero-padded float32 image."""
    h, w = depth.shape
    d = ws.buffer("bf_depth", (h, w))
    np.copyto(d, depth, casting="unsafe")

    padded = ws.zeros("bf_padded", (h + 2 * radius, w + 2 * radius))
    padded[radius:radius + h, radius:radius + w] = d

    acc = ws.zeros("bf_acc", (h, w))
    wsum = ws.zeros("bf_wsum", (h, w))
    tap = ws.buffer("bf_tap", (h, w))

    table = spatial_weight_table(radius, sigma_space)
    inv_2sd = np.float32(1.0 / (2.0 * sigma_depth * sigma_depth))
    valid = d > 0.0

    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            window = padded[radius + dy:radius + dy + h,
                            radius + dx:radius + dx + w]
            # tap = w_spatial * exp(-(window - d)^2 * inv_2sd)
            np.subtract(window, d, out=tap)
            np.multiply(tap, tap, out=tap)
            tap *= -inv_2sd
            np.exp(tap, out=tap)
            tap *= table[dy + radius, dx + radius]
            # Invalid neighbours (zero depth, including the padding ring)
            # and invalid centre pixels contribute nothing.
            tap[~((window > 0.0) & valid)] = 0.0
            wsum += tap
            tap *= window
            acc += tap

    out = ws.buffer("bf_out", (h, w))
    low = wsum <= np.float32(1e-12)
    np.maximum(wsum, np.float32(1e-12), out=wsum)
    np.divide(acc, wsum, out=out)
    out[low] = 0.0
    return out


def downsample_f32(depth: np.ndarray, ratio: int,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Valid-aware block average, float32 (reference ``downsample_depth``)."""
    h, w = depth.shape
    if h % ratio or w % ratio:
        raise ConfigurationError(
            f"depth {h}x{w} not divisible by ratio {ratio}"
        )
    blocks = depth.reshape(h // ratio, ratio, w // ratio, ratio)
    valid = blocks > 0.0
    counts = valid.sum(axis=(1, 3), dtype=np.float32)
    sums = np.where(valid, blocks, np.float32(0.0)).sum(
        axis=(1, 3), dtype=np.float32
    )
    result = np.divide(sums, np.maximum(counts, np.float32(1.0)), out=out)
    result[counts <= 0.0] = 0.0
    return result


def build_pyramid(depth: np.ndarray, levels: int,
                  ws: FrameWorkspace) -> list[np.ndarray]:
    """Float32 depth pyramid into workspace buffers, finest first.

    Early-out rules match the reference ``build_pyramid``.
    """
    pyramid = [depth]
    for level in range(1, levels):
        h, w = pyramid[-1].shape
        if h % 2 or w % 2 or h // 2 < 8 or w // 2 < 8:
            break
        out = ws.buffer(f"pyr_d{level}", (h // 2, w // 2))
        pyramid.append(downsample_f32(pyramid[-1], 2, out=out))
    return pyramid


def vertex_normal_pyramid(
    depth_pyramid: list[np.ndarray],
    camera: PinholeCamera,
    ws: FrameWorkspace,
) -> tuple[list[np.ndarray], list[np.ndarray], list[PinholeCamera]]:
    """Per-level float32 vertex/normal maps from cached pixel rays."""
    vertices, normals, cameras = [], [], []
    for level, depth in enumerate(depth_pyramid):
        cam = camera.scaled(2**level)
        if depth.shape != cam.shape:
            raise ConfigurationError(
                f"pyramid level {level} shape {depth.shape} != "
                f"camera {cam.shape}"
            )
        rays = pixel_rays_f32(cam)
        v = ws.buffer(f"pyr_v{level}", (*cam.shape, 3))
        d = ws.buffer(f"pyr_dv{level}", cam.shape)
        np.multiply(depth, np.isfinite(depth) & (depth > 0.0), out=d)
        np.multiply(rays, d[..., None], out=v)
        n = ws.buffer(f"pyr_n{level}", (*cam.shape, 3))
        _normals_f32(v, out=n)
        vertices.append(v)
        normals.append(n)
        cameras.append(cam)
    return vertices, normals, cameras


def _normals_f32(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Float32 central-difference normals (reference semantics)."""
    h, w = v.shape[:2]
    out.fill(0)
    if h < 3 or w < 3:
        return out

    mask = np.any(v != 0.0, axis=-1) & np.all(np.isfinite(v), axis=-1)
    dx = v[1:-1, 2:] - v[1:-1, :-2]
    dy = v[2:, 1:-1] - v[:-2, 1:-1]
    n = np.cross(dy, dx)
    norm = np.linalg.norm(n, axis=-1)

    ok = (
        mask[1:-1, 2:]
        & mask[1:-1, :-2]
        & mask[2:, 1:-1]
        & mask[:-2, 1:-1]
        & mask[1:-1, 1:-1]
        & (norm > 1e-12)
    )
    n /= np.where(norm > 1e-12, norm, np.float32(1.0))[..., None]
    flip = n[..., 2] > 0.0
    n[flip] = -n[flip]
    n[~ok] = 0.0
    out[1:-1, 1:-1] = n
    return out
