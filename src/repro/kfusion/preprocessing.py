"""KinectFusion preprocessing kernels.

The preprocessing stage mirrors the first kernels of the reference
implementation:

* ``mm2meters`` + downsample — here, downsampling by the compute-size
  ratio (our depth is already in metres),
* ``bilateral_filter`` — edge-preserving smoothing of the depth map,
* ``half_sample`` — build the 3-level depth pyramid,
* ``depth2vertex`` / ``vertex2normal`` — per-level vertex and normal maps.

Each function is pure; the pipeline composes them and accounts their costs
via :mod:`repro.kfusion.kernels`.
"""

from __future__ import annotations

import numpy as np

from ..contracts import contract
from ..errors import ConfigurationError
from ..geometry import PinholeCamera, normals_from_vertices


@contract(depth="H,W:f64")
def downsample_depth(depth: np.ndarray, ratio: int) -> np.ndarray:
    """Block-subsample a depth map by the compute-size ratio.

    The reference implementation averages valid pixels in each ``ratio x
    ratio`` block; invalid (zero) pixels are excluded from the average and
    a block with no valid pixel stays invalid.
    """
    if ratio < 1:
        raise ConfigurationError(f"compute_size_ratio must be >= 1, got {ratio}")
    depth = np.asarray(depth, dtype=float)
    if ratio == 1:
        return depth.copy()
    h, w = depth.shape
    if h % ratio or w % ratio:
        raise ConfigurationError(
            f"depth {h}x{w} not divisible by compute_size_ratio {ratio}"
        )
    blocks = depth.reshape(h // ratio, ratio, w // ratio, ratio)
    valid = blocks > 0.0
    counts = valid.sum(axis=(1, 3))
    sums = np.where(valid, blocks, 0.0).sum(axis=(1, 3))
    with np.errstate(invalid="ignore"):
        out = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    return out


@contract(depth="H,W:f64")
def bilateral_filter(
    depth: np.ndarray,
    radius: int = 2,
    sigma_space: float = 1.5,
    sigma_depth: float = 0.05,
) -> np.ndarray:
    """Edge-preserving depth smoothing (vectorised shifted-window form).

    For each pixel, neighbours within ``radius`` contribute with a spatial
    Gaussian weight times a range Gaussian on the depth difference; invalid
    neighbours contribute nothing.  Matches KinectFusion's
    ``bilateralFilterKernel`` semantics.
    """
    depth = np.asarray(depth, dtype=float)
    valid = depth > 0.0
    acc = np.zeros_like(depth)
    weight = np.zeros_like(depth)
    inv_2ss = 1.0 / (2.0 * sigma_space * sigma_space)
    inv_2sd = 1.0 / (2.0 * sigma_depth * sigma_depth)

    for dy in range(-radius, radius + 1):
        for dx in range(-radius, radius + 1):
            w_spatial = np.exp(-(dx * dx + dy * dy) * inv_2ss)
            shifted = _shift2d(depth, dy, dx)
            # Shift the boolean mask directly; zero-padding is False, so
            # out-of-frame neighbours stay invalid (no float round trip).
            shifted_valid = _shift2d(valid, dy, dx)
            diff = shifted - depth
            w = w_spatial * np.exp(-(diff * diff) * inv_2sd)
            w = np.where(shifted_valid & valid, w, 0.0)
            acc += w * shifted
            weight += w

    out = np.where(weight > 1e-12, acc / np.maximum(weight, 1e-12), 0.0)
    return out


def _shift2d(a: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Shift a 2-D array, padding with zeros (no wrap-around)."""
    out = np.zeros_like(a)
    h, w = a.shape
    ys = slice(max(dy, 0), min(h + dy, h))
    xs = slice(max(dx, 0), min(w + dx, w))
    yt = slice(max(-dy, 0), min(h - dy, h))
    xt = slice(max(-dx, 0), min(w - dx, w))
    out[ys, xs] = a[yt, xt]
    return out


def half_sample(depth: np.ndarray) -> np.ndarray:
    """Halve the resolution of a depth map (valid-aware 2x2 block average)."""
    h, w = depth.shape
    if h % 2 or w % 2:
        raise ConfigurationError(f"cannot half-sample odd shape {depth.shape}")
    return downsample_depth(depth, 2)


def build_pyramid(depth: np.ndarray, levels: int = 3) -> list[np.ndarray]:
    """Depth pyramid, finest first. Level k has resolution / 2**k.

    Stops early (returning fewer levels) once a level's resolution becomes
    odd or degenerately small, so aggressive compute-size ratios still work
    on small inputs.
    """
    if levels < 1:
        raise ConfigurationError(f"pyramid needs >= 1 level, got {levels}")
    pyramid = [np.asarray(depth, dtype=float)]
    for _ in range(levels - 1):
        h, w = pyramid[-1].shape
        if h % 2 or w % 2 or h // 2 < 8 or w // 2 < 8:
            break
        pyramid.append(half_sample(pyramid[-1]))
    return pyramid


def vertex_normal_pyramid(
    depth_pyramid: list[np.ndarray], camera: PinholeCamera
) -> tuple[list[np.ndarray], list[np.ndarray], list[PinholeCamera]]:
    """Per-level camera-frame vertex and normal maps plus scaled intrinsics.

    ``camera`` describes level 0 (the compute resolution).
    """
    vertices, normals, cameras = [], [], []
    for level, depth in enumerate(depth_pyramid):
        cam = camera.scaled(2**level)
        if depth.shape != cam.shape:
            raise ConfigurationError(
                f"pyramid level {level} shape {depth.shape} != camera {cam.shape}"
            )
        v = cam.backproject(depth)
        vertices.append(v)
        normals.append(normals_from_vertices(v))
        cameras.append(cam)
    return vertices, normals, cameras
