"""Volume visualisation (KinectFusion's ``renderVolumeKernel``).

The right panel of the SLAMBench GUI (paper Figure 1) shows the current
TSDF model raycast from the tracked camera with simple diffuse shading.
:func:`render_volume` produces that image; the pipeline publishes it as
the ``model_render`` output when ``render_volume=True`` is configured,
and charges the corresponding kernel cost (the GUI render is part of
SLAMBench's measured per-frame work when enabled).
"""

from __future__ import annotations

import numpy as np

from ..contracts import contract
from ..errors import GeometryError
from ..geometry import PinholeCamera
from .raycast import raycast
from .volume import TSDFVolume


@contract(pose_volume_from_camera="4,4:f64")
def render_volume(
    volume: TSDFVolume,
    camera: PinholeCamera,
    pose_volume_from_camera: np.ndarray,
    mu: float,
    light_dir=(0.3, -0.4, -0.85),
    ambient: float = 0.2,
) -> np.ndarray:
    """Shade the TSDF surface seen from ``pose_volume_from_camera``.

    Returns an ``(H, W)`` float image in [0, 1]; background pixels are 0.
    Shading is Lambertian against a headlight-style directional light
    expressed in the camera frame (so the model reads well regardless of
    the camera's world orientation, as in the reference implementation).
    """
    _, normals = raycast(volume, camera, pose_volume_from_camera, mu)
    flat_n = normals.reshape(-1, 3)
    hit = np.any(flat_n != 0.0, axis=-1)

    light = np.asarray(light_dir, dtype=float)
    norm = np.linalg.norm(light)
    if norm < 1e-12:
        raise GeometryError("light direction must be non-zero")
    light = light / norm

    image = np.zeros(flat_n.shape[0])
    lambert = np.clip(flat_n[hit] @ light, 0.0, 1.0)
    image[hit] = ambient + (1.0 - ambient) * lambert
    return np.clip(image.reshape(camera.shape), 0.0, 1.0)


def depth_to_grayscale(depth: np.ndarray, max_range: float = 6.0) -> np.ndarray:
    """Normalise a depth map to [0, 1] for display (GUI depth panel)."""
    d = np.asarray(depth, dtype=float)
    img = np.clip(d / max_range, 0.0, 1.0)
    img[d <= 0.0] = 0.0
    return img


def ascii_render(image: np.ndarray, width: int = 64) -> str:
    """Tiny ASCII-art rendering of a [0, 1] image (headless GUI).

    Downsamples to ``width`` columns and maps intensity to a character
    ramp — enough to eyeball the reconstructed model in a terminal.
    """
    img = np.asarray(image, dtype=float)
    h, w = img.shape
    step = max(1, w // width)
    small = img[:: 2 * step, ::step]  # terminal cells are ~2x taller
    ramp = " .:-=+*#%@"
    idx = np.clip((small * (len(ramp) - 1)).astype(int), 0, len(ramp) - 1)
    return "\n".join("".join(ramp[i] for i in row) for row in idx)
