"""Pinhole camera model and intrinsics pyramids.

The :class:`PinholeCamera` mirrors the camera description SLAMBench carries
around (fx, fy, cx, cy plus image size).  KinectFusion processes frames at a
sequence of resolutions (the *compute-size ratio* downsample followed by the
ICP pyramid); :meth:`PinholeCamera.scaled` produces the intrinsics for each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..contracts import contract
from ..errors import GeometryError


@dataclass(frozen=True)
class PinholeCamera:
    """An ideal pinhole camera.

    Attributes:
        width: image width in pixels.
        height: image height in pixels.
        fx, fy: focal lengths in pixels.
        cx, cy: principal point in pixels.
    """

    width: int
    height: int
    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise GeometryError(
                f"camera size must be positive, got {self.width}x{self.height}"
            )
        if self.fx <= 0 or self.fy <= 0:
            raise GeometryError("focal lengths must be positive")

    @classmethod
    def from_fov(cls, width: int, height: int, fov_x_deg: float) -> "PinholeCamera":
        """Build a camera from a horizontal field of view in degrees."""
        if not 0.0 < fov_x_deg < 180.0:
            raise GeometryError(f"fov must be in (0, 180), got {fov_x_deg}")
        fx = (width / 2.0) / np.tan(np.radians(fov_x_deg) / 2.0)
        return cls(
            width=width,
            height=height,
            fx=float(fx),
            fy=float(fx),
            cx=(width - 1) / 2.0,
            cy=(height - 1) / 2.0,
        )

    @classmethod
    def kinect_like(cls, width: int = 320, height: int = 240) -> "PinholeCamera":
        """Kinect-v1 intrinsics scaled to the requested resolution.

        The reference values are SLAMBench's 640x480 Kinect calibration
        (fx=fy=481.2 scaled by aspect, cx=319.5, cy=239.5).
        """
        sx = width / 640.0
        sy = height / 480.0
        return cls(
            width=width,
            height=height,
            fx=531.15 * sx,
            fy=531.15 * sy,
            cx=(width - 1) / 2.0,
            cy=(height - 1) / 2.0,
        )

    @property
    def matrix(self) -> np.ndarray:
        """3x3 intrinsic matrix K."""
        return np.array(
            [
                [self.fx, 0.0, self.cx],
                [0.0, self.fy, self.cy],
                [0.0, 0.0, 1.0],
            ]
        )

    @property
    def shape(self) -> tuple[int, int]:
        """Image shape as ``(height, width)``, NumPy order."""
        return (self.height, self.width)

    @property
    def pixel_count(self) -> int:
        return self.width * self.height

    def scaled(self, factor: int) -> "PinholeCamera":
        """Intrinsics for an image downsampled by an integer ``factor``."""
        if factor < 1:
            raise GeometryError(f"scale factor must be >= 1, got {factor}")
        if self.width % factor or self.height % factor:
            raise GeometryError(
                f"{self.width}x{self.height} not divisible by factor {factor}"
            )
        return PinholeCamera(
            width=self.width // factor,
            height=self.height // factor,
            fx=self.fx / factor,
            fy=self.fy / factor,
            cx=self.cx / factor,
            cy=self.cy / factor,
        )

    def pixel_rays(self) -> np.ndarray:
        """Unit-z ray directions for every pixel, shape ``(H, W, 3)``.

        Rays are in the camera frame with z=1; multiply by depth to get the
        camera-frame vertex for each pixel.

        The ray grid depends only on the (frozen) intrinsics, so it is
        computed once per camera instance and cached; the returned array
        is marked read-only — copy before mutating.
        """
        cached = self.__dict__.get("_pixel_rays")
        if cached is not None:
            return cached
        u = np.arange(self.width, dtype=float)
        v = np.arange(self.height, dtype=float)
        uu, vv = np.meshgrid(u, v)
        x = (uu - self.cx) / self.fx
        y = (vv - self.cy) / self.fy
        rays = np.stack([x, y, np.ones_like(x)], axis=-1)
        rays.flags.writeable = False
        object.__setattr__(self, "_pixel_rays", rays)
        return rays

    @contract(depth="H,W:f64")
    def backproject(self, depth: np.ndarray) -> np.ndarray:
        """Depth map ``(H, W)`` to camera-frame vertex map ``(H, W, 3)``.

        Invalid depths (``<= 0`` or non-finite) produce zero vertices, the
        convention the KinectFusion kernels use downstream.
        """
        depth = np.asarray(depth, dtype=float)
        if depth.shape != self.shape:
            raise GeometryError(
                f"depth shape {depth.shape} does not match camera {self.shape}"
            )
        rays = self.pixel_rays()
        valid = np.isfinite(depth) & (depth > 0.0)
        d = np.where(valid, depth, 0.0)
        return rays * d[..., None]

    @contract(points="...,3:f64")
    def project(self, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Project camera-frame points ``(..., 3)`` to pixels.

        Returns:
            ``(pixels, valid)`` where ``pixels`` is ``(..., 2)`` (u, v) and
            ``valid`` marks points in front of the camera that land inside
            the image.
        """
        points = np.asarray(points, dtype=float)
        z = points[..., 2]
        # Divide only in front of the camera: a tiny or non-positive z
        # overflows, and such points are invalid anyway (their pixels
        # read the principal point).
        front = z > 1e-9
        with np.errstate(invalid="ignore"):
            u = np.divide(self.fx * points[..., 0], z, where=front,
                          out=np.zeros_like(z)) + self.cx
            v = np.divide(self.fy * points[..., 1], z, where=front,
                          out=np.zeros_like(z)) + self.cy
        eps = 1e-6  # tolerate round-off at the image border
        valid = (
            front
            & np.isfinite(u)
            & np.isfinite(v)
            & (u >= -eps)
            & (u <= self.width - 1 + eps)
            & (v >= -eps)
            & (v <= self.height - 1 + eps)
        )
        pixels = np.stack([u, v], axis=-1)
        return pixels, valid
