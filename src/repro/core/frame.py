"""Frame containers flowing from datasets into SLAM systems.

A :class:`Frame` bundles the synchronised sensor data for one timestamp:
the depth image (metres, 0 = invalid), an optional RGB image, and the
ground-truth camera-to-world pose when the dataset has one.  SLAM systems
must never read ``ground_truth_pose`` — it is reserved for the metric
layer; the harness enforces this by handing algorithms a stripped copy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..errors import DatasetError


@dataclass(frozen=True)
class Frame:
    """One synchronised RGB-D frame.

    Attributes:
        index: zero-based frame number within its sequence.
        timestamp: seconds since sequence start.
        depth: ``(H, W)`` float metres, 0 marks invalid pixels.
        rgb: optional ``(H, W, 3)`` float image in [0, 1].
        ground_truth_pose: optional 4x4 camera-to-world pose.
    """

    index: int
    timestamp: float
    depth: np.ndarray
    rgb: np.ndarray | None = None
    ground_truth_pose: np.ndarray | None = None

    def __post_init__(self):
        depth = np.asarray(self.depth, dtype=float)
        if depth.ndim != 2:
            raise DatasetError(f"depth must be 2-D, got shape {depth.shape}")
        object.__setattr__(self, "depth", depth)
        if self.rgb is not None:
            rgb = np.asarray(self.rgb, dtype=float)
            if rgb.shape != depth.shape + (3,):
                raise DatasetError(
                    f"rgb shape {rgb.shape} does not match depth {depth.shape}"
                )
            object.__setattr__(self, "rgb", rgb)
        if self.ground_truth_pose is not None:
            pose = np.asarray(self.ground_truth_pose, dtype=float)
            if pose.shape != (4, 4):
                raise DatasetError("ground_truth_pose must be 4x4")
            object.__setattr__(self, "ground_truth_pose", pose)

    @property
    def shape(self) -> tuple[int, int]:
        return self.depth.shape

    @property
    def has_ground_truth(self) -> bool:
        return self.ground_truth_pose is not None

    def without_ground_truth(self) -> "Frame":
        """Copy of this frame with the ground-truth pose removed.

        The harness feeds these to algorithms so no SLAM system can cheat.
        """
        if self.ground_truth_pose is None:
            return self
        return replace(self, ground_truth_pose=None)

    def valid_depth_fraction(self) -> float:
        """Fraction of pixels carrying a valid (finite, positive) depth."""
        valid = np.isfinite(self.depth) & (self.depth > 0.0)
        return float(np.count_nonzero(valid)) / self.depth.size
