"""Property-based tests for camera projection invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.geometry import PinholeCamera

cameras = st.builds(
    PinholeCamera.kinect_like,
    width=st.sampled_from([32, 64, 80, 160]),
    height=st.sampled_from([24, 48, 60, 120]),
)

depths = st.floats(min_value=0.3, max_value=6.0)


@given(cam=cameras, z=depths)
@settings(max_examples=60, deadline=None)
def test_backproject_project_identity(cam, z):
    depth = np.full(cam.shape, z)
    vertices = cam.backproject(depth)
    pixels, valid = cam.project(vertices.reshape(-1, 3))
    assert valid.all()
    uu, vv = np.meshgrid(np.arange(cam.width), np.arange(cam.height))
    expected = np.stack([uu, vv], axis=-1).reshape(-1, 2)
    assert np.allclose(pixels, expected, atol=1e-6)


@given(cam=cameras, z=depths, factor=st.sampled_from([2, 4]))
@settings(max_examples=60, deadline=None)
def test_scaling_preserves_rays(cam, z, factor):
    """A pixel in the scaled camera sees the same ray as the block it
    covers in the full camera (up to the half-pixel grid offset)."""
    if cam.width % factor or cam.height % factor:
        return
    small = cam.scaled(factor)
    # The principal ray direction is identical.
    ray_full = cam.pixel_rays()[cam.height // 2, cam.width // 2]
    ray_small = small.pixel_rays()[small.height // 2, small.width // 2]
    assert np.allclose(ray_full, ray_small, atol=0.1)
    # Field of view is preserved: corner rays match closely.
    corner_full = cam.pixel_rays()[0, 0]
    corner_small = small.pixel_rays()[0, 0]
    assert np.allclose(corner_full, corner_small, atol=0.1)


@given(cam=cameras,
       points=arrays(np.float64, (16, 3),
                     elements=st.floats(min_value=-4, max_value=4,
                                        allow_nan=False)))
@settings(max_examples=60, deadline=None)
@pytest.mark.filterwarnings("error")
def test_projection_flags_are_consistent(cam, points):
    pixels, valid = cam.project(points)
    # Valid points are in front of the camera and inside the image.
    eps = 1e-6
    for p, (u, v), ok in zip(points, pixels, valid):
        if ok:
            assert p[2] > 0
            assert -eps <= u <= cam.width - 1 + eps
            assert -eps <= v <= cam.height - 1 + eps
