"""Unit tests for the pinhole camera model."""

import numpy as np
import pytest

from repro.errors import GeometryError
from repro.geometry import PinholeCamera


class TestConstruction:
    def test_kinect_like_scales_with_resolution(self):
        a = PinholeCamera.kinect_like(640, 480)
        b = PinholeCamera.kinect_like(320, 240)
        assert b.fx == pytest.approx(a.fx / 2)
        assert b.fy == pytest.approx(a.fy / 2)

    def test_from_fov(self):
        cam = PinholeCamera.from_fov(100, 100, 90.0)
        assert cam.fx == pytest.approx(50.0)

    def test_from_fov_rejects_bad_angle(self):
        with pytest.raises(GeometryError):
            PinholeCamera.from_fov(100, 100, 0.0)

    def test_rejects_nonpositive_size(self):
        with pytest.raises(GeometryError):
            PinholeCamera(0, 10, 1, 1, 0, 0)

    def test_rejects_nonpositive_focal(self):
        with pytest.raises(GeometryError):
            PinholeCamera(10, 10, -1, 1, 0, 0)

    def test_matrix(self, camera):
        K = camera.matrix
        assert K[0, 0] == camera.fx
        assert K[1, 2] == camera.cy
        assert K[2, 2] == 1.0


class TestScaling:
    def test_scaled_halves(self, camera):
        half = camera.scaled(2)
        assert half.width == camera.width // 2
        assert half.fx == pytest.approx(camera.fx / 2)

    def test_scaled_identity(self, camera):
        assert camera.scaled(1).shape == camera.shape

    def test_scaled_rejects_indivisible(self):
        cam = PinholeCamera.kinect_like(80, 60)
        with pytest.raises(GeometryError):
            cam.scaled(7)

    def test_scaled_rejects_zero(self, camera):
        with pytest.raises(GeometryError):
            camera.scaled(0)


class TestProjection:
    def test_backproject_project_round_trip(self, camera, rng):
        depth = rng.uniform(0.5, 4.0, size=camera.shape)
        vertices = camera.backproject(depth)
        pixels, valid = camera.project(vertices.reshape(-1, 3))
        assert valid.all()
        uu, vv = np.meshgrid(np.arange(camera.width), np.arange(camera.height))
        expected = np.stack([uu, vv], axis=-1).reshape(-1, 2)
        assert np.allclose(pixels, expected, atol=1e-9)

    def test_backproject_invalid_depth_gives_zero_vertex(self, camera):
        depth = np.zeros(camera.shape)
        depth[10, 10] = -1.0
        depth[5, 5] = np.nan
        v = camera.backproject(depth)
        assert np.all(v == 0.0)

    def test_backproject_shape_mismatch(self, camera):
        with pytest.raises(GeometryError):
            camera.backproject(np.zeros((10, 10)))

    def test_project_behind_camera_invalid(self, camera):
        pts = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 0.0]])
        _, valid = camera.project(pts)
        assert not valid.any()

    @pytest.mark.filterwarnings("error")
    def test_project_tiny_depth_invalid_without_overflow(self, camera):
        # x / 1e-310 overflows; the division is skipped where z <= 1e-9.
        pts = np.array([[1.0, 1.0, 1e-310], [0.1, 0.1, 1.0]])
        pixels, valid = camera.project(pts)
        assert valid.tolist() == [False, True]
        assert pixels[1, 0] == camera.fx * 0.1 / 1.0 + camera.cx

    def test_project_out_of_frame_invalid(self, camera):
        # A point far off-axis lands outside the image.
        pts = np.array([[100.0, 0.0, 1.0]])
        _, valid = camera.project(pts)
        assert not valid.any()

    def test_center_pixel_ray(self, camera):
        rays = camera.pixel_rays()
        # The ray through the principal point is the optical axis.
        cy, cx = int(round(camera.cy)), int(round(camera.cx))
        assert abs(rays[cy, cx, 0]) < 0.02
        assert abs(rays[cy, cx, 1]) < 0.02
        assert rays[cy, cx, 2] == 1.0

    def test_pixel_count(self, camera):
        assert camera.pixel_count == camera.width * camera.height
