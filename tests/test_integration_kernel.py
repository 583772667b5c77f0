"""Tests for TSDF integration (fusion of depth frames)."""

import numpy as np
import pytest

from repro.geometry import PinholeCamera, se3
from repro.kfusion import TSDFVolume
from repro.kfusion.integration import MAX_WEIGHT, integrate
from repro.kfusion.params import KFusionParams
from repro.perf import get_kernel_backend


@pytest.fixture()
def cam():
    return PinholeCamera.kinect_like(64, 48)


@pytest.fixture()
def pose():
    # Camera at the front-centre of a 2 m volume looking along +z.
    return se3.make_pose(np.eye(3), [1.0, 1.0, 0.0])


def wall_depth(cam, z=1.0):
    return np.full(cam.shape, z)


class TestIntegrate:
    def test_updates_voxels(self, cam, pose):
        v = TSDFVolume(32, 2.0)
        n = integrate(v, wall_depth(cam), cam, pose, mu=0.1)
        assert n > 0
        assert v.occupied_fraction() > 0.0

    def test_zero_crossing_at_surface(self, cam, pose):
        v = TSDFVolume(32, 2.0)
        integrate(v, wall_depth(cam, 1.0), cam, pose, mu=0.2)
        # Sample along the optical axis: in front of the wall the TSDF is
        # positive, behind it negative.
        front = np.array([[1.0, 1.0, 0.8]])
        behind = np.array([[1.0, 1.0, 1.15]])
        vf, okf = v.sample_trilinear(front)
        vb, okb = v.sample_trilinear(behind)
        assert okf.all() and vf[0] > 0.5
        assert okb.all() and vb[0] < 0.0

    def test_occluded_voxels_untouched(self, cam, pose):
        v = TSDFVolume(32, 2.0)
        integrate(v, wall_depth(cam, 1.0), cam, pose, mu=0.1)
        # Deep behind the wall: unobserved.
        _, ok = v.sample_trilinear(np.array([[1.0, 1.0, 1.8]]))
        assert not ok.any()

    def test_invalid_depth_ignored(self, cam, pose):
        v = TSDFVolume(32, 2.0)
        n = integrate(v, np.zeros(cam.shape), cam, pose, mu=0.1)
        assert n == 0

    def test_running_average_converges(self, cam, pose):
        va = TSDFVolume(32, 2.0)
        integrate(va, wall_depth(cam, 1.0), cam, pose, mu=0.2)
        integrate(va, wall_depth(cam, 1.1), cam, pose, mu=0.2)
        probe = np.array([[1.0, 1.0, 1.02]])
        two, _ = va.sample_trilinear(probe)
        vb = TSDFVolume(32, 2.0)
        integrate(vb, wall_depth(cam, 1.0), cam, pose, mu=0.2)
        one, _ = vb.sample_trilinear(probe)
        # After seeing the 1.1 m wall, the field at z=1.02 moves towards
        # "in front of the surface" (larger TSDF).
        assert two[0] > one[0]

    def test_weight_capped(self, cam, pose):
        v = TSDFVolume(16, 2.0)
        for _ in range(5):
            integrate(v, wall_depth(cam, 1.0), cam, pose, mu=0.3)
        assert v.weight.max() <= MAX_WEIGHT

    def test_camera_outside_view_no_update(self, cam):
        v = TSDFVolume(16, 2.0)
        # Looking away from the volume: -z direction.
        away = se3.make_pose(se3.so3_exp([0.0, np.pi, 0.0]), [1.0, 1.0, -1.0])
        n = integrate(v, wall_depth(cam, 1.0), cam, away, mu=0.1)
        assert n == 0


@pytest.mark.parametrize("backend", ["reference", "fast", "sparse"])
def test_saturated_weight_keeps_tsdf_bounded(cam, pose, backend):
    """Past MAX_WEIGHT the running average stays a convex mix: fusing one
    wall 150 times keeps every voxel in [-1, 1] on every backend (dividing
    by the capped weight would add d/100 per update and drift past 1)."""
    kernels = get_kernel_backend(backend)
    params = KFusionParams(volume_resolution=16, volume_size=2.0,
                           mu_distance=0.3)
    volume = kernels.make_volume(16, 2.0)
    ws = kernels.make_workspace(cam, params, 3)
    dtype = np.float64 if backend == "reference" else np.float32
    depth = wall_depth(cam, 1.0).astype(dtype)
    for _ in range(150):
        kernels.integrate(volume, depth, cam, pose, params.mu_distance, ws)
    if backend == "sparse":
        tsdf, weight = volume.densify()
    else:
        tsdf, weight = volume.tsdf, volume.weight
    assert weight.max() == MAX_WEIGHT
    assert tsdf.min() >= -1.0 and tsdf.max() <= 1.0
