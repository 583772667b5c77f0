"""Tests for the Frame container."""

import numpy as np
import pytest

from repro.core import Frame
from repro.errors import DatasetError


def make_frame(**kwargs):
    defaults = dict(index=0, timestamp=0.0, depth=np.ones((6, 8)))
    defaults.update(kwargs)
    return Frame(**defaults)


class TestValidation:
    def test_depth_must_be_2d(self):
        with pytest.raises(DatasetError):
            make_frame(depth=np.ones(5))

    def test_rgb_shape_must_match(self):
        with pytest.raises(DatasetError):
            make_frame(rgb=np.ones((5, 8, 3)))

    def test_pose_must_be_4x4(self):
        with pytest.raises(DatasetError):
            make_frame(ground_truth_pose=np.eye(3))

    def test_valid_frame(self):
        f = make_frame(rgb=np.zeros((6, 8, 3)), ground_truth_pose=np.eye(4))
        assert f.shape == (6, 8)
        assert f.has_ground_truth


class TestBehaviour:
    def test_without_ground_truth_strips(self):
        f = make_frame(ground_truth_pose=np.eye(4))
        stripped = f.without_ground_truth()
        assert stripped.ground_truth_pose is None
        assert stripped.index == f.index
        assert np.array_equal(stripped.depth, f.depth)

    def test_without_ground_truth_noop(self):
        f = make_frame()
        assert f.without_ground_truth() is f

    def test_valid_depth_fraction(self):
        d = np.ones((4, 5))
        d[0, :] = 0.0
        f = make_frame(depth=d)
        assert f.valid_depth_fraction() == pytest.approx(0.75)

    def test_valid_depth_fraction_ignores_non_finite(self):
        d = np.ones((4, 5))
        d[0, :2] = np.inf
        d[0, 2] = np.nan
        d[0, 3] = -1.0
        f = make_frame(depth=d)
        assert f.valid_depth_fraction() == pytest.approx(0.8)

    def test_frames_are_immutable(self):
        f = make_frame()
        with pytest.raises(AttributeError):
            f.index = 3
