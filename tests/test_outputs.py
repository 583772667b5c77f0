"""Tests for the output manager."""

import numpy as np
import pytest

from repro.core import OutputKind, OutputManager
from repro.errors import ConfigurationError


class TestDeclaration:
    def test_declare_and_get(self):
        om = OutputManager()
        om.declare("pose", OutputKind.POSE)
        assert "pose" in om
        assert om.get("pose").kind is OutputKind.POSE

    def test_double_declare_rejected(self):
        om = OutputManager()
        om.declare("pose", OutputKind.POSE)
        with pytest.raises(ConfigurationError):
            om.declare("pose", OutputKind.POSE)

    def test_get_undeclared_rejected(self):
        with pytest.raises(ConfigurationError):
            OutputManager().get("pose")

    def test_names(self):
        om = OutputManager()
        om.declare("a", OutputKind.SCALAR)
        om.declare("b", OutputKind.FRAME)
        assert om.names() == ["a", "b"]


class TestValues:
    def test_set_and_read(self):
        om = OutputManager()
        out = om.declare("x", OutputKind.SCALAR)
        out.set(3.5, frame_index=7)
        assert om.get("x").value == 3.5
        assert om.get("x").updated_at_frame == 7

    def test_pose_convenience(self):
        om = OutputManager()
        om.set_pose(np.eye(4), 0)
        assert np.array_equal(om.pose(), np.eye(4))

    def test_pose_unset_raises(self):
        om = OutputManager()
        om.declare("pose", OutputKind.POSE)
        with pytest.raises(ConfigurationError):
            om.pose()


class TestOnDemand:
    def test_producer_runs_only_when_read_and_once(self):
        calls = []

        def producer():
            calls.append(1)
            return np.arange(3)

        out = OutputManager().declare("cloud", OutputKind.POINTCLOUD)
        out.publish(producer, frame_index=4)
        assert out.updated_at_frame == 4
        assert calls == []
        assert np.array_equal(out.value, np.arange(3))
        assert np.array_equal(out.value, np.arange(3))
        assert calls == [1]

    def test_set_replaces_pending_producer(self):
        out = OutputManager().declare("x", OutputKind.SCALAR)
        out.publish(lambda: pytest.fail("replaced producer ran"), 1)
        out.set(2.5, frame_index=2)
        assert out.value == 2.5
        assert out.updated_at_frame == 2

    def test_failing_producer_stays_pending(self):
        def stale():
            raise ConfigurationError("stale")

        out = OutputManager().declare("x", OutputKind.SCALAR)
        out.publish(stale, 0)
        for _ in range(2):
            with pytest.raises(ConfigurationError):
                out.value
