"""Tests for the measured evaluator (real pipeline in the loop)."""

import pytest

from repro.errors import OptimizationError
from repro.hypermapper import MeasuredEvaluator, kfusion_design_space
from repro.platforms import PlatformConfig


@pytest.fixture(scope="module")
def evaluator(tiny_sequence, odroid):
    return MeasuredEvaluator(
        tiny_sequence, odroid, PlatformConfig(backend="opencl")
    )


def good_config():
    cfg = kfusion_design_space().default_configuration()
    cfg.update({"volume_resolution": 128, "volume_size": 5.0,
                "integration_rate": 1})
    return cfg


class TestMeasuredEvaluator:
    def test_good_config_tracks(self, evaluator):
        e = evaluator.evaluate(good_config())
        assert not e.failed
        assert e.max_ate_m < 0.05
        assert e.runtime_s > 0
        assert e.power_w > 0

    def test_cache_hits(self, evaluator):
        cfg = dict(good_config(), mu_distance=0.09)  # unique to this test
        before = evaluator.evaluations
        a = evaluator.evaluate(cfg)
        b = evaluator.evaluate(cfg)
        assert a is b
        assert evaluator.evaluations == before + 1

    def test_invalid_corner_reported_not_raised(self, evaluator):
        # compute_size_ratio=8 on an 80x60 sequence is an invalid corner of
        # the space; the evaluator must flag it, not crash the search.
        cfg = dict(good_config(), compute_size_ratio=8)
        e = evaluator.evaluate(cfg)
        assert e.failed
        assert e.max_ate_m == float("inf")

    def test_requires_ground_truth(self, tiny_sequence, odroid):
        from repro.core import Frame, SensorSuite
        from repro.datasets import InMemorySequence
        import numpy as np

        frames = [Frame(index=0, timestamp=0.0, depth=np.ones((60, 80)))]
        sensors = SensorSuite(depth=tiny_sequence.sensors.depth)
        seq = InMemorySequence("no_gt", sensors, frames)
        with pytest.raises(OptimizationError):
            MeasuredEvaluator(seq, odroid)

    def test_coarse_volume_cheaper_than_fine(self, evaluator):
        fine = evaluator.evaluate(good_config())
        coarse = evaluator.evaluate(dict(good_config(),
                                         volume_resolution=48))
        assert coarse.runtime_s < fine.runtime_s


@pytest.mark.parametrize("overrides", [
    {},
    {"volume_resolution": 64, "integration_rate": 2},
    {"volume_resolution": 48, "compute_size_ratio": 2, "mu_distance": 0.2},
])
def test_sparse_and_fast_objectives_bit_equal(evaluator, overrides):
    """The default sparse backend reproduces its dense oracle's
    objectives exactly, so switching the default moves no DSE result."""
    cfg = dict(good_config(), **overrides)
    fast = evaluator.evaluate(dict(cfg, kernel_backend="fast")).to_dict()
    sparse = evaluator.evaluate(dict(cfg, kernel_backend="sparse")).to_dict()
    assert fast.pop("configuration")["kernel_backend"] == "fast"
    assert sparse.pop("configuration")["kernel_backend"] == "sparse"
    assert not fast["failed"]
    assert sparse == fast
