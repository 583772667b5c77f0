"""Tests for the KinectFusion parameter definitions.

The design space HyperMapper explores must be exactly the set of knobs
KinectFusion consumes.  ``kfusion/params.py`` declares each knob once,
so names and defaults agree by construction; the tests below pin the
rest: the consumer and the space carry the same names, and every knob
moves a short run.
"""

import hashlib
from dataclasses import fields

import pytest

from repro.core import AlgorithmConfiguration, run_benchmark
from repro.errors import ConfigurationError
from repro.hypermapper.space import kfusion_design_space
from repro.kfusion import DEFAULTS, KFusionParams, KinectFusion, parameter_specs

SPEC_NAMES = [s.name for s in parameter_specs()]

#: A short run's configuration (on the 8-frame 80x60 ``tiny_sequence``)
#: and, per knob, a value that differs from it.
BASE = {"volume_resolution": 64}
PERTURBED = {
    "volume_resolution": 96,
    "volume_size": 4.0,
    "compute_size_ratio": 2,
    "mu_distance": 0.05,
    "icp_threshold": 1e-2,
    "pyramid_iterations_l0": 3,
    "pyramid_iterations_l1": 2,
    "pyramid_iterations_l2": 1,
    "integration_rate": 1,
    "tracking_rate": 2,
}


def _pose_digest(sequence, configuration):
    result = run_benchmark(KinectFusion(kernel_backend="sparse"), sequence,
                           configuration=configuration,
                           evaluate_accuracy=False)
    return hashlib.sha256(
        b"".join(r.pose.tobytes() for r in result.collector.records)
    ).hexdigest()


@pytest.fixture(scope="module")
def base_digest(tiny_sequence):
    return _pose_digest(tiny_sequence, BASE)


class TestSpecs:
    def test_defaults_match_slambench(self):
        assert DEFAULTS["volume_resolution"] == 256
        assert DEFAULTS["compute_size_ratio"] == 1
        assert DEFAULTS["mu_distance"] == pytest.approx(0.1)
        assert DEFAULTS["integration_rate"] == 2

    def test_consumer_fields_are_the_specs(self):
        assert [f.name for f in fields(KFusionParams)] == SPEC_NAMES
        assert {f.name: f.default for f in fields(KFusionParams)} == DEFAULTS

    def test_design_space_is_the_specs(self):
        assert kfusion_design_space().names == SPEC_NAMES

    def test_icp_threshold_is_log_scale(self):
        spec = {s.name: s for s in parameter_specs()}["icp_threshold"]
        assert spec.log_scale


class TestKFusionParams:
    def test_from_configuration(self):
        cfg = AlgorithmConfiguration(parameter_specs(),
                                     {"volume_resolution": 64})
        p = KFusionParams.from_configuration(cfg)
        assert p.volume_resolution == 64
        assert p.mu_distance == DEFAULTS["mu_distance"]

    def test_voxel_size(self):
        p = KFusionParams(volume_resolution=128, volume_size=6.4)
        assert p.voxel_size == pytest.approx(0.05)

    def test_pyramid_iterations_order(self):
        p = KFusionParams(pyramid_iterations_l0=1, pyramid_iterations_l1=2,
                          pyramid_iterations_l2=3)
        assert p.pyramid_iterations == (1, 2, 3)

    @pytest.mark.parametrize("kwargs", [
        {"volume_resolution": 4},
        {"volume_size": -1.0},
        {"compute_size_ratio": 0},
        {"mu_distance": 0.0},
        {"icp_threshold": 0.0},
        {"integration_rate": 0},
        {"tracking_rate": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            KFusionParams(**kwargs)


class TestEveryKnobIsConsumed:
    @pytest.mark.parametrize("name", SPEC_NAMES)
    def test_perturbing_knob_moves_poses(self, name, tiny_sequence,
                                         base_digest):
        """A knob the pipeline never reads would leave the poses
        bit-identical: the DSE would spend its budget on a dead axis."""
        assert name in PERTURBED, f"no perturbation declared for {name!r}"
        assert PERTURBED[name] != BASE.get(name, DEFAULTS[name])
        digest = _pose_digest(tiny_sequence, {**BASE, name: PERTURBED[name]})
        assert digest != base_digest, f"{name!r} does not move the run"
