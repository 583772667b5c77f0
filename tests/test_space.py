"""Tests for design spaces."""

import numpy as np
import pytest

from repro.core import ParameterSpec
from repro.errors import OptimizationError
from repro.hypermapper import (
    DesignSpace,
    codesign_design_space,
    kfusion_design_space,
)
from repro.perf import kernel_backend_names


def small_space():
    return DesignSpace([
        ParameterSpec("res", "ordinal", 64, choices=(32, 64, 128)),
        ParameterSpec("mu", "real", 0.1, low=0.01, high=0.3),
        ParameterSpec("iters", "integer", 5, low=0, high=10),
        ParameterSpec("thr", "real", 1e-5, low=1e-8, high=1e-2,
                      log_scale=True),
        ParameterSpec("backend", "categorical", "opencl",
                      choices=("cpp", "opencl")),
    ])


class TestSampling:
    def test_samples_valid(self):
        space = small_space()
        rng = np.random.default_rng(0)
        for config in space.sample_many(50, rng):
            space.validate(config)

    def test_log_scale_sampling_spans_decades(self):
        space = small_space()
        rng = np.random.default_rng(0)
        thrs = [space.sample(rng)["thr"] for _ in range(200)]
        logs = np.log10(thrs)
        # Uniform in log space: spread across the 6 decades.
        assert logs.min() < -7
        assert logs.max() > -3
        assert -6 < np.median(logs) < -4

    def test_default_configuration(self):
        d = small_space().default_configuration()
        assert d["res"] == 64 and d["backend"] == "opencl"


class TestEncoding:
    def test_feature_vector_layout(self):
        space = small_space()
        f = space.to_features(space.default_configuration())
        assert f.shape == (5,)
        assert f[0] == 64.0
        assert f[3] == pytest.approx(-5.0)  # log10(1e-5)
        assert f[4] == 1.0  # index of "opencl"

    def test_feature_names_annotated(self):
        names = small_space().feature_names()
        assert "log10(thr)" in names
        assert "res" in names

    def test_matrix(self):
        space = small_space()
        rng = np.random.default_rng(0)
        M = space.to_feature_matrix(space.sample_many(7, rng))
        assert M.shape == (7, 5)

    def test_missing_parameter_rejected(self):
        space = small_space()
        with pytest.raises(OptimizationError):
            space.to_features({"res": 64})

    def test_empty_matrix_rejected(self):
        with pytest.raises(OptimizationError):
            small_space().to_feature_matrix([])


class TestGridAndValidation:
    def test_grid_sizes(self):
        space = DesignSpace([
            ParameterSpec("a", "ordinal", 1, choices=(1, 2)),
            ParameterSpec("b", "integer", 0, low=0, high=2),
        ])
        grid = space.grid()
        assert len(grid) == 6

    def test_grid_too_large_rejected(self):
        space = DesignSpace([
            ParameterSpec(f"p{i}", "integer", 0, low=0, high=100)
            for i in range(4)
        ])
        with pytest.raises(OptimizationError):
            space.grid()

    def test_validate_canonicalises(self):
        space = small_space()
        out = space.validate(dict(space.default_configuration(), iters=3.0))
        assert out["iters"] == 3
        with pytest.raises(OptimizationError):
            space.validate({"res": 64})

    def test_duplicate_names_rejected(self):
        spec = ParameterSpec("a", "integer", 0, low=0, high=1)
        with pytest.raises(OptimizationError):
            DesignSpace([spec, spec])

    def test_empty_rejected(self):
        with pytest.raises(OptimizationError):
            DesignSpace([])


class TestPresetSpaces:
    def test_kfusion_space_matches_params(self):
        space = kfusion_design_space()
        assert "volume_resolution" in space.names
        assert space.dimensions == 10

    def test_kernel_backend_choices_are_the_registry(self):
        space = kfusion_design_space(kernel_backend=True)
        backend = {s.name: s for s in space.specs}["kernel_backend"]
        assert backend.choices == tuple(kernel_backend_names())

    def test_codesign_space_adds_platform_knobs(self, odroid):
        space = codesign_design_space(odroid)
        assert "backend" in space.names
        assert "cpu_freq_ghz" in space.names
        assert "gpu_freq_ghz" in space.names
        assert "cpu_cluster" in space.names  # big.LITTLE choice
        assert space.dimensions == 14
        # Odroid has no CUDA.
        backend_spec = {s.name: s for s in space.specs}["backend"]
        assert "cuda" not in backend_spec.choices
        cluster_spec = {s.name: s for s in space.specs}["cpu_cluster"]
        assert set(cluster_spec.choices) == {"big", "little"}
