"""Design spaces over algorithm (and platform) parameters.

A :class:`DesignSpace` wraps the framework's parameter specs
(:class:`~repro.core.config.ParameterSpec`) and adds what the optimizer
needs: random sampling, encoding configurations as numeric feature vectors
for the random forest (log-scaled where declared), and decoding back.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from ..core.config import ParameterSpec
from ..errors import OptimizationError


class DesignSpace:
    """A searchable space of named parameters."""

    def __init__(self, specs: Sequence[ParameterSpec]):
        if not specs:
            raise OptimizationError("design space needs at least one parameter")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise OptimizationError("duplicate parameter names in design space")
        self.specs = tuple(specs)

    @property
    def names(self) -> list[str]:
        return [s.name for s in self.specs]

    @property
    def dimensions(self) -> int:
        return len(self.specs)

    def default_configuration(self) -> dict:
        return {s.name: s.default for s in self.specs}

    # -- sampling ---------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> dict:
        """One uniform random configuration."""
        config = {}
        for s in self.specs:
            if s.kind == "integer":
                config[s.name] = int(rng.integers(int(s.low), int(s.high) + 1))
            elif s.kind == "real":
                if s.log_scale:
                    lo, hi = np.log10(s.low), np.log10(s.high)
                    config[s.name] = float(10 ** rng.uniform(lo, hi))
                else:
                    config[s.name] = float(rng.uniform(s.low, s.high))
            else:  # ordinal / categorical
                config[s.name] = s.choices[int(rng.integers(len(s.choices)))]
        return config

    def sample_many(self, n: int, rng: np.random.Generator) -> list[dict]:
        return [self.sample(rng) for _ in range(n)]

    # -- encoding for the predictive model ----------------------------------------
    def to_features(self, config: Mapping) -> np.ndarray:
        """Encode a configuration as a numeric vector.

        Real log-scale parameters are encoded as log10; ordinals by value;
        categoricals by choice index.
        """
        out = np.empty(self.dimensions)
        for i, s in enumerate(self.specs):
            try:
                v = config[s.name]
            except KeyError:
                raise OptimizationError(
                    f"configuration missing parameter {s.name!r}"
                ) from None
            if s.kind == "categorical":
                out[i] = float(s.choices.index(v))
            elif s.kind == "real" and s.log_scale:
                out[i] = float(np.log10(v))
            else:
                out[i] = float(v)
        return out

    def to_feature_matrix(self, configs: Sequence[Mapping]) -> np.ndarray:
        if not configs:
            raise OptimizationError("no configurations to encode")
        return np.stack([self.to_features(c) for c in configs])

    def feature_names(self) -> list[str]:
        """Names matching :meth:`to_features` columns (log-scale annotated)."""
        return [
            f"log10({s.name})" if (s.kind == "real" and s.log_scale) else s.name
            for s in self.specs
        ]

    def validate(self, config: Mapping) -> dict:
        """Validate and canonicalise a configuration dict."""
        out = {}
        for s in self.specs:
            if s.name not in config:
                raise OptimizationError(f"missing parameter {s.name!r}")
            out[s.name] = s.validate(config[s.name])
        return out

    def grid(self, points_per_real: int = 5) -> list[dict]:
        """Full-factorial grid (ordinals/integers exact, reals discretised).

        Guarded: raises if the grid would exceed a million points.
        """
        axes = []
        for s in self.specs:
            if s.kind in ("ordinal", "categorical"):
                axes.append(list(s.choices))
            elif s.kind == "integer":
                axes.append(list(range(int(s.low), int(s.high) + 1)))
            else:
                if s.log_scale:
                    vals = np.logspace(
                        np.log10(s.low), np.log10(s.high), points_per_real
                    )
                else:
                    vals = np.linspace(s.low, s.high, points_per_real)
                axes.append([float(v) for v in vals])
        total = 1
        for a in axes:
            total *= len(a)
            if total > 1_000_000:
                raise OptimizationError(
                    "grid too large; use random sampling instead"
                )
        configs = [{}]
        for s, axis in zip(self.specs, axes):
            configs = [dict(c, **{s.name: v}) for c in configs for v in axis]
        return configs


def kfusion_design_space(kernel_backend: bool = False) -> DesignSpace:
    """The paper's algorithmic design space (KinectFusion parameters).

    With ``kernel_backend=True`` the registry's kernel
    implementations join the space as a categorical dimension, so the
    sparsity/precision axis is explored alongside the algorithmic knobs
    (``repro dse`` opts in; golden DSE fixtures keep the smaller space).
    The choices are the registered backend names, so the dimension
    cannot drift from the registry.
    """
    from ..kfusion.params import parameter_specs
    from ..perf import kernel_backend_names

    specs = list(parameter_specs())
    if kernel_backend:
        specs.append(
            ParameterSpec(
                "kernel_backend", "categorical", "fast",
                choices=tuple(kernel_backend_names()),
                description="kernel implementation family "
                            "(repro.perf registry)",
            )
        )
    return DesignSpace(specs)


def codesign_design_space(device=None) -> DesignSpace:
    """Algorithmic + platform knobs — incremental co-design exploration.

    Adds the implementation backend and the DVFS states of the device's
    big cluster and GPU to the algorithmic space, as in the paper's
    co-design methodology (domain-level choices explored together with
    low-level platform choices).
    """
    from ..kfusion.params import parameter_specs
    from ..platforms.odroid import odroid_xu3

    device = device if device is not None else odroid_xu3()
    cluster = device.biggest_cluster
    specs = list(parameter_specs())
    backends = ["cpp", "openmp"]
    if device.has_gpu:
        backends.append("opencl")
        if device.gpu.api == "cuda":
            backends.append("cuda")
    specs.append(
        ParameterSpec(
            "backend", "categorical",
            "opencl" if device.has_gpu else "openmp",
            choices=tuple(backends),
            description="implementation language / execution unit",
        )
    )
    specs.append(
        ParameterSpec(
            "cpu_freq_ghz", "ordinal", cluster.max_freq_ghz,
            choices=tuple(cluster.freqs_ghz),
            description=f"{cluster.name}-cluster DVFS state",
        )
    )
    if len(device.clusters) > 1:
        specs.append(
            ParameterSpec(
                "cpu_cluster", "categorical", cluster.name,
                choices=tuple(c.name for c in device.clusters),
                description="big.LITTLE: cluster running the CPU-side work",
            )
        )
    if device.has_gpu:
        specs.append(
            ParameterSpec(
                "gpu_freq_ghz", "ordinal", device.gpu.max_freq_ghz,
                choices=tuple(device.gpu.freqs_ghz),
                description="GPU DVFS state",
            )
        )
    return DesignSpace(specs)
