"""KinectFusion's algorithmic parameters.

These are exactly the tunables SLAMBench exposes and the PACT'16 /
HyperMapper studies explore (see DESIGN.md, "Design-space parameters").
:func:`parameter_specs` declares them through the framework's parameter
mechanism; :class:`KFusionParams` is the typed view the kernels consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import AlgorithmConfiguration, ParameterSpec
from ..errors import ConfigurationError

#: Depth-pyramid levels the pipeline builds (SLAMBench's fixed 3).
PYRAMID_LEVELS = 3

#: The reference implementation integrates unconditionally for the first
#: frames to bootstrap the model even if tracking is shaky.
BOOTSTRAP_FRAMES = 4

#: The design space, declared once.  Each default is SLAMBench's (the
#: paper's "default" reference point: 256^3 volume, full-resolution
#: compute, standard ICP schedule); ``ParameterSpec`` validates it
#: against its own bounds at import.
_SPECS = (
    ParameterSpec(
        "volume_resolution", "ordinal", 256,
        choices=(32, 48, 64, 96, 128, 192, 256),
        description="TSDF voxels per side",
    ),
    ParameterSpec(
        "volume_size", "real", 4.8, low=2.0, high=8.0,
        description="physical volume extent in metres",
    ),
    ParameterSpec(
        "compute_size_ratio", "ordinal", 1, choices=(1, 2, 4, 8),
        description="input downsampling factor before processing",
    ),
    ParameterSpec(
        "mu_distance", "real", 0.1, low=0.01, high=0.3,
        description="TSDF truncation band in metres",
    ),
    ParameterSpec(
        "icp_threshold", "real", 1e-5, low=1e-20, high=1e-2, log_scale=True,
        description="ICP early-termination threshold on the update norm",
    ),
    ParameterSpec(
        "pyramid_iterations_l0", "integer", 10, low=0, high=10,
        description="ICP iterations at the finest pyramid level",
    ),
    ParameterSpec(
        "pyramid_iterations_l1", "integer", 5, low=0, high=10,
        description="ICP iterations at the middle pyramid level",
    ),
    ParameterSpec(
        "pyramid_iterations_l2", "integer", 4, low=0, high=10,
        description="ICP iterations at the coarsest pyramid level",
    ),
    ParameterSpec(
        "integration_rate", "integer", 2, low=1, high=15,
        description="integrate depth into the TSDF every Nth frame",
    ),
    ParameterSpec(
        "tracking_rate", "integer", 1, low=1, high=5,
        description="run the tracker every Nth frame",
    ),
)

#: SLAMBench's default configuration, derived from the specs.
DEFAULTS = {spec.name: spec.default for spec in _SPECS}


def parameter_specs() -> list[ParameterSpec]:
    """The KinectFusion design space, as framework parameter specs."""
    return list(_SPECS)


@dataclass(frozen=True)
class KFusionParams:
    """Typed snapshot of a KinectFusion configuration."""

    volume_resolution: int = DEFAULTS["volume_resolution"]
    volume_size: float = DEFAULTS["volume_size"]
    compute_size_ratio: int = DEFAULTS["compute_size_ratio"]
    mu_distance: float = DEFAULTS["mu_distance"]
    icp_threshold: float = DEFAULTS["icp_threshold"]
    pyramid_iterations_l0: int = DEFAULTS["pyramid_iterations_l0"]
    pyramid_iterations_l1: int = DEFAULTS["pyramid_iterations_l1"]
    pyramid_iterations_l2: int = DEFAULTS["pyramid_iterations_l2"]
    integration_rate: int = DEFAULTS["integration_rate"]
    tracking_rate: int = DEFAULTS["tracking_rate"]

    def __post_init__(self):
        if self.volume_resolution < 8:
            raise ConfigurationError("volume_resolution must be >= 8")
        if self.volume_size <= 0:
            raise ConfigurationError("volume_size must be positive")
        if self.compute_size_ratio < 1:
            raise ConfigurationError("compute_size_ratio must be >= 1")
        if self.mu_distance <= 0:
            raise ConfigurationError("mu_distance must be positive")
        if self.icp_threshold <= 0:
            raise ConfigurationError("icp_threshold must be positive")
        if self.integration_rate < 1 or self.tracking_rate < 1:
            raise ConfigurationError("rates must be >= 1")

    @classmethod
    def from_configuration(cls, config: AlgorithmConfiguration) -> "KFusionParams":
        """Build from a validated framework configuration."""
        return cls(**{name: config[name] for name in DEFAULTS})

    @property
    def pyramid_iterations(self) -> tuple[int, int, int]:
        """ICP iterations from finest (level 0) to coarsest (level 2)."""
        return (
            self.pyramid_iterations_l0,
            self.pyramid_iterations_l1,
            self.pyramid_iterations_l2,
        )

    @property
    def voxel_size(self) -> float:
        """Edge length of one voxel in metres."""
        return self.volume_size / self.volume_resolution
