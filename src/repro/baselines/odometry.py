"""Frame-to-frame ICP visual odometry — a mapless baseline.

SLAMBench's premise is comparing *algorithms* under one API; this system
provides the classic cheap alternative to KinectFusion: align each frame
against the previous frame's vertex/normal maps (no TSDF, no raycast).
It is much faster and much less accurate (odometry drift accumulates
without a global model) — the cross-algorithm experiment shows exactly
that trade-off.

Like :class:`~repro.kfusion.pipeline.KinectFusion`, every frame runs
through the compiled stage graph (:mod:`repro.baselines.graphdef`).
"""

from __future__ import annotations

import numpy as np

from ..core.api import SLAMSystem
from ..core.config import ParameterSpec
from ..core.frame import Frame
from ..core.outputs import OutputKind, TrackingStatus
from ..core.sensors import SensorSuite
from ..core.workload import FrameWorkload
from ..errors import ConfigurationError
from ..geometry import PinholeCamera
from ..graph import StageContext, compile_graph
from ..kfusion.tracking import ReferenceModel, TrackResult
from .graphdef import odometry_graph


class ICPOdometry(SLAMSystem):
    """Dense frame-to-frame ICP odometry (no map)."""

    name = "icp_odometry"

    def __init__(self, taps: tuple = ()):
        super().__init__()
        self._taps = tuple(taps)
        self._instance = None
        self._camera: PinholeCamera | None = None
        self._input_camera: PinholeCamera | None = None
        self._pose = np.eye(4)
        self._reference: ReferenceModel | None = None
        self._status = TrackingStatus.BOOTSTRAP

    def parameter_specs(self) -> list[ParameterSpec]:
        return [
            ParameterSpec(
                "compute_size_ratio", "ordinal", 1, choices=(1, 2, 4, 8),
                description="input downsampling factor",
            ),
            ParameterSpec(
                "icp_threshold", "real", 1e-5, low=1e-20, high=1e-2,
                log_scale=True,
                description="ICP early-termination threshold",
            ),
            ParameterSpec(
                "pyramid_iterations_l0", "integer", 10, low=0, high=10,
                description="ICP iterations, finest level",
            ),
            ParameterSpec(
                "pyramid_iterations_l1", "integer", 5, low=0, high=10,
                description="ICP iterations, middle level",
            ),
            ParameterSpec(
                "pyramid_iterations_l2", "integer", 4, low=0, high=10,
                description="ICP iterations, coarsest level",
            ),
        ]

    def do_init(self, sensors: SensorSuite) -> None:
        assert self.configuration is not None
        depth_sensor = sensors.require_depth()
        self._input_camera = depth_sensor.camera
        ratio = self.configuration["compute_size_ratio"]
        try:
            self._camera = depth_sensor.camera.scaled(ratio)
        except Exception as exc:
            raise ConfigurationError(
                f"compute_size_ratio {ratio} incompatible with "
                f"{depth_sensor.camera.shape}: {exc}"
            ) from exc
        self._pose = np.eye(4)
        self._reference = None
        spec = odometry_graph()
        if self._taps:
            spec = spec.with_taps(self._taps)
        self._instance = compile_graph(spec)
        self.outputs.declare("pose", OutputKind.POSE)
        self.outputs.declare("tracking_status", OutputKind.TRACKING_STATUS)

    def do_process(self, frame: Frame, workload: FrameWorkload) -> TrackingStatus:
        assert self.configuration is not None
        assert self._camera is not None and self._input_camera is not None
        ctx = StageContext(
            frame=frame,
            workload=workload,
            state=self,
            params=self.configuration,
        )
        self._instance.run_frame(ctx)
        return self._status

    # -- graph-stage state access (repro.baselines.graphdef) ------------------
    @property
    def input_camera(self) -> PinholeCamera:
        """Sensor-resolution intrinsics."""
        if self._input_camera is None:
            raise ConfigurationError("odometry not initialised")
        return self._input_camera

    @property
    def compute_camera(self) -> PinholeCamera:
        """Intrinsics at the compute resolution."""
        if self._camera is None:
            raise ConfigurationError("odometry not initialised")
        return self._camera

    @property
    def pose_estimate(self) -> np.ndarray:
        """The live world-from-camera pose the stages read and refine."""
        return self._pose

    @property
    def reference(self) -> ReferenceModel | None:
        """Previous frame's maps in the world frame (or None)."""
        return self._reference

    def record_track(self, result: TrackResult) -> None:
        """Fold one ICP result into the odometry state (pose + status)."""
        if result.tracked:
            self._pose = result.pose
            self._status = TrackingStatus.OK
        else:
            self._status = TrackingStatus.LOST

    def set_status_bootstrap(self) -> None:
        self._status = TrackingStatus.BOOTSTRAP

    def set_reference(self, reference: ReferenceModel) -> None:
        self._reference = reference

    def do_update_outputs(self) -> None:
        idx = self.frames_processed - 1
        self.outputs.get("pose").set(self._pose.copy(), idx)
        self.outputs.get("tracking_status").set(self._status, idx)

    def do_clean(self) -> None:
        self._reference = None
        self._instance = None
