"""The KinectFusion SLAM system.

Glues the kernels together behind the framework's
:class:`~repro.core.api.SLAMSystem` lifecycle, exactly as SLAMBench's
KFusion port does:

1. *Preprocess*: downsample by the compute-size ratio, bilateral-filter,
   build the depth pyramid, lift to vertex/normal pyramids.
2. *Track*: multi-scale point-to-plane ICP against the raycast prediction
   (skipped on decimated frames; frame 0 bootstraps at the initial pose).
3. *Integrate*: fuse the frame into the TSDF (every ``integration_rate``-th
   frame while tracking is good, plus the first frames).
4. *Raycast*: render the surface prediction used by the next track step.

The phases are *registered stages* (:mod:`repro.kfusion.graphdef`) and
every frame runs through a compiled :class:`~repro.graph.PipelineInstance`
— the declarative graph the runtime compiler validated and arena-planned
at init.  The golden tables in ``tests/test_golden_run.py`` pin its
accuracy and status sequence on every kernel backend.

Every kernel launch is recorded in the frame's workload with its analytic
cost (``repro.kfusion.kernels``), which the platform simulator converts to
time and energy.
"""

from __future__ import annotations

import weakref

import numpy as np

from ..core.api import SLAMSystem
from ..core.config import ParameterSpec
from ..core.frame import Frame
from ..core.outputs import OutputKind, TrackingStatus
from ..core.sensors import SensorSuite
from ..core.workload import FrameWorkload
from ..errors import ConfigurationError, DatasetError
from ..geometry import PinholeCamera, se3
from ..graph import StageContext, WorkspaceRequest, compile_graph
from ..telemetry import current_tracer
from .graphdef import kfusion_graph
from .params import PYRAMID_LEVELS, KFusionParams, parameter_specs
from .tracking import ReferenceModel, TrackResult
from .volume import TSDFVolume

#: SLAMBench's default camera start: centred in x/y, at the volume's front
#: face, looking along +z into the volume.
INITIAL_POSE_FACTOR = (0.5, 0.5, 0.0)


class KinectFusion(SLAMSystem):
    """Dense RGB-D SLAM with a TSDF map and ICP tracking.

    Outputs: ``pose``, ``tracking_status``, ``track_rmse`` (and
    ``model_render`` with ``publish_render``) are set every frame.
    ``pointcloud`` (the map's surface points) is computed on read, so a
    run that never reads it never pays for the extraction.  Only the
    latest frame's is readable: a read after the next ``process_once``
    or after ``clean`` raises :class:`~repro.errors.ConfigurationError`.

    Args:
        publish_render: also produce the GUI's shaded model render each
            frame (the ``model_render`` output, Figure 1's right panel).
            Off by default — it adds a second raycast per frame, and
            SLAMBench likewise only pays for it when the GUI is attached.
        robust_tracking: use Huber-weighted (IRLS) ICP instead of the
            reference implementation's plain least squares — an extension
            that defends against depth-edge artefacts and dropout.
        kernel_backend: which registered kernel implementation set runs
            the five hot per-frame kernels — ``"sparse"`` (voxel-block
            volume with band-restricted integrate and space-skipping
            raycast, the default), ``"fast"`` (float32 workspace kernels
            over the dense grid, sparse's bit-identity oracle),
            ``"reference"`` (the float64 textbook kernels).  See
            :mod:`repro.perf`.
        taps: :class:`~repro.graph.TapSpec` stream taps (or
            ``(node, port)`` tuples) attached to the compiled graph —
            sampled intermediate frames become telemetry spans.
    """

    name = "kfusion"

    #: Huber inlier band used when robust tracking is enabled (metres).
    HUBER_DELTA_M = 0.02

    def __init__(self, publish_render: bool = False,
                 robust_tracking: bool = False,
                 kernel_backend: str | None = None,
                 taps: tuple = ()):
        super().__init__()
        from ..perf import DEFAULT_KERNEL_BACKEND, get_kernel_backend

        self._publish_render = publish_render
        self._robust_tracking = robust_tracking
        self._taps = tuple(taps)
        # Resolve eagerly so an unknown name fails at construction.
        self._backend = get_kernel_backend(
            kernel_backend if kernel_backend is not None
            else DEFAULT_KERNEL_BACKEND
        )
        self._workspace = None
        self._instance = None
        self.params: KFusionParams | None = None
        self.volume: TSDFVolume | None = None
        self._camera: PinholeCamera | None = None
        self._input_camera: PinholeCamera | None = None
        self._pose = np.eye(4)  # camera-to-volume
        self._reference: ReferenceModel | None = None
        self._status = TrackingStatus.BOOTSTRAP
        self._last_track_rmse = 0.0
        self._map_version = 0  # bumped per frame and on clean (stale reads)

    @property
    def kernel_backend(self) -> str:
        """Name of the kernel backend this system runs."""
        return self._backend.name

    @property
    def instance(self):
        """The compiled :class:`~repro.graph.PipelineInstance` (or None)."""
        return self._instance

    # -- SLAMSystem hooks ---------------------------------------------------
    def parameter_specs(self) -> list[ParameterSpec]:
        return parameter_specs()

    def do_init(self, sensors: SensorSuite) -> None:
        depth_sensor = sensors.require_depth()
        assert self.configuration is not None
        self.params = KFusionParams.from_configuration(self.configuration)

        self._input_camera = depth_sensor.camera
        try:
            self._camera = depth_sensor.camera.scaled(
                self.params.compute_size_ratio
            )
        except Exception as exc:
            raise ConfigurationError(
                f"compute_size_ratio {self.params.compute_size_ratio} "
                f"incompatible with input {depth_sensor.camera.shape}: {exc}"
            ) from exc
        if self._camera.width < 8 or self._camera.height < 8:
            raise ConfigurationError(
                f"compute resolution {self._camera.shape} too small"
            )

        # The backend picks the map representation: dense grid for
        # reference/fast, lazily allocated voxel blocks for sparse.
        self.volume = self._backend.make_volume(
            resolution=self.params.volume_resolution,
            size=self.params.volume_size,
        )
        # Per-run float32 buffer arena (None for workspace-less backends).
        self._workspace = self._backend.make_workspace(
            self._input_camera, self.params, PYRAMID_LEVELS
        )
        spec = kfusion_graph(publish_render=self._publish_render)
        if self._taps:
            spec = spec.with_taps(self._taps)
        # Compile-time arena plan: the graph's summed stage needs must
        # fit the workspace budget before the first frame runs.
        request = budget = None
        if self._workspace is not None:
            request = WorkspaceRequest(
                params=self.params,
                camera=self._input_camera,
                levels=PYRAMID_LEVELS,
                backend=self._backend.name,
            )
            budget = self._workspace.budget_bytes
        self._instance = compile_graph(
            spec, workspace_request=request, arena_budget=budget
        )
        self._pose = se3.make_pose(
            np.eye(3),
            np.array(INITIAL_POSE_FACTOR) * self.params.volume_size,
        )
        self._reference = None
        self._status = TrackingStatus.BOOTSTRAP

        self.outputs.declare("pose", OutputKind.POSE)
        self.outputs.declare("pointcloud", OutputKind.POINTCLOUD)
        self.outputs.declare("tracking_status", OutputKind.TRACKING_STATUS)
        self.outputs.declare("track_rmse", OutputKind.SCALAR)
        if self._publish_render:
            self.outputs.declare("model_render", OutputKind.FRAME)
        self._last_render = None

    def do_process(self, frame: Frame, workload: FrameWorkload) -> TrackingStatus:
        assert self.params is not None and self.volume is not None
        assert self._camera is not None and self._input_camera is not None

        if frame.depth.shape != self._input_camera.shape:
            raise DatasetError(
                f"frame shape {frame.depth.shape} != sensor "
                f"{self._input_camera.shape}"
            )
        self._map_version += 1
        ctx = StageContext(
            frame=frame,
            workload=workload,
            state=self,
            backend=self._backend,
            workspace=self._workspace,
            params=self.params,
        )
        self._instance.run_frame(ctx)
        return self._status

    def do_update_outputs(self) -> None:
        assert self.volume is not None
        idx = self.frames_processed - 1
        self.outputs.get("pose").set(self._pose.copy(), idx)
        self.outputs.get("tracking_status").set(self._status, idx)
        self.outputs.get("track_rmse").set(self._last_track_rmse, idx)
        self.outputs.get("pointcloud").publish(
            self._surface_points_producer(idx), idx
        )
        tracer = current_tracer()
        tracer.gauge("kfusion.volume.allocated_blocks",
                     self.volume.allocated_blocks)
        tracer.gauge("kfusion.volume.allocated_bytes",
                     self.volume.allocated_bytes)
        if self._publish_render and self._last_render is not None:
            self.outputs.get("model_render").set(self._last_render, idx)

    def _surface_points_producer(self, idx: int):
        """Producer of frame ``idx``'s surface points, for the pointcloud output.

        Only the latest frame is readable: the map changes with the next
        frame, so a read after the next ``process_once`` (or after
        ``clean``) raises instead of returning another frame's points.
        """
        # Weakly held, so a kept output does not keep a released system
        # and its buffers alive.
        system = weakref.ref(self)
        version = self._map_version

        def surface_points() -> np.ndarray:
            live = system()
            if live is None:
                raise ConfigurationError(
                    f"output 'pointcloud' of frame {idx} is no longer "
                    f"readable: its system was released"
                )
            if live._map_version != version:
                state = ("is now at" if live.initialised
                         else "was cleaned after")
                raise ConfigurationError(
                    f"output 'pointcloud' of frame {idx} is no longer "
                    f"readable: the system {state} frame "
                    f"{live.frames_processed - 1}; only the latest frame's "
                    f"point cloud can be read"
                )
            return live.volume.extract_surface_points()

        return surface_points

    def do_clean(self) -> None:
        self._map_version += 1
        self.volume = None
        self._reference = None
        self._instance = None
        self._workspace = None
        self._last_render = None

    # -- graph-stage state access (repro.kfusion.graphdef) --------------------
    @property
    def input_camera(self) -> PinholeCamera:
        """Sensor-resolution intrinsics."""
        if self._input_camera is None:
            raise ConfigurationError("kfusion not initialised")
        return self._input_camera

    @property
    def pose_estimate(self) -> np.ndarray:
        """The live camera-to-volume pose the stages read and refine."""
        return self._pose

    @property
    def reference(self) -> ReferenceModel | None:
        """Last raycast surface prediction (track's alignment target)."""
        return self._reference

    @property
    def huber_delta(self) -> float | None:
        """Huber band for robust tracking (None = plain least squares)."""
        return self.HUBER_DELTA_M if self._robust_tracking else None

    def record_track(self, result: TrackResult) -> None:
        """Fold one ICP result into the pipeline state (pose + rmse)."""
        self._last_track_rmse = result.rmse
        if result.tracked:
            self._pose = result.pose

    def set_status(self, status: TrackingStatus) -> None:
        self._status = status

    def set_reference(self, reference: ReferenceModel) -> None:
        self._reference = reference

    def set_render(self, render) -> None:
        self._last_render = render

    # -- extras used by metrics/tests -----------------------------------------
    @property
    def pose(self) -> np.ndarray:
        """Current camera-to-volume pose estimate."""
        return self._pose.copy()

    @property
    def compute_camera(self) -> PinholeCamera:
        """Intrinsics at the compute resolution."""
        if self._camera is None:
            raise ConfigurationError("kfusion not initialised")
        return self._camera
