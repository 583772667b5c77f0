"""The SLAM system API — the paper's central abstraction.

SLAMBench's key contribution is a uniform lifecycle every SLAM system
implements, so performance/accuracy/power can be compared across
algorithms, implementations and datasets.  The C API is::

    sb_new_slam_configuration   -> declare parameters
    sb_init_slam_system         -> allocate state, check sensors
    sb_update_frame             -> push one frame of sensor data
    sb_process_once             -> run the algorithm for one step
    sb_update_outputs           -> publish pose / map / status
    sb_clean_slam_system        -> release state

:class:`SLAMSystem` mirrors that lifecycle method-for-method.  The harness
(`repro.core.harness`) drives it and is the only caller that needs to know
the order; systems just fill in the hooks.
"""

from __future__ import annotations

import abc
import dataclasses

import numpy as np

from ..errors import ConfigurationError
from .config import AlgorithmConfiguration, ParameterSpec
from .frame import Frame
from .outputs import OutputManager, TrackingStatus
from .sensors import SensorSuite
from .workload import FrameWorkload


class SLAMSystem(abc.ABC):
    """Abstract SLAM system implementing the SLAMBench lifecycle.

    Subclasses override the ``do_*`` hooks; the public methods enforce the
    lifecycle state machine (configure -> init -> per-frame loop -> clean)
    and raise :class:`~repro.errors.ConfigurationError` on misuse, exactly
    as the C++ loader aborts on out-of-order API calls.
    """

    name: str = "abstract"

    def __init__(self):
        self.configuration: AlgorithmConfiguration | None = None
        self.outputs = OutputManager()
        self._initialised = False
        self._pending_frame: Frame | None = None
        self._last_workload: FrameWorkload | None = None
        self._frames_processed = 0

    # -- lifecycle ---------------------------------------------------------
    def new_configuration(self) -> AlgorithmConfiguration:
        """``sb_new_slam_configuration``: build the default configuration."""
        self.configuration = AlgorithmConfiguration(self.parameter_specs())
        return self.configuration

    def init(self, sensors: SensorSuite) -> None:
        """``sb_init_slam_system``: validate sensors and allocate state."""
        if self.configuration is None:
            self.new_configuration()
        if self._initialised:
            raise ConfigurationError(f"{self.name}: init called twice")
        self.do_init(sensors)
        self._initialised = True
        self._frames_processed = 0

    def update_frame(self, frame: Frame) -> None:
        """``sb_update_frame``: stage one frame for processing."""
        self._require_init("update_frame")
        self._pending_frame = frame

    def process_once(self) -> TrackingStatus:
        """``sb_process_once``: consume the staged frame, run one step."""
        self._require_init("process_once")
        if self._pending_frame is None:
            raise ConfigurationError(
                f"{self.name}: process_once without update_frame"
            )
        frame = self._pending_frame
        self._pending_frame = None
        # The one ingest boundary for depth, shared by every system:
        # non-finite or negative readings become 0 ("no measurement")
        # before any kernel sees them.  Clean input, the common case, is
        # passed through uncopied.
        depth = frame.depth
        if not (np.isfinite(depth).all() and (depth >= 0.0).all()):
            frame = dataclasses.replace(frame, depth=np.where(
                np.isfinite(depth) & (depth > 0.0), depth, 0.0
            ))
        workload = FrameWorkload(frame_index=frame.index)
        status = self.do_process(frame, workload)
        self._last_workload = workload
        self._frames_processed += 1
        return status

    def update_outputs(self) -> OutputManager:
        """``sb_update_outputs``: refresh the published outputs."""
        self._require_init("update_outputs")
        self.do_update_outputs()
        return self.outputs

    def clean(self) -> None:
        """``sb_clean_slam_system``: release all state.

        After cleaning, the system can be initialised again from scratch
        (outputs are re-declared by ``do_init``).
        """
        if self._initialised:
            self.do_clean()
        self._initialised = False
        self._pending_frame = None
        self.outputs = OutputManager()

    # -- harness helpers ----------------------------------------------------
    @property
    def initialised(self) -> bool:
        return self._initialised

    @property
    def frames_processed(self) -> int:
        return self._frames_processed

    def last_workload(self) -> FrameWorkload:
        """Kernel workload of the most recently processed frame."""
        if self._last_workload is None:
            raise ConfigurationError(f"{self.name}: no frame processed yet")
        return self._last_workload

    def _require_init(self, what: str) -> None:
        if not self._initialised:
            raise ConfigurationError(f"{self.name}: {what} before init")

    # -- hooks for subclasses ------------------------------------------------
    @abc.abstractmethod
    def parameter_specs(self) -> list[ParameterSpec]:
        """Declare the algorithm's tunable parameters."""

    @abc.abstractmethod
    def do_init(self, sensors: SensorSuite) -> None:
        """Allocate internal state; raise DatasetError if sensors missing."""

    @abc.abstractmethod
    def do_process(self, frame: Frame, workload: FrameWorkload) -> TrackingStatus:
        """Process one frame; record executed kernels into ``workload``."""

    @abc.abstractmethod
    def do_update_outputs(self) -> None:
        """Publish current pose / map / status via ``self.outputs``."""

    def do_clean(self) -> None:
        """Release state (optional hook)."""
