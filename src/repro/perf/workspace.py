"""Preallocated per-frame buffer arena for the fast kernel backend.

The reference kernels allocate dozens of full-frame (and, for
integration, full-volume) float64 temporaries per frame.  The fast path
instead threads one :class:`FrameWorkspace` through the pipeline: every
optimized kernel asks the arena for its named float32 scratch buffers,
which are allocated on first use and reused on every subsequent frame.

The arena is *sized from the memory model*: its total footprint must
stay within :func:`repro.kfusion.memory.workspace_bytes` for the run's
configuration, so the fast path's memory story is the same one
SLAMBench-style explorations already trade against speed and accuracy.
Exceeding the budget raises :class:`~repro.errors.PerfError` — that is a
sizing bug in this package, never a data error.

Buffer lifetime contract: a buffer's contents are only meaningful within
the pipeline stage that filled it, with one deliberate exception — the
raycast output maps survive until the *next* frame's track stage reads
them (track runs before raycast within a frame, so single buffering is
safe; see the pipeline's raycast stage).
"""

from __future__ import annotations

import numpy as np

from ..errors import PerfError
from ..geometry import PinholeCamera
from ..kfusion.memory import DEFAULT_KERNEL_BACKEND, workspace_bytes
from ..kfusion.params import KFusionParams


class FrameWorkspace:
    """Named, preallocated scratch buffers for the fast kernels.

    Args:
        input_camera: sensor-resolution intrinsics (sizes the budget the
            same way :func:`repro.kfusion.memory.frame_buffers_bytes`
            does).
        params: the run's KinectFusion configuration.
        levels: pyramid depth (the pipeline's ``PYRAMID_LEVELS``).
        backend: kernel backend the arena serves — selects the matching
            budget family in :func:`repro.kfusion.memory.workspace_bytes`.
    """

    def __init__(self, input_camera: PinholeCamera, params: KFusionParams,
                 levels: int = 3,
                 backend: str = DEFAULT_KERNEL_BACKEND):
        self.params = params
        self.levels = levels
        self.backend = backend
        self.budget_bytes = workspace_bytes(
            params, input_camera.width, input_camera.height, levels,
            backend
        )
        self._buffers: dict[str, np.ndarray] = {}
        self._nbytes = 0

    @property
    def nbytes(self) -> int:
        """Bytes currently held by the arena."""
        return self._nbytes

    def __len__(self) -> int:
        return len(self._buffers)

    def buffer(self, name: str, shape: tuple[int, ...],
               dtype=np.float32) -> np.ndarray:
        """The named buffer, allocating (or resizing) it on demand.

        Contents are whatever the previous user left — callers that need
        zeros must use :meth:`zeros`.  A shape or dtype change frees the
        old buffer and allocates fresh (configurations are fixed within a
        run, so this only happens across runs reusing a system instance).
        """
        shape = tuple(int(s) for s in shape)
        arr = self._buffers.get(name)
        if arr is not None:
            if arr.shape == shape and arr.dtype == dtype:
                return arr
            self._nbytes -= arr.nbytes
        arr = np.empty(shape, dtype=dtype)
        if self._nbytes + arr.nbytes > self.budget_bytes:
            raise PerfError(
                f"workspace buffer {name!r} {shape}/{np.dtype(dtype).name} "
                f"would put the arena at {self._nbytes + arr.nbytes} bytes, "
                f"over its {self.budget_bytes}-byte budget "
                f"(kfusion.memory.workspace_bytes)"
            )
        self._buffers[name] = arr
        self._nbytes += arr.nbytes
        return arr

    def zeros(self, name: str, shape: tuple[int, ...],
              dtype=np.float32) -> np.ndarray:
        """Like :meth:`buffer` but cleared to zero."""
        arr = self.buffer(name, shape, dtype)
        arr.fill(0)
        return arr
