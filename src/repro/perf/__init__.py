"""Optimized execution path for the five hot KinectFusion kernels.

``repro.perf`` is the reproduction's fast frame pipeline: float32
workspace kernels (:mod:`~repro.perf.preprocess`,
:mod:`~repro.perf.tracking`, :mod:`~repro.perf.integrate`), a
compacted-working-set raycaster (:mod:`~repro.perf.raycast`) over fused
trilinear gathers (:mod:`~repro.perf.trilinear`), all drawing scratch
from one preallocated :class:`FrameWorkspace` arena sized by
:func:`repro.kfusion.memory.workspace_bytes`.

Implementations are selected through the :class:`KernelBackend`
registry (``"sparse"``, the default, over the voxel-block volume;
``"fast"`` over the dense grid; ``"reference"``) and proven equivalent
by the golden suites in ``tests/test_perf.py`` and
``tests/test_sparse_volume.py``; see DESIGN.md S17 and S22 for the
equivalence policy and tolerance rationale.
"""

from ..kfusion.memory import DEFAULT_KERNEL_BACKEND
from .registry import (
    FAST_BACKEND,
    KernelBackend,
    REFERENCE_BACKEND,
    SPARSE_BACKEND,
    get_kernel_backend,
    kernel_backend_names,
    register_kernel_backend,
)
from .workspace import FrameWorkspace

__all__ = [
    "DEFAULT_KERNEL_BACKEND",
    "FAST_BACKEND",
    "FrameWorkspace",
    "KernelBackend",
    "REFERENCE_BACKEND",
    "SPARSE_BACKEND",
    "get_kernel_backend",
    "kernel_backend_names",
    "register_kernel_backend",
]
