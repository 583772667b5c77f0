"""The kernel-backend registry.

Following SLAMBench2's treatment of multiple implementations of the
*same* algorithm as first-class comparable artifacts, a
:class:`KernelBackend` bundles one implementation of each of the five
hot per-frame kernels behind a uniform call seam, and the pipeline picks
one by name at init time (``KinectFusion(kernel_backend=...)``,
``repro-benchmark run --kernel-backend ...``).

Three backends ship:

* ``"reference"`` — the float64 textbook kernels of ``repro.kfusion``,
  bit-identical to what the pipeline ran before this registry existed
  (the golden-run values are pinned against it);
* ``"fast"`` — the float32 workspace kernels of ``repro.perf`` over the
  dense grid, proven equivalent by the golden equivalence suite
  (identical tracked/status sequences, ATE within the documented
  float32 tolerance; see DESIGN.md S17); the sparse backend's
  bit-identity oracle;
* ``"sparse"`` (the default) — the fast preprocess/track kernels over a
  lazily allocated voxel-block volume (:mod:`repro.kfusion.sparse`),
  with band-restricted integration and space-skipping raycast
  (:mod:`repro.perf.sparse_integrate` / ``sparse_raycast``; DESIGN.md
  S22).  Its block arrays and arena are sized to the volume, so small
  volumes hold no more than the dense grid and arena would.

Every backend function takes the run's
:class:`~repro.perf.workspace.FrameWorkspace` as its last positional
argument; the reference adapters ignore it (``make_workspace`` returns
``None`` for the reference backend, so no arena is ever allocated).
Backends that need a non-dense map also override ``make_volume``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from ..contracts import contract
from ..errors import PerfError
from ..geometry import PinholeCamera, se3
from ..kfusion import preprocessing as _ref_pre
from ..kfusion import tracking as _ref_track
from ..kfusion.integration import integrate as _ref_integrate
from ..kfusion.params import KFusionParams
from ..kfusion.raycast import raycast as _ref_raycast
from ..kfusion.sparse import SparseTSDFVolume
from ..kfusion.tracking import ReferenceModel, TrackResult
from ..kfusion.volume import TSDFVolume
from . import integrate as _fast_integrate
from . import preprocess as _fast_pre
from . import raycast as _fast_raycast
from . import sparse_integrate as _sparse_integrate
from . import sparse_raycast as _sparse_raycast
from . import tracking as _fast_track
from .workspace import FrameWorkspace


@dataclass(frozen=True)
class KernelBackend:
    """One selectable implementation of the five hot per-frame kernels.

    All callables share the reference functions' contracts; ``ws`` is
    the backend's workspace (``None`` for workspace-less backends).
    """

    name: str
    bilateral_filter: Callable[..., np.ndarray]
    build_pyramid: Callable[..., list[np.ndarray]]
    vertex_normal_pyramid: Callable[..., tuple]
    track: Callable[..., TrackResult]
    integrate: Callable[..., int]
    raycast_model: Callable[..., ReferenceModel]
    make_workspace: Callable[..., Any] = field(default=lambda *a: None)
    #: ``(resolution, size) -> volume``; dense grid unless overridden.
    make_volume: Callable[..., Any] = field(default=TSDFVolume)


_BACKENDS: dict[str, KernelBackend] = {}


def register_kernel_backend(backend: KernelBackend) -> None:
    """Add a backend to the registry (unique names enforced)."""
    if backend.name in _BACKENDS:
        raise PerfError(f"kernel backend {backend.name!r} already registered")
    _BACKENDS[backend.name] = backend


def get_kernel_backend(name: str) -> KernelBackend:
    """Look up a backend by name."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise PerfError(
            f"unknown kernel backend {name!r}; "
            f"registered: {kernel_backend_names()}"
        ) from None


def kernel_backend_names() -> list[str]:
    return sorted(_BACKENDS)


# -- reference adapters -----------------------------------------------------
@contract(depth="H,W:f64")
def _ref_bilateral(depth, ws):
    return _ref_pre.bilateral_filter(depth)


def _ref_build_pyramid(depth, levels, ws):
    return _ref_pre.build_pyramid(depth, levels)


def _ref_vertex_normal_pyramid(pyramid, camera, ws):
    return _ref_pre.vertex_normal_pyramid(pyramid, camera)


def _ref_track_fn(vertices, normals, reference, pose, iters, icp_threshold,
                  ws, huber_delta=None):
    return _ref_track.track(vertices, normals, reference, pose, iters,
                            icp_threshold, huber_delta=huber_delta)


@contract(depth="H,W:f64", pose_volume_from_camera="4,4:f64")
def _ref_integrate_fn(volume, depth, camera, pose_volume_from_camera, mu, ws):
    return _ref_integrate(volume, depth, camera, pose_volume_from_camera, mu)


@contract(pose_volume_from_camera="4,4:f64")
def _ref_raycast_model(volume, camera, pose_volume_from_camera, mu, ws):
    """Raycast + camera-to-volume lift, exactly as the pipeline inlined it."""
    pose = pose_volume_from_camera
    vertices_cam, normals_cam = _ref_raycast(volume, camera, pose, mu)
    h, w = camera.shape
    flat_v = vertices_cam.reshape(-1, 3)
    flat_n = normals_cam.reshape(-1, 3)
    valid = np.any(flat_n != 0.0, axis=-1)
    v_vol = np.zeros_like(flat_v)
    n_vol = np.zeros_like(flat_n)
    v_vol[valid] = se3.transform_points(pose, flat_v[valid])
    n_vol[valid] = flat_n[valid] @ pose[:3, :3].T
    return ReferenceModel(
        vertices=v_vol.reshape(h, w, 3),
        normals=n_vol.reshape(h, w, 3),
        camera=camera,
        pose_volume_from_camera=np.asarray(
            pose, dtype=float  # f64-ok: pose, 16 values
        ).copy(),
    )


# -- fast adapters ----------------------------------------------------------
def _fast_make_workspace(input_camera: PinholeCamera, params: KFusionParams,
                         levels: int) -> FrameWorkspace:
    return FrameWorkspace(input_camera, params, levels, backend="fast")


def _fast_track_fn(vertices, normals, reference, pose, iters, icp_threshold,
                   ws, huber_delta=None):
    return _fast_track.track(vertices, normals, reference, pose, iters,
                             icp_threshold, ws, huber_delta=huber_delta)


REFERENCE_BACKEND = KernelBackend(
    name="reference",
    bilateral_filter=_ref_bilateral,
    build_pyramid=_ref_build_pyramid,
    vertex_normal_pyramid=_ref_vertex_normal_pyramid,
    track=_ref_track_fn,
    integrate=_ref_integrate_fn,
    raycast_model=_ref_raycast_model,
)

FAST_BACKEND = KernelBackend(
    name="fast",
    bilateral_filter=_fast_pre.bilateral_filter,
    build_pyramid=_fast_pre.build_pyramid,
    vertex_normal_pyramid=_fast_pre.vertex_normal_pyramid,
    track=_fast_track_fn,
    integrate=_fast_integrate.integrate,
    raycast_model=_fast_raycast.raycast_model,
    make_workspace=_fast_make_workspace,
)


# -- sparse adapters --------------------------------------------------------
def _sparse_make_workspace(input_camera: PinholeCamera,
                           params: KFusionParams,
                           levels: int) -> FrameWorkspace:
    return FrameWorkspace(input_camera, params, levels, backend="sparse")


def _sparse_make_volume(resolution: int, size: float) -> SparseTSDFVolume:
    return SparseTSDFVolume(resolution, size)


SPARSE_BACKEND = KernelBackend(
    name="sparse",
    bilateral_filter=_fast_pre.bilateral_filter,
    build_pyramid=_fast_pre.build_pyramid,
    vertex_normal_pyramid=_fast_pre.vertex_normal_pyramid,
    track=_fast_track_fn,
    integrate=_sparse_integrate.integrate,
    raycast_model=_sparse_raycast.raycast_model,
    make_workspace=_sparse_make_workspace,
    make_volume=_sparse_make_volume,
)

register_kernel_backend(REFERENCE_BACKEND)
register_kernel_backend(FAST_BACKEND)
register_kernel_backend(SPARSE_BACKEND)
