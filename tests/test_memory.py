"""Tests for the memory-footprint model and the memory the kernels use."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.datasets import icl_nuim
from repro.kfusion import KFusionParams, KinectFusion
from repro.kfusion.memory import (
    SPARSE_BLOCK,
    compute_pyramid_px,
    frame_buffers_bytes,
    sparse_band_samples,
    sparse_chunk_blocks,
    stage_workspace_bytes,
    total_bytes,
    volume_bytes,
    workspace_bytes,
)
from repro.kfusion.sparse import SparseTSDFVolume
from repro.kfusion.volume import TSDFVolume
from repro.perf import get_kernel_backend, register_kernel_backend
from repro.perf import registry as perf_registry


class TestMemoryModel:
    def test_volume_dominates_at_default(self):
        p = KFusionParams()
        assert volume_bytes(p) > frame_buffers_bytes(p, 320, 240)

    def test_volume_bytes_exact(self):
        p = KFusionParams(volume_resolution=64)
        assert volume_bytes(p) == 2 * 4 * 64**3

    def test_cubic_growth(self):
        small = volume_bytes(KFusionParams(volume_resolution=64))
        large = volume_bytes(KFusionParams(volume_resolution=128))
        assert large == 8 * small

    def test_compute_ratio_shrinks_buffers(self):
        full = frame_buffers_bytes(KFusionParams(compute_size_ratio=1),
                                   320, 240)
        half = frame_buffers_bytes(KFusionParams(compute_size_ratio=2),
                                   320, 240)
        assert half < full

    def test_default_footprint_matches_slambench_scale(self):
        # 256^3 x 2 fields x 4 bytes = 128 MiB volume — the number the
        # SLAMBench papers quote for the default configuration.
        p = KFusionParams()
        assert volume_bytes(p) == 128 * 1024 * 1024
        assert total_bytes(p) < 140 * 1024 * 1024

    def test_embedded_configs_fit_small_memory(self):
        p = KFusionParams(volume_resolution=64, compute_size_ratio=4)
        assert total_bytes(p) < 4 * 1024 * 1024


class TestSparseSizedToVolume:
    """The default sparse backend holds no more than the dense one on
    small volumes (a serve session's 32x24 frames into a 32^3 grid)."""

    PARAMS = KFusionParams(volume_resolution=32, volume_size=4.8)

    def test_arena_budget_within_dense(self):
        sparse = workspace_bytes(self.PARAMS, 32, 24, 3, "sparse")
        fast = workspace_bytes(self.PARAMS, 32, 24, 3, "fast")
        assert sparse <= fast

    def test_fresh_block_arrays_within_dense_volume(self):
        sparse = SparseTSDFVolume(32, 4.8)
        dense = TSDFVolume(32, 4.8)
        held = sparse.tsdf_blocks.nbytes + sparse.weight_blocks.nbytes
        assert held <= dense.allocated_bytes
        assert sparse.tsdf_blocks.shape[0] == 4**3

    def test_large_volumes_keep_fixed_sizes(self):
        # 128^3 is 16^3 blocks: capacity and chunk hit their caps.
        assert SparseTSDFVolume(128, 4.8).tsdf_blocks.shape[0] == 512
        assert sparse_chunk_blocks(16) == 1024
        assert sparse_chunk_blocks(1) == 1

    def test_growth_capped_at_block_grid(self):
        vol = SparseTSDFVolume(48, 4.8, initial_blocks=64)  # 6^3 blocks
        grid = np.stack(np.meshgrid(*[np.arange(6)] * 3, indexing="ij"),
                        axis=-1).reshape(-1, 3)
        slots = vol.ensure_blocks(grid)
        assert sorted(slots) == list(range(216))
        assert vol.tsdf_blocks.shape[0] == 216


class TestStageSplit:
    @pytest.mark.parametrize("ratio", [1, 2, 4, 8])
    @pytest.mark.parametrize("shape", [(320, 240), (80, 60), (100, 77)])
    def test_stage_split_sums_to_arena_budget(self, ratio, shape):
        """stage_workspace_bytes is an exact partition of workspace_bytes."""
        params = KFusionParams(volume_resolution=64,
                               compute_size_ratio=ratio)
        width, height = shape
        split = stage_workspace_bytes(params, width, height)
        assert sum(split.values()) == workspace_bytes(params, width, height)
        assert set(split) == {"preprocess", "track", "integrate", "raycast"}


# -- the arena and the kernels' temporaries, measured where they run -------

#: Per-frame kernel slots of a :class:`~repro.perf.KernelBackend`.
SLOTS = ("bilateral_filter", "build_pyramid", "vertex_normal_pyramid",
         "track", "integrate", "raycast_model")

#: Arena buffer-name prefix -> the stage whose kernels own the buffer.
ARENA_PREFIXES = {"bf_": "preprocess", "pyr_": "preprocess",
                  "icp_": "track", "int_": "integrate", "rc_": "raycast"}

#: Run shapes: (input width, height, frames, configuration).  ``small``
#: is the test suite's 80x60 into 64^3; ``rt320`` is perfbench's
#: stream-rt320 point (320x240 at compute ratio 8, 128^3, integrating
#: every third frame); ``serve`` is one serve-open session (32x24, 32^3).
RUNS = {
    "small": (80, 60, 6, {"volume_resolution": 64, "volume_size": 5.0}),
    "rt320": (320, 240, 8, {"volume_resolution": 128, "volume_size": 5.0,
                            "compute_size_ratio": 8,
                            "integration_rate": 3}),
    "serve": (32, 24, 12, {"volume_resolution": 32, "volume_size": 4.8}),
}


def _traced_backend(backend, peaks: dict):
    """``backend`` with every kernel slot wrapped to record, per call,
    its tracemalloc peak above the traced size at entry."""
    def wrap(slot, fn):
        def call(*args, **kwargs):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = fn(*args, **kwargs)
            peaks.setdefault(slot, []).append(
                tracemalloc.get_traced_memory()[1] - entry)
            return out
        return call
    return dataclasses.replace(
        backend, name=f"{backend.name}-traced",
        **{slot: wrap(slot, getattr(backend, slot)) for slot in SLOTS})


def _load(run: str):
    width, height, frames, _ = RUNS[run]
    seq = icl_nuim.load("lr_kt0", n_frames=frames, width=width,
                        height=height, seed=1)
    seq.materialize()
    return seq


def _run_traced(backend: str, run: str,
                seq) -> tuple[dict, dict, KFusionParams]:
    """Run ``backend`` over ``seq`` in the ``run`` configuration under
    tracemalloc.

    Returns the per-slot call peaks, the arena's bytes grouped by
    stage, and the run's parameters.
    """
    config = RUNS[run][3]
    peaks: dict = {}
    traced = _traced_backend(get_kernel_backend(backend), peaks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(perf_registry, "_BACKENDS",
                   dict(perf_registry._BACKENDS))
        register_kernel_backend(traced)
        # Driven by hand: ``run_benchmark`` cleans the system, and clean
        # releases the arena.
        system = KinectFusion(kernel_backend=traced.name)
        system.new_configuration().update(config)
        system.init(seq.sensors)
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            for frame in seq:
                system.update_frame(frame)
                system.process_once()
        finally:
            if started:
                tracemalloc.stop()
    held = dict.fromkeys(("preprocess", "track", "integrate", "raycast"), 0)
    for name, buf in system._workspace._buffers.items():
        stage = next(stage for prefix, stage in ARENA_PREFIXES.items()
                     if name.startswith(prefix))
        held[stage] += buf.nbytes
    return peaks, held, system.params


@pytest.fixture(scope="module")
def traced_runs():
    """One traced run per (backend, run shape), made on first use; each
    shape's input is rendered once."""
    sequences: dict = {}
    cache: dict = {}

    def get(backend: str, run: str):
        if run not in sequences:
            sequences[run] = _load(run)
        if (backend, run) not in cache:
            cache[(backend, run)] = _run_traced(backend, run, sequences[run])
        return cache[(backend, run)]
    return get


class TestArenaMatchesModel:
    """A warmed arena holds exactly what the memory model charges each
    stage.  The model is the budget ``FrameWorkspace`` enforces; a
    kernel that takes an arena-earmarked buffer from numpy instead (the
    fast raycaster's per-ray march state once did) leaves its stage
    short, and one that adds an unmodelled buffer leaves it over."""

    @pytest.mark.parametrize("run", ["small", "rt320"])
    @pytest.mark.parametrize("backend", ["fast", "sparse"])
    def test_stage_bytes_equal_model(self, traced_runs, backend, run):
        _, held, params = traced_runs(backend, run)
        width, height, _, _ = RUNS[run]
        assert held == stage_workspace_bytes(params, width, height, 3,
                                             backend=backend)


#: The sparse raycast's march-segment length this file's bound is
#: derived for (``perf.sparse_raycast.SEGMENT_STEPS``).  A test
#: constant on purpose: a bound that followed the module's value would
#: grow with exactly the tile growth it is here to catch.
MARCH_SEGMENT = 16


def _slot_bounds(backend: str, run: str, params: KFusionParams) -> dict:
    """Per-call byte bound on each slot's temporaries, from the sizes.

    Coefficients are bytes per element of the working set each kernel
    scales with, with headroom over the measured peaks; none is a
    recorded byte count.
    """
    width, height, _, _ = RUNS[run]
    ratio = params.compute_size_ratio
    cw, ch = width // ratio, height // ratio
    px = cw * ch
    pyramid_px = compute_pyramid_px(cw, ch, 3)
    r = params.volume_resolution
    nb = -(-r // SPARSE_BLOCK)
    # Preprocess: a few f32/bool planes per (pyramid) pixel.
    bounds = {"bilateral_filter": 16 * px,
              "build_pyramid": 16 * pyramid_px,
              "vertex_normal_pyramid": 64 * pyramid_px}
    # Track: per pixel of a level, the gathered f32 reference rows and
    # the matched subset the f64 solver works on (~220 bytes at most).
    bounds["track"] = 256 * pyramid_px
    if backend == "fast":
        # Dense integrate: index and mask temporaries over the grid.
        bounds["integrate"] = 16 * r**3
        # Dense raycast: march samples of the live rays plus six
        # gradient samples per hit ray.
        bounds["raycast_model"] = 1024 * px
    else:
        samples = sparse_band_samples(params.mu_distance,
                                      params.volume_size / r)
        lanes = sparse_chunk_blocks(nb) * SPARSE_BLOCK**3
        # Sparse integrate: the band's masked sample copies, the update's
        # index/value temporaries on the lanes that update (about a
        # third of a chunk's lanes, ~40 bytes each), and the frustum
        # cull's f64 corners per block of the grid.
        bounds["integrate"] = 64 * px * samples + 16 * lanes + 768 * nb**3
        # Sparse raycast: per ray, the six gradient samples of a hit;
        # per (ray, step) of one march segment, the voxel-space tile,
        # its sub-block flags and the sampled entries.
        bounds["raycast_model"] = (1560 * px
                                   + 64 * px * (MARCH_SEGMENT + 1))
    return bounds


class TestKernelAllocationBounds:
    """Each kernel slot's warmed call allocates at most a bound derived
    from the configuration's sizes (peak traced bytes above the traced
    size at entry).  The arena's buffers are reused, so they show only
    on a slot's first call, which is left out."""

    @pytest.mark.parametrize("run", ["rt320", "serve"])
    @pytest.mark.parametrize("backend", ["fast", "sparse"])
    def test_warmed_peak_within_bound(self, traced_runs, backend, run):
        peaks, _, params = traced_runs(backend, run)
        bounds = _slot_bounds(backend, run, params)
        assert set(peaks) == set(SLOTS)
        over = {}
        for slot, calls in peaks.items():
            assert len(calls) > 1, f"{slot}: no warmed call"
            if max(calls[1:]) > bounds[slot]:
                over[slot] = (max(calls[1:]), bounds[slot])
        assert not over, f"warmed peak over bound (peak, bound): {over}"
