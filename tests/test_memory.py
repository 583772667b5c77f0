"""Tests for the memory-footprint model."""

import numpy as np
import pytest

from repro.kfusion import KFusionParams
from repro.kfusion.memory import (
    frame_buffers_bytes,
    sparse_chunk_blocks,
    total_bytes,
    volume_bytes,
    workspace_bytes,
)
from repro.kfusion.sparse import SparseTSDFVolume
from repro.kfusion.volume import TSDFVolume


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
