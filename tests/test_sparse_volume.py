"""Tests for the sparse voxel-block TSDF volume (``repro.kfusion.sparse``).

Three layers:

* **BlockHash properties** — hypothesis-driven insert/lookup/rehash
  round-trips; no key is lost to collisions even at high load.
* **SparseTSDFVolume semantics** — allocation, the hash/slot-table
  mirror agreement, dense-volume read semantics over unallocated space,
  occupancy statistics.
* **integrate/raycast bit-equivalence** — within allocated blocks the
  sparse kernels reproduce the dense fast kernels *bit-for-bit* (the
  foundation of the sparse backend's golden equivalence; DESIGN.md S22).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import icl_nuim
from repro.errors import ConfigurationError
from repro.geometry import PinholeCamera, se3
from repro.kfusion import KinectFusion
from repro.kfusion.memory import stage_workspace_bytes, workspace_bytes
from repro.kfusion.params import KFusionParams
from repro.kfusion.sparse import (
    BLOCK,
    BlockHash,
    SparseTSDFVolume,
    pack_block_coords,
    unpack_block_coords,
)
from repro.kfusion.volume import TSDFVolume
from repro.perf import FrameWorkspace
from repro.perf import integrate as fast_integrate_mod
from repro.perf import raycast as fast_raycast_mod
from repro.perf import sparse_integrate, sparse_raycast

CAM = PinholeCamera.kinect_like(width=48, height=36)
#: Resolution divisible by BLOCK so the sparse grid has no padding voxels.
PARAMS = KFusionParams(volume_resolution=48, volume_size=5.0)

coord_arrays = st.lists(
    st.tuples(*(st.integers(min_value=0, max_value=5),) * 3),
    min_size=1, max_size=64,
)


def synthetic_depth(camera=CAM, seed=0, hole_fraction=0.15):
    rng = np.random.default_rng(seed)
    h, w = camera.shape
    yy, xx = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    depth = 2.0 + 0.4 * np.sin(xx / 7.0) + 0.3 * np.cos(yy / 5.0)
    depth += 0.02 * rng.standard_normal((h, w))
    depth[rng.random((h, w)) < hole_fraction] = 0.0
    return depth.astype(np.float32)


# ---------------------------------------------------------------------------
# Packed block coordinates
# ---------------------------------------------------------------------------
@given(coords=st.lists(
    st.tuples(*(st.integers(min_value=0, max_value=(1 << 20) - 1),) * 3),
    min_size=1, max_size=50,
))
@settings(max_examples=50, deadline=None)
def test_pack_unpack_roundtrip(coords):
    c = np.array(coords, dtype=np.int64)
    keys = pack_block_coords(c)
    np.testing.assert_array_equal(unpack_block_coords(keys), c)
    # Packing is injective: distinct coords -> distinct keys.
    assert len(np.unique(keys)) == len(np.unique(c, axis=0))


# ---------------------------------------------------------------------------
# BlockHash
# ---------------------------------------------------------------------------
class TestBlockHash:
    def test_rejects_bad_capacity(self):
        with pytest.raises(ConfigurationError):
            BlockHash(capacity=48)
        with pytest.raises(ConfigurationError):
            BlockHash(capacity=4)

    def test_empty_lookup_misses(self):
        h = BlockHash()
        np.testing.assert_array_equal(
            h.lookup(np.array([0, 1, 12345], dtype=np.int64)), [-1, -1, -1]
        )

    @given(keys=st.lists(st.integers(min_value=0, max_value=(1 << 60) - 1),
                         min_size=1, max_size=200, unique=True),
           n_batches=st.integers(min_value=1, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_insert_lookup_roundtrip(self, keys, n_batches):
        """Batched inserts (forcing rehashes from a tiny table) lose
        nothing: every key maps back to its slot, absentees miss."""
        h = BlockHash(capacity=8)
        keys = np.array(keys, dtype=np.int64)
        slots = np.arange(keys.size, dtype=np.int32)
        for part_k, part_s in zip(np.array_split(keys, n_batches),
                                  np.array_split(slots, n_batches)):
            h.insert(part_k, part_s)
        assert len(h) == keys.size
        np.testing.assert_array_equal(h.lookup(keys), slots)
        # Shuffled query order must not matter.
        perm = np.random.default_rng(0).permutation(keys.size)
        np.testing.assert_array_equal(h.lookup(keys[perm]), slots[perm])
        absent = keys + np.int64(1 << 61)
        np.testing.assert_array_equal(h.lookup(absent),
                                      np.full(keys.size, -1))

    def test_no_collision_loss_at_high_load(self):
        """Thousands of clustered keys (worst case for linear probing)
        survive repeated growth without dropping a single mapping."""
        h = BlockHash(capacity=8)
        side = 17  # 4913 keys, clustered coordinates
        grid = np.stack(np.meshgrid(*(np.arange(side),) * 3,
                                    indexing="ij"), axis=-1).reshape(-1, 3)
        keys = pack_block_coords(grid)
        slots = np.arange(keys.size, dtype=np.int32)
        h.insert(keys, slots)
        assert len(h) == keys.size
        assert h.load_factor <= h.max_load
        assert h.capacity & (h.capacity - 1) == 0
        np.testing.assert_array_equal(h.lookup(keys), slots)

    def test_items_round_trip(self):
        h = BlockHash()
        keys = pack_block_coords(np.array([[1, 2, 3], [4, 5, 6]]))
        h.insert(keys, np.array([7, 9], dtype=np.int32))
        got_k, got_s = h.items()
        assert dict(zip(got_k.tolist(), got_s.tolist())) == \
            {int(keys[0]): 7, int(keys[1]): 9}


# ---------------------------------------------------------------------------
# SparseTSDFVolume
# ---------------------------------------------------------------------------
class TestSparseVolume:
    @given(batches=st.lists(coord_arrays, min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_slot_table_mirrors_hash(self, batches):
        """After arbitrary allocation batches the dense slot table and
        the canonical hash agree on every allocated block."""
        vol = SparseTSDFVolume(resolution=48, size=5.0, initial_blocks=64)
        nb = vol.blocks_per_side
        for batch in batches:
            coords = np.array(batch, dtype=np.int64)
            slots = vol.ensure_blocks(coords)
            # Idempotent: a second call returns the same slots.
            np.testing.assert_array_equal(vol.ensure_blocks(coords), slots)
        keys, hash_slots = vol.hash.items()
        assert len(keys) == vol.allocated_blocks
        c = unpack_block_coords(keys).astype(np.int64)
        flat = (c[:, 0] * nb + c[:, 1]) * nb + c[:, 2]
        np.testing.assert_array_equal(vol.block_slot_table[flat], hash_slots)
        # Everything else is unallocated in both views.
        mask = np.ones(nb**3, dtype=bool)
        mask[flat] = False
        assert np.all(vol.block_slot_table[mask] == -1)
        # Occupancy mask matches the allocation set exactly.
        occ = np.zeros(nb**3, dtype=bool)
        occ[flat] = True
        np.testing.assert_array_equal(vol.block_occupancy.reshape(-1), occ)

    def test_lookup_unallocated_is_minus_one(self):
        vol = SparseTSDFVolume(resolution=48, size=5.0)
        vol.ensure_blocks(np.array([[1, 1, 1]]))
        got = vol.lookup_blocks(np.array([[1, 1, 1], [2, 2, 2]]))
        assert got[0] >= 0 and got[1] == -1

    def test_unallocated_space_reads_empty(self):
        """Fresh volume samples like the dense volume's initial state."""
        vol = SparseTSDFVolume(resolution=48, size=5.0)
        pts = np.array([[2.5, 2.5, 2.5], [0.7, 3.1, 4.2]])
        values, valid = vol.sample_trilinear(pts)
        np.testing.assert_array_equal(values, 1.0)
        assert not valid.any()
        assert vol.occupied_fraction() == 0.0
        assert vol.extract_surface_points().shape == (0, 3)

    def test_reset_drops_all_blocks(self):
        vol = SparseTSDFVolume(resolution=48, size=5.0)
        vol.ensure_blocks(np.array([[0, 0, 0], [3, 3, 3]]))
        before = vol.allocated_bytes
        vol.reset()
        assert vol.allocated_blocks == 0
        assert vol.allocated_bytes < before
        assert not vol.block_occupancy.any()
        assert np.all(vol.block_slot_table == -1)

    def test_growth_preserves_content(self):
        vol = SparseTSDFVolume(resolution=48, size=5.0, initial_blocks=64)
        slot = int(vol.ensure_blocks(np.array([[2, 2, 2]]))[0])
        vol.tsdf_blocks[slot, 5] = np.float32(-0.25)
        vol.weight_blocks[slot, 5] = np.float32(3.0)
        # Force block-array growth past the initial capacity.
        vol.ensure_blocks(np.stack(np.meshgrid(*(np.arange(5),) * 3,
                                               indexing="ij"),
                                   axis=-1).reshape(-1, 3))
        assert vol.allocated_blocks > 64
        assert vol.tsdf_blocks[slot, 5] == np.float32(-0.25)
        assert vol.weight_blocks[slot, 5] == np.float32(3.0)


# ---------------------------------------------------------------------------
# Sparse vs dense fast kernels (bit-level)
# ---------------------------------------------------------------------------
def _integrated_pair(n_frames=3):
    """Static-camera fusion of the same depth into dense + sparse volumes.

    A static scene allocates the full truncation band on the first
    frame, so every voxel the dense kernel updates inside an allocated
    block sees the identical update sequence in the sparse kernel.
    """
    pose = se3.make_pose(np.eye(3), np.array([2.5, 2.5, 0.0]))
    depth = synthetic_depth(seed=0)
    dense = TSDFVolume(resolution=48, size=5.0)
    sparse = SparseTSDFVolume(resolution=48, size=5.0)
    ws_dense = FrameWorkspace(CAM, PARAMS, levels=3)
    ws_sparse = FrameWorkspace(CAM, PARAMS, levels=3, backend="sparse")
    for _ in range(n_frames):
        fast_integrate_mod.integrate(dense, depth, CAM, pose,
                                     PARAMS.mu_distance, ws_dense)
        sparse_integrate.integrate(sparse, depth, CAM, pose,
                                   PARAMS.mu_distance, ws_sparse)
    return dense, sparse, pose, ws_dense, ws_sparse


@pytest.fixture(scope="module")
def integrated_pair():
    return _integrated_pair()


class TestSparseKernelEquivalence:
    def test_integrate_bit_identical_in_allocated_blocks(self,
                                                         integrated_pair):
        dense, sparse, _, _, _ = integrated_pair
        s_tsdf, s_weight = sparse.densify()
        allocated = np.repeat(
            np.repeat(np.repeat(sparse.block_occupancy, BLOCK, 0),
                      BLOCK, 1), BLOCK, 2)
        r = sparse.resolution
        allocated = allocated[:r, :r, :r]
        assert allocated.any()
        np.testing.assert_array_equal(s_tsdf[allocated],
                                      dense.tsdf[allocated])
        np.testing.assert_array_equal(s_weight[allocated],
                                      dense.weight[allocated])
        # Outside the allocated blocks the sparse volume is pristine.
        np.testing.assert_array_equal(s_tsdf[~allocated], 1.0)
        np.testing.assert_array_equal(s_weight[~allocated], 0.0)

    def test_every_observed_voxel_is_allocated(self, integrated_pair):
        """No observed-surface voxel may fall outside allocated blocks
        (the band allocator's coverage guarantee near the surface)."""
        dense, sparse, _, _, _ = integrated_pair
        _, s_weight = sparse.densify()
        near = (dense.weight > 0) & (np.abs(dense.tsdf) < 0.5)
        assert near.any()
        assert np.array_equal(s_weight[near] > 0, dense.weight[near] > 0)

    def test_raycast_bit_identical(self, integrated_pair):
        dense, sparse, pose, ws_dense, ws_sparse = integrated_pair
        fast = fast_raycast_mod.raycast_model(
            dense, CAM, pose, PARAMS.mu_distance, ws_dense)
        got = sparse_raycast.raycast_model(
            sparse, CAM, pose, PARAMS.mu_distance, ws_sparse)
        assert np.any(got.normals != 0)
        np.testing.assert_array_equal(got.vertices, fast.vertices)
        np.testing.assert_array_equal(got.normals, fast.normals)

    def test_stage_split_sums_to_budget(self):
        """The sparse arena keeps the exact-partition invariant: the
        per-stage split is term-for-term the whole budget."""
        split = stage_workspace_bytes(PARAMS, CAM.width, CAM.height, 3,
                                      backend="sparse")
        assert sum(split.values()) == workspace_bytes(
            PARAMS, CAM.width, CAM.height, 3, backend="sparse")
        assert set(split) == {"preprocess", "track", "integrate", "raycast"}

    def test_full_sparse_frame_run_stays_in_budget(self):
        """The arena the sparse pipeline builds must fit its own model."""
        seq = icl_nuim.load("lr_kt0", n_frames=3, width=64, height=48,
                            seed=0)
        seq.materialize()
        # Driven by hand: ``run_benchmark`` cleans the system, and clean
        # releases the arena.
        system = KinectFusion(kernel_backend="sparse")
        system.new_configuration().update({
            "volume_resolution": 64, "volume_size": 5.0,
        })
        system.init(seq.sensors)
        for frame in seq:
            system.update_frame(frame)
            system.process_once()
        ws = system._workspace
        assert ws is not None and len(ws) > 0
        assert ws.nbytes <= ws.budget_bytes

    def test_occupancy_stats_match_densified(self, integrated_pair):
        _, sparse, _, _, _ = integrated_pair
        s_tsdf, s_weight = sparse.densify()
        observed = int(np.count_nonzero(s_weight > 0))
        assert sparse.occupied_fraction() == pytest.approx(
            observed / sparse.resolution**3)
        pts = sparse.extract_surface_points(threshold=0.25)
        expect = np.count_nonzero((s_weight > 0) & (np.abs(s_tsdf) < 0.25))
        assert len(pts) == expect
        assert pts.shape[1] == 3
        if len(pts):
            assert np.all((pts >= 0) & (pts <= sparse.size))
