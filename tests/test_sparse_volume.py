"""Tests for the sparse voxel-block TSDF volume (``repro.kfusion.sparse``).

Layers:

* **SparseTSDFVolume semantics** — allocation, the slot table /
  ``block_coords`` inverse pair, dense-volume read semantics over
  unallocated space, occupancy statistics.
* **integrate/raycast bit-equivalence** — within allocated blocks the
  sparse kernels reproduce the dense fast kernels *bit-for-bit* (the
  foundation of the sparse backend's golden equivalence; DESIGN.md S22).
* **Non-positive mask** — the sub-block mask the raycaster skips space
  against equals a from-scratch rebuild after every fuse, and over
  random volumes the sparse raycast stays bit-identical to the dense
  fast raycast of the densified volume.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import icl_nuim
from repro.geometry import PinholeCamera, se3
from repro.kfusion import KinectFusion
from repro.kfusion.memory import stage_workspace_bytes, workspace_bytes
from repro.kfusion.params import KFusionParams
from repro.kfusion.sparse import (
    BLOCK,
    NONPOS_FLOOR,
    SUB,
    SparseTSDFVolume,
)
from repro.kfusion.volume import TSDFVolume
from repro.perf import FrameWorkspace
from repro.perf import integrate as fast_integrate_mod
from repro.perf import raycast as fast_raycast_mod
from repro.perf import sparse_integrate, sparse_raycast, trilinear

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
# SparseTSDFVolume
# ---------------------------------------------------------------------------
class TestSparseVolume:
    @given(batches=st.lists(coord_arrays, min_size=1, max_size=4))
    @settings(max_examples=30, deadline=None)
    def test_slot_table_mirrors_block_coords(self, batches):
        """After arbitrary allocation batches the dense slot table and
        ``block_coords`` are inverses over every allocated block, and
        slots go out in first-seen batch order, lexicographic within a
        batch."""
        vol = SparseTSDFVolume(resolution=48, size=5.0, initial_blocks=64)
        nb = vol.blocks_per_side
        expected: list[tuple] = []
        for batch in batches:
            coords = np.array(batch, dtype=np.int64)
            expected += sorted(set(map(tuple, batch)) - set(expected))
            slots = vol.ensure_blocks(coords)
            # Idempotent: a second call returns the same slots.
            np.testing.assert_array_equal(vol.ensure_blocks(coords), slots)
        n = vol.allocated_blocks
        assert n == len(expected)
        c = vol.block_coords[:n].astype(np.int64)
        np.testing.assert_array_equal(c, np.array(expected).reshape(-1, 3))
        flat = (c[:, 0] * nb + c[:, 1]) * nb + c[:, 2]
        np.testing.assert_array_equal(vol.block_slot_table[flat],
                                      np.arange(n))
        # Everything else is unallocated.
        mask = np.ones(nb**3, dtype=bool)
        mask[flat] = False
        assert np.all(vol.block_slot_table[mask] == -1)

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
#: Static-camera scenes per resolution: volume size and camera position.
#: 48 is a whole number of blocks.  44 (5.5 blocks, same voxel size)
#: pads the block grid, and its camera sits so that the truncation band
#: crosses the grid's far x, y and z faces: padding voxels then lie in
#: allocated, in-view blocks in front of measured depth.
PAIR_SCENES = {
    48: (5.0, (2.5, 2.5, 0.0)),
    44: (5.0 * 44 / 48, (3.8, 3.8, 2.2)),
}


def _integrated_pair(resolution=48, n_frames=3):
    """Static-camera fusion of the same depth into dense + sparse volumes.

    A static scene allocates the full truncation band on the first
    frame, so every voxel the dense kernel updates inside an allocated
    block sees the identical update sequence in the sparse kernel.
    """
    size, position = PAIR_SCENES[resolution]
    params = KFusionParams(volume_resolution=resolution, volume_size=size)
    pose = se3.make_pose(np.eye(3), np.array(position))
    depth = synthetic_depth(seed=0)
    dense = TSDFVolume(resolution=resolution, size=size)
    sparse = SparseTSDFVolume(resolution=resolution, size=size)
    ws_dense = FrameWorkspace(CAM, params, levels=3, backend="fast")
    ws_sparse = FrameWorkspace(CAM, params, levels=3, backend="sparse")
    for _ in range(n_frames):
        fast_integrate_mod.integrate(dense, depth, CAM, pose,
                                     params.mu_distance, ws_dense)
        sparse_integrate.integrate(sparse, depth, CAM, pose,
                                   params.mu_distance, ws_sparse)
    return dense, sparse, pose, ws_dense, ws_sparse


@pytest.fixture(scope="module")
def integrated_pair():
    return _integrated_pair()


class TestSparseKernelEquivalence:
    @pytest.mark.parametrize("resolution", sorted(PAIR_SCENES))
    def test_integrate_bit_identical_in_allocated_blocks(self, resolution):
        dense, sparse, _, _, _ = _integrated_pair(resolution)
        s_tsdf, s_weight = sparse.densify()
        nb = sparse.blocks_per_side
        occupancy = sparse.block_slot_table.reshape(nb, nb, nb) >= 0
        allocated = np.repeat(
            np.repeat(np.repeat(occupancy, BLOCK, 0), BLOCK, 1), BLOCK, 2)
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
        # So are the padding voxels past the grid inside allocated blocks.
        n = sparse.allocated_blocks
        axes = sparse.block_coords[:n, :, None] * BLOCK + np.arange(BLOCK)
        padding = ((axes[:, 0, :, None, None] >= r)
                   | (axes[:, 1, None, :, None] >= r)
                   | (axes[:, 2, None, None, :] >= r)).reshape(n, -1)
        assert padding.any() == (r % BLOCK != 0)
        np.testing.assert_array_equal(sparse.tsdf_blocks[:n][padding], 1.0)
        np.testing.assert_array_equal(sparse.weight_blocks[:n][padding],
                                      0.0)

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

    @pytest.mark.parametrize("resolution", sorted(PAIR_SCENES))
    def test_integrate_buffers_match_model(self, resolution):
        """The memory model's integrate term is the sparse integrate's
        arena inventory to the byte."""
        _, _, _, _, ws = _integrated_pair(resolution, n_frames=1)
        size, _ = PAIR_SCENES[resolution]
        params = KFusionParams(volume_resolution=resolution,
                               volume_size=size)
        held = sum(buf.nbytes for name, buf in ws._buffers.items()
                   if name.startswith("int_"))
        assert held == stage_workspace_bytes(
            params, CAM.width, CAM.height, 3, backend="sparse")["integrate"]

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


# ---------------------------------------------------------------------------
# Non-positive sub-block mask
# ---------------------------------------------------------------------------
def rebuilt_nonpositive_mask(vol):
    """From-scratch oracle: flag 2^3 sub-blocks of the densified grid
    holding a voxel below the floor, then OR each sub-block with its
    forward neighbours (s + {0,1}^3)."""
    nbv = vol.blocks_per_side * BLOCK
    tsdf = np.ones((nbv,) * 3, dtype=np.float32)
    r = vol.resolution
    tsdf[:r, :r, :r] = vol.densify()[0]
    ns = nbv // SUB
    sub = (tsdf < NONPOS_FLOOR).reshape(ns, SUB, ns, SUB, ns, SUB) \
        .any(axis=(1, 3, 5))
    padded = np.pad(sub, ((0, 1),) * 3)
    out = np.zeros_like(sub)
    for dx in (0, 1):
        for dy in (0, 1):
            for dz in (0, 1):
                out |= padded[dx:dx + ns, dy:dy + ns, dz:dz + ns]
    return out


class TestNonPositiveMask:
    def test_matches_rebuild_after_every_fuse(self):
        """Over a moving lr_kt0 run, each fuse leaves the mask equal to a
        from-scratch rebuild — including sub-blocks whose flag turns
        off when later frames carve a voxel back above zero."""
        seq = icl_nuim.load("lr_kt0", n_frames=12, width=64, height=48,
                            seed=0)
        seq.materialize()
        system = KinectFusion(kernel_backend="sparse")
        system.new_configuration().update({
            "volume_resolution": 64, "volume_size": 5.0,
            "integration_rate": 1,
        })
        system.init(seq.sensors)
        prev = None
        turned_off = 0
        for frame in seq:
            system.update_frame(frame)
            system.process_once()
            mask = system.volume.nonpositive_mask
            np.testing.assert_array_equal(
                mask, rebuilt_nonpositive_mask(system.volume))
            if prev is not None:
                turned_off += int(np.count_nonzero(prev & ~mask))
            prev = mask.copy()
        assert prev.any()
        assert turned_off > 0

    def test_reset_clears(self):
        vol = SparseTSDFVolume(resolution=48, size=5.0)
        slot = int(vol.ensure_blocks(np.array([[2, 2, 2]]))[0])
        vol.tsdf_blocks[slot, 0] = np.float32(-0.5)
        vol.refresh_nonpositive_mask()
        assert vol.nonpositive_mask.any()
        vol.reset()
        assert not vol.nonpositive_mask.any()

    @pytest.mark.parametrize("value", [-0.5, 0.0, -0.0, 1e-45, 2.0**-70])
    def test_flags_values_below_floor(self, value):
        """A voxel flags its own sub-block and the sub-blocks whose
        samples reach it as a corner (backward along every axis)."""
        vol = SparseTSDFVolume(resolution=48, size=5.0)
        slot = int(vol.ensure_blocks(np.array([[2, 2, 2]]))[0])
        # Local voxel (2, 4, 6) of block (2, 2, 2): sub-block (9, 10, 11).
        vol.tsdf_blocks[slot, (2 * BLOCK + 4) * BLOCK + 6] = \
            np.float32(value)
        vol.refresh_nonpositive_mask()
        got = np.argwhere(vol.nonpositive_mask)
        want = np.argwhere(np.ones((2, 2, 2), dtype=bool)) + [8, 9, 10]
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(vol.nonpositive_mask,
                                      rebuilt_nonpositive_mask(vol))

    def test_floor_and_above_stay_clear(self):
        vol = SparseTSDFVolume(resolution=48, size=5.0)
        slot = int(vol.ensure_blocks(np.array([[2, 2, 2]]))[0])
        vol.tsdf_blocks[slot, :3] = [NONPOS_FLOOR, np.float32(1e-3), 0.5]
        vol.refresh_nonpositive_mask()
        assert not vol.nonpositive_mask.any()

    def test_growth_keeps_mask(self):
        vol = SparseTSDFVolume(resolution=48, size=5.0, initial_blocks=64)
        slot = int(vol.ensure_blocks(np.array([[2, 2, 2]]))[0])
        vol.tsdf_blocks[slot, 5] = np.float32(-0.25)
        vol.refresh_nonpositive_mask()
        before = vol.nonpositive_mask.copy()
        vol.ensure_blocks(np.stack(np.meshgrid(*(np.arange(5),) * 3,
                                               indexing="ij"),
                                   axis=-1).reshape(-1, 3))
        assert vol.allocated_blocks > 64
        np.testing.assert_array_equal(vol.nonpositive_mask, before)
        vol.refresh_nonpositive_mask()
        np.testing.assert_array_equal(vol.nonpositive_mask, before)

    def test_allocated_bytes_counts_mask(self):
        vol = SparseTSDFVolume(resolution=48, size=5.0)
        assert vol.allocated_blocks == 0
        assert vol.allocated_bytes >= vol.nonpositive_mask.nbytes \
            + vol.block_slot_table.nbytes
        assert vol.nonpositive_mask.shape == (24, 24, 24)


#: Tiny and signed-zero TSDF values planted into random volumes: each
#: sits below the mask floor although some are not negative.
_TINY = np.array([1e-45, 2.0**-70, 0.0, -0.0], dtype=np.float32)


def random_sparse_volume(rng, resolution, size, mu, sphere):
    """A plane or sphere SDF written into a random subset of the blocks
    near its surface, with partial weights and planted tiny values."""
    vol = SparseTSDFVolume(resolution=resolution, size=size)
    nb = vol.blocks_per_side
    nbv = nb * BLOCK
    centres = (np.stack(np.meshgrid(*(np.arange(nbv),) * 3,
                                    indexing="ij"), axis=-1)
               + 0.5) * vol.voxel_size
    if sphere:
        centre = rng.uniform(0.3, 0.7, 3) * size
        radius = rng.uniform(0.15, 0.35) * size
        sdf = np.linalg.norm(centres - centre, axis=-1) - radius
    else:
        normal = rng.normal(size=3)
        normal /= np.linalg.norm(normal)
        sdf = (centres - rng.uniform(0.4, 0.6, 3) * size) @ normal
    tsdf = np.clip(sdf / mu, -1.0, 1.0).astype(np.float32)
    weight = rng.integers(1, 50, tsdf.shape).astype(np.float32)
    weight[rng.random(tsdf.shape) < 0.05] = 0.0
    plant = rng.random(tsdf.shape) < 0.02
    tsdf[plant] = rng.choice(_TINY, int(plant.sum()))
    # Padding voxels past the logical grid stay at the empty state.
    r = resolution
    for pad in (np.s_[r:], np.s_[:, r:], np.s_[:, :, r:]):
        tsdf[pad], weight[pad] = 1.0, 0.0

    # Blocks the truncation band touches, minus a random few.
    near = (np.abs(sdf) < mu + 2 * vol.voxel_size)
    near = near.reshape(nb, BLOCK, nb, BLOCK, nb, BLOCK).any(axis=(1, 3, 5))
    near &= rng.random(near.shape) < 0.9
    coords = np.argwhere(near)
    slots = vol.ensure_blocks(coords)
    for (bx, by, bz), slot in zip(coords * BLOCK, slots):
        sl = np.s_[bx:bx + BLOCK, by:by + BLOCK, bz:bz + BLOCK]
        vol.tsdf_blocks[slot] = tsdf[sl].reshape(-1)
        vol.weight_blocks[slot] = weight[sl].reshape(-1)
    vol.refresh_nonpositive_mask()
    return vol


@given(seed=st.integers(0, 2**32 - 1),
       resolution=st.sampled_from([24, 32, 36]),
       mu=st.floats(0.1, 0.3),
       sphere=st.booleans(),
       eye=st.tuples(*(st.floats(-0.5, 2.5),) * 3),
       jitter=st.tuples(*(st.floats(-0.3, 0.3),) * 3))
@settings(max_examples=60, deadline=None)
def test_sparse_raycast_matches_dense_oracle(seed, resolution, mu, sphere,
                                             eye, jitter):
    """Bit-exact oracle: the sparse raycast of a random volume equals
    the dense fast raycast of its densified copy, vertices and normals.

    The march step (``0.75 * mu``) spans several voxels at the larger
    ``mu``, so a crossing's positive sample often sits in an unflagged
    sub-block and is evaluated only as the predecessor of a flagged
    one."""
    size = 2.0
    rng = np.random.default_rng(seed)
    sparse = random_sparse_volume(rng, resolution, size, mu, sphere)
    dense = TSDFVolume(resolution=resolution, size=size)
    dense.tsdf[:], dense.weight[:] = sparse.densify()

    target = np.full(3, size / 2) + np.array(jitter)
    eye = np.array(eye)
    if np.linalg.norm(target - eye) < 0.1:
        eye = eye + 0.5
    pose = se3.look_at(eye, target)
    cam = PinholeCamera.kinect_like(width=24, height=18)
    params = KFusionParams(volume_resolution=resolution, volume_size=size,
                           mu_distance=mu)
    want = fast_raycast_mod.raycast_model(
        dense, cam, pose, mu, FrameWorkspace(cam, params, levels=1))
    got = sparse_raycast.raycast_model(
        sparse, cam, pose, mu,
        FrameWorkspace(cam, params, levels=1, backend="sparse"))
    np.testing.assert_array_equal(got.vertices, want.vertices)
    np.testing.assert_array_equal(got.normals, want.normals)


def _carry_code(base):
    """3-bit code of the axes on which a base voxel sits on its block's
    last plane (its +1 corner lies in the next block)."""
    last = (base & (BLOCK - 1)) == BLOCK - 1
    return last[:, 0] + 2 * last[:, 1] + 4 * last[:, 2]


@pytest.mark.parametrize("sphere", [False, True])
@pytest.mark.parametrize("resolution", [32, 36])
def test_sparse_sampler_matches_dense_oracle(resolution, sphere):
    """Bit-exact oracle for the corner-major sampler and its gradient:
    ``sample_sparse_f32`` / ``gradient_sparse_f32`` equal
    ``trilinear.sample_f32`` / ``gradient_f32`` on the densified volume.

    The query points cover every carry code with valid samples (so a
    wrong block or in-block delta on any axis reads a wrong voxel),
    samples with a corner in an unallocated block, and points outside
    the grid."""
    size = 2.0
    rng = np.random.default_rng(resolution + 2 * sphere)
    sparse = random_sparse_volume(rng, resolution, size, 0.2, sphere)
    dense = TSDFVolume(resolution=resolution, size=size)
    dense.tsdf[:], dense.weight[:] = sparse.densify()

    r = resolution
    observed = dense.weight > 0
    valid_base = np.ones((r - 1,) * 3, dtype=bool)
    for ox, oy, oz in np.ndindex(2, 2, 2):
        valid_base &= observed[ox:r - 1 + ox, oy:r - 1 + oy, oz:r - 1 + oz]
    nb = sparse.blocks_per_side
    allocated = sparse.block_slot_table.reshape(nb, nb, nb) >= 0
    grid = np.arange(r - 1)
    corner_blocks = [allocated[np.ix_((grid + ox) >> 3, (grid + oy) >> 3,
                                      (grid + oz) >> 3)]
                     for ox, oy, oz in np.ndindex(2, 2, 2)]
    straddling = corner_blocks[0] & ~np.logical_and.reduce(corner_blocks)

    picks = []
    candidates = np.argwhere(valid_base)
    code = _carry_code(candidates)
    for c in range(8):
        of_code = candidates[code == c]
        assert len(of_code), c
        picks.append(of_code[rng.permutation(len(of_code))[:40]])
    # Base block allocated, a carried corner's block not (so the sample
    # is invalid through the block table alone).
    straddling = np.argwhere(straddling)
    assert len(straddling) >= 20
    picks.append(straddling[rng.permutation(len(straddling))[:100]])
    base = np.concatenate(picks)
    voxel = sparse.voxel_size
    points = (base + 0.5 + rng.random(base.shape)) * voxel
    outside = rng.uniform(-0.5, size + 0.5, (200, 3))
    outside[:, rng.integers(0, 3, 200)] = rng.choice([-0.1, size + 0.01],
                                                    200)
    points = np.concatenate([points, outside]).astype(np.float32)

    want_v, want_ok = trilinear.sample_f32(dense, points)
    got_v, got_ok = sparse_raycast.sample_sparse_f32(sparse, points)
    assert want_ok.sum() > 8 * 20 and not want_ok.all()
    np.testing.assert_array_equal(got_ok, want_ok)
    np.testing.assert_array_equal(got_v.view(np.uint32),
                                  want_v.view(np.uint32))
    want_g = trilinear.gradient_f32(dense, points)
    got_g = sparse_raycast.gradient_sparse_f32(sparse, points)
    np.testing.assert_array_equal(got_g.view(np.uint32),
                                  want_g.view(np.uint32))
