"""Sparse voxel-block TSDF volume.

The dense :class:`~repro.kfusion.volume.TSDFVolume` pays for every voxel
on every frame; at ``volume_resolution=128`` that is 2M voxels of which
only a few percent ever sit near observed surface.  Following the
InfiniTAM voxel-block-hashing lineage SLAMBench2 benchmarks (PAPERS.md),
this module stores the TSDF in fixed-size 8³ *voxel blocks*, lazily
allocated around the observed depth band, behind a flat open-addressed
hash of packed block coordinates:

* :class:`BlockHash` — linear-probe hash table mapping a packed int64
  block coordinate to a block slot, with batch (vectorised) insert and
  lookup and load-factor-triggered doubling rehash.
* :class:`SparseTSDFVolume` — the dense volume's API (sampling,
  gradients, surface extraction, occupancy) over ``(capacity, 512)``
  float32 tsdf/weight block arrays, plus the allocation API the sparse
  kernels (:mod:`repro.perf.sparse_integrate`,
  :mod:`repro.perf.sparse_raycast`) drive: ``ensure_blocks`` /
  ``lookup_blocks`` and the sub-block ``nonpositive_mask`` the raycaster
  skips space against.  A dense coord->slot mirror of the hash
  (``block_slot_table``) serves the per-sample lookups on the raycast
  hot path as a single flat gather.

Unallocated space reads as the dense volume's initial state (tsdf 1.0,
weight 0.0), so within allocated blocks the sparse integrate kernel can
apply the dense fast kernel's exact float32 update sequence and stay
bit-identical to it (tests/test_sparse_volume.py pins this).
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError

#: Voxels per block edge (InfiniTAM's choice; 8^3 = 512 voxels/block).
BLOCK = 8
#: Voxels per block.
BLOCK_VOXELS = BLOCK**3
#: Voxels per sub-block edge of the non-positive mask (2^3 voxels).
SUB = 2
#: A TSDF voxel at or above this floor cannot make a valid trilinear
#: sample non-positive: the largest corner weight is >= 1/8, so its
#: product with the voxel stays a positive normal float32 and every other
#: corner only adds a non-negative term.  (``<= 0`` would miss subnormal
#: voxels whose product underflows to 0.)
NONPOS_FLOOR = np.float32(2.0**-60)
#: Blocks per chunk of the mask rebuild (fixed scratch, no per-call
#: allocation).
_REFRESH_CHUNK = 128

#: Bits reserved per packed block coordinate axis.
_PACK_BITS = 20
_PACK_MASK = (1 << _PACK_BITS) - 1

#: splitmix64 finalizer constants (vectorised integer hash).
_MIX_1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX_2 = np.uint64(0xC4CEB9FE1A85EC53)
_SHIFT = np.uint64(33)


def pack_block_coords(coords: np.ndarray) -> np.ndarray:
    """Pack non-negative ``(N, 3)`` block coordinates into int64 keys."""
    c = np.asarray(coords, dtype=np.int64)
    return (c[..., 0] << (2 * _PACK_BITS)) | (c[..., 1] << _PACK_BITS) \
        | c[..., 2]


def unpack_block_coords(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_block_coords`, ``(N, 3)`` int32."""
    k = np.asarray(keys, dtype=np.int64)
    out = np.empty(k.shape + (3,), dtype=np.int32)  # effect-ok: key-count sized
    out[..., 0] = (k >> (2 * _PACK_BITS)) & _PACK_MASK
    out[..., 1] = (k >> _PACK_BITS) & _PACK_MASK
    out[..., 2] = k & _PACK_MASK
    return out


def _mix(keys: np.ndarray) -> np.ndarray:
    """splitmix64-style avalanche of int64 keys (vectorised, uint64)."""
    x = keys.astype(np.uint64)
    x ^= x >> _SHIFT
    x *= _MIX_1
    x ^= x >> _SHIFT
    x *= _MIX_2
    x ^= x >> _SHIFT
    return x


class BlockHash:
    """Flat open-addressed (linear probe) hash: packed coord -> slot.

    Keys are packed block coordinates (:func:`pack_block_coords`, always
    ``>= 0``); the empty sentinel is ``-1``.  Capacity is a power of two
    so probing wraps with a mask; exceeding ``max_load`` doubles the
    table and re-inserts every key (amortised O(1) per insert).  All
    operations are batch-vectorised — the kernels call with thousands of
    keys at once.
    """

    EMPTY = -1

    def __init__(self, capacity: int = 1024, max_load: float = 0.7):
        if capacity < 8 or capacity & (capacity - 1):
            raise ConfigurationError(
                f"hash capacity must be a power of two >= 8: {capacity}"
            )
        if not 0.1 <= max_load <= 0.95:
            raise ConfigurationError(f"unusable max load factor: {max_load}")
        self.max_load = float(max_load)
        self._keys = np.full(capacity, self.EMPTY, dtype=np.int64)
        self._slots = np.zeros(capacity, dtype=np.int32)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        return len(self._keys)

    @property
    def load_factor(self) -> float:
        return self._count / len(self._keys)

    @property
    def nbytes(self) -> int:
        return self._keys.nbytes + self._slots.nbytes

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Slots of ``keys`` (int32), ``-1`` where a key is absent."""
        keys = np.asarray(keys, dtype=np.int64)
        n = keys.shape[0]
        result = np.full(n, -1, dtype=np.int32)
        if n == 0 or self._count == 0:
            return result
        mask = np.int64(len(self._keys) - 1)
        cur = (_mix(keys) & np.uint64(mask)).astype(np.int64)
        pending = np.arange(n, dtype=np.int64)
        # Linear probing, all pending queries advanced together; a query
        # retires when it finds its key (hit) or an empty slot (miss).
        for _ in range(len(self._keys)):
            probe = cur[pending]
            stored = self._keys[probe]
            hits = stored == keys[pending]
            result[pending[hits]] = self._slots[probe[hits]]
            alive = ~hits & (stored != self.EMPTY)
            pending = pending[alive]
            if pending.size == 0:
                break
            cur[pending] = (cur[pending] + 1) & mask
        return result

    def insert(self, keys: np.ndarray, slots: np.ndarray) -> None:
        """Map each ``keys[i]`` (unique, absent) to ``slots[i]``."""
        keys = np.asarray(keys, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int32)
        if keys.shape != slots.shape:
            raise ConfigurationError("keys/slots length mismatch")
        if keys.size == 0:
            return
        while (self._count + keys.size) > self.max_load * len(self._keys):
            self._grow()
        self._insert_batch(keys, slots)
        self._count += int(keys.size)

    def _insert_batch(self, keys: np.ndarray, slots: np.ndarray) -> None:
        mask = np.int64(len(self._keys) - 1)
        cur = (_mix(keys) & np.uint64(mask)).astype(np.int64)
        pending = np.arange(keys.shape[0], dtype=np.int64)
        for _ in range(len(self._keys)):
            probe = cur[pending]
            free = self._keys[probe] == self.EMPTY
            claim = pending[free]
            if claim.size:
                # Claim empty slots; when several new keys land on the
                # same empty slot the last fancy-index write wins, so
                # re-read to find the winners and keep probing the rest.
                self._keys[cur[claim]] = keys[claim]
                self._slots[cur[claim]] = slots[claim]
                won = self._keys[cur[claim]] == keys[claim]
                lost = claim[~won]
                pending = np.concatenate([pending[~free], lost])
            else:
                pending = pending[~free]
            if pending.size == 0:
                return
            cur[pending] = (cur[pending] + 1) & mask
        raise ConfigurationError("hash table full despite load-factor guard")

    def _grow(self) -> None:
        live = self._keys != self.EMPTY
        keys, slots = self._keys[live], self._slots[live]
        self._keys = np.full(2 * len(self._keys), self.EMPTY, dtype=np.int64)
        self._slots = np.zeros(len(self._keys), dtype=np.int32)
        self._insert_batch(keys, slots)

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All (key, slot) pairs, in table order."""
        live = self._keys != self.EMPTY
        return self._keys[live].copy(), self._slots[live].copy()


class SparseTSDFVolume:
    """Voxel-block-hashed TSDF volume with the dense volume's API.

    Attributes:
        resolution: voxels per side (same meaning as the dense volume).
        size: physical edge length in metres.
        blocks_per_side: 8³-block grid extent (``ceil(resolution / 8)``).
        tsdf_blocks / weight_blocks: ``(capacity, 512)`` float32 block
            data; rows past :attr:`allocated_blocks` are unused.  Block
            row layout is x-major: local voxel ``(lx, ly, lz)`` is flat
            index ``(lx * 8 + ly) * 8 + lz``.
    """

    def __init__(self, resolution: int, size: float,
                 initial_blocks: int = 512):
        if resolution < 4:
            raise ConfigurationError(
                f"volume resolution too small: {resolution}"
            )
        if size <= 0:
            raise ConfigurationError(f"volume size must be positive: {size}")
        self.resolution = int(resolution)
        self.size = float(size)
        self.blocks_per_side = -(-self.resolution // BLOCK)
        if self.blocks_per_side >= (1 << _PACK_BITS):
            raise ConfigurationError(
                f"volume resolution {resolution} overflows the packed "
                f"block-coordinate width"
            )
        nb = self.blocks_per_side
        # A volume never holds more than nb**3 blocks, so a small volume
        # starts (and stays) at that many block rows, with a hash and a
        # mask-refresh chunk no larger than that many blocks need.
        self._initial_blocks = min(max(64, int(initial_blocks)), nb**3)
        self._alloc_arrays(self._initial_blocks)
        self._hash_capacity = 8
        while (self._hash_capacity < 1024
               and self._hash_capacity * 0.7 < nb**3):
            self._hash_capacity *= 2
        self.hash = BlockHash(self._hash_capacity)
        ns = nb * (BLOCK // SUB)
        # Sub-block s is set when a trilinear sample whose base voxel lies
        # in s may read <= 0: some voxel of s or of its forward neighbours
        # (s + {0,1}^3, which hold the sample's other corners) is below
        # NONPOS_FLOOR.  Any sample clear here reads > 0 or is invalid —
        # the raycaster's space-skip test.  Rebuilt by
        # refresh_nonpositive_mask() after each fuse.
        self.nonpositive_mask = np.zeros((ns, ns, ns), dtype=bool)
        self._sub_flags = np.zeros((ns, ns, ns), dtype=bool)
        self._voxel_flags = np.zeros(
            (min(_REFRESH_CHUNK, nb**3), BLOCK, BLOCK, BLOCK), dtype=bool)
        # Dense coord -> slot acceleration table (-1 = unallocated).  The
        # hash stays the canonical mapping; this mirror turns the per-
        # sample block lookups on the raycast hot path into one flat
        # gather.  At 8^3 blocks it costs resolution^3 / 128 bytes —
        # two orders of magnitude below the dense volume it replaces.
        self.block_slot_table = np.full(nb * nb * nb, -1, dtype=np.int32)
        self._n_alloc = 0

    def _alloc_arrays(self, capacity: int) -> None:
        self.tsdf_blocks = np.ones((capacity, BLOCK_VOXELS), dtype=np.float32)
        self.weight_blocks = np.zeros((capacity, BLOCK_VOXELS),
                                      dtype=np.float32)
        self.block_coords = np.zeros((capacity, 3), dtype=np.int32)

    @property
    def voxel_size(self) -> float:
        return self.size / self.resolution

    @property
    def allocated_blocks(self) -> int:
        """Number of voxel blocks currently backed by storage."""
        return self._n_alloc

    @property
    def allocated_bytes(self) -> int:
        """Actual bytes held: block data in use + hash table + masks."""
        per_block = (self.tsdf_blocks.itemsize + self.weight_blocks.itemsize) \
            * BLOCK_VOXELS + self.block_coords.itemsize * 3
        return (self._n_alloc * per_block + self.hash.nbytes
                + self.nonpositive_mask.nbytes + self._sub_flags.nbytes
                + self._voxel_flags.nbytes
                + self.block_slot_table.nbytes)

    def reset(self) -> None:
        """Clear to the empty state (drops all allocated blocks)."""
        self._alloc_arrays(self._initial_blocks)
        self.hash = BlockHash(self._hash_capacity)
        self.nonpositive_mask[:] = False
        self.block_slot_table[:] = -1
        self._n_alloc = 0

    # -- allocation ---------------------------------------------------------
    def ensure_blocks(self, coords: np.ndarray) -> np.ndarray:
        """Slots for ``(N, 3)`` block coords, allocating the missing ones.

        Coordinates must lie in ``[0, blocks_per_side)``; duplicates are
        fine.  Newly allocated blocks start at the empty state (tsdf 1.0),
        so the non-positive mask needs no update.
        """
        coords = np.asarray(coords, dtype=np.int64)
        if coords.size == 0:
            return np.empty(0, dtype=np.int32)
        nb = self.blocks_per_side
        flat = (coords[..., 0] * nb + coords[..., 1]) * nb + coords[..., 2]
        slots = self.block_slot_table[flat]
        missing = slots < 0
        if missing.any():
            # Flat indices sort in the same (x, y, z)-lexicographic order
            # as packed keys, so slot assignment order is unchanged.
            new_flat = np.unique(flat[missing])
            start = self._n_alloc
            if start + new_flat.size > self.tsdf_blocks.shape[0]:
                self._grow_blocks(start + new_flat.size)
            new_slots = np.arange(
                start, start + new_flat.size, dtype=np.int32
            )
            new_coords = np.stack(
                [new_flat // (nb * nb), (new_flat // nb) % nb,
                 new_flat % nb], axis=-1
            ).astype(np.int32)
            self.block_coords[start:start + new_flat.size] = new_coords
            self.hash.insert(pack_block_coords(new_coords), new_slots)
            self.block_slot_table[new_flat] = new_slots
            self._n_alloc = start + int(new_flat.size)
            slots = self.block_slot_table[flat]
        return slots

    def _grow_blocks(self, need: int) -> None:
        capacity = self.tsdf_blocks.shape[0]
        while capacity < need:
            capacity *= 2
        capacity = min(capacity, self.blocks_per_side**3)
        tsdf = np.ones((capacity, BLOCK_VOXELS), dtype=np.float32)
        weight = np.zeros((capacity, BLOCK_VOXELS), dtype=np.float32)
        coords = np.zeros((capacity, 3), dtype=np.int32)
        tsdf[:self._n_alloc] = self.tsdf_blocks[:self._n_alloc]
        weight[:self._n_alloc] = self.weight_blocks[:self._n_alloc]
        coords[:self._n_alloc] = self.block_coords[:self._n_alloc]
        self.tsdf_blocks, self.weight_blocks = tsdf, weight
        self.block_coords = coords

    def refresh_nonpositive_mask(self) -> None:
        """Rebuild :attr:`nonpositive_mask` from the block data.

        Call after any write to :attr:`tsdf_blocks`.  Flags each 2^3
        sub-block holding a voxel below :data:`NONPOS_FLOOR` (pairwise
        ORs per axis, a chunk of blocks at a time), then dilates forward
        by one sub-block per axis so one gather at ``base_voxel >> 1``
        covers all 8 trilinear corners.
        """
        flags = self._sub_flags
        flags[:] = False
        nb = self.blocks_per_side
        per = BLOCK // SUB
        flags6 = flags.reshape(nb, per, nb, per, nb, per)
        vf = self._voxel_flags
        chunk = vf.shape[0]
        for at in range(0, self._n_alloc, chunk):
            b = min(chunk, self._n_alloc - at)
            f = vf[:b]
            np.less(self.tsdf_blocks[at:at + b].reshape(f.shape),
                    NONPOS_FLOOR, out=f)
            f[:, 0::2] |= f[:, 1::2]
            f = f[:, 0::2]
            f[:, :, 0::2] |= f[:, :, 1::2]
            f = f[:, :, 0::2]
            f[:, :, :, 0::2] |= f[:, :, :, 1::2]
            c = self.block_coords[at:at + b]
            flags6[c[:, 0], :, c[:, 1], :, c[:, 2], :] = f[:, :, :, 0::2]
        m = self.nonpositive_mask
        np.copyto(m, flags)
        m[:-1] |= flags[1:]
        np.copyto(flags, m)
        m[:, :-1] |= flags[:, 1:]
        np.copyto(flags, m)
        m[:, :, :-1] |= flags[:, :, 1:]

    def lookup_blocks(self, coords: np.ndarray) -> np.ndarray:
        """Slots for ``(N, 3)`` block coords (``-1`` where unallocated)."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.size == 0:
            return np.empty(0, dtype=np.int32)
        nb = self.blocks_per_side
        flat = (coords[..., 0] * nb + coords[..., 1]) * nb + coords[..., 2]
        return self.block_slot_table[flat]

    # -- dense-volume API ----------------------------------------------------
    def world_to_voxel(self, points: np.ndarray) -> np.ndarray:
        """Continuous voxel coordinates of volume-frame points."""
        return np.asarray(points, dtype=float) / self.voxel_size - 0.5

    def contains(self, points: np.ndarray, margin: float = 0.0) -> np.ndarray:
        """Mask of points inside the volume (with an optional margin)."""
        p = np.asarray(points, dtype=float)
        return np.all((p >= margin) & (p <= self.size - margin), axis=-1)

    def _gather(self, ix: np.ndarray, iy: np.ndarray,
                iz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(tsdf, weight) at integer voxel coords; unallocated reads empty."""
        coords = np.stack(
            [ix // BLOCK, iy // BLOCK, iz // BLOCK], axis=-1
        )
        slots = self.lookup_blocks(coords)
        local = ((ix % BLOCK) * BLOCK + iy % BLOCK) * BLOCK + iz % BLOCK
        found = slots >= 0
        tsdf = np.ones(ix.shape, dtype=np.float32)
        weight = np.zeros(ix.shape, dtype=np.float32)
        safe = np.where(found, slots, 0)
        tsdf[found] = self.tsdf_blocks[safe, local][found]
        weight[found] = self.weight_blocks[safe, local][found]
        return tsdf, weight

    def sample_trilinear(
        self, points: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Trilinear TSDF at volume-frame points (dense-volume semantics).

        Points outside the grid or with any zero-weight corner are
        invalid and read 1.0, exactly as the dense volume defines it.
        """
        p = self.world_to_voxel(points)
        r = self.resolution
        base = np.floor(p).astype(int)
        frac = p - base

        inside = np.all((base >= 0) & (base <= r - 2), axis=-1)
        base_c = np.clip(base, 0, r - 2)

        values = np.zeros(len(p))
        observed = np.ones(len(p), dtype=bool)
        for corner in range(8):
            ox, oy, oz = corner & 1, (corner >> 1) & 1, (corner >> 2) & 1
            ix = base_c[:, 0] + ox
            iy = base_c[:, 1] + oy
            iz = base_c[:, 2] + oz
            w = (
                (frac[:, 0] if ox else 1.0 - frac[:, 0])
                * (frac[:, 1] if oy else 1.0 - frac[:, 1])
                * (frac[:, 2] if oz else 1.0 - frac[:, 2])
            )
            tsdf, weight = self._gather(ix, iy, iz)
            values += w * tsdf
            observed &= weight > 0.0

        valid = inside & observed
        values = np.where(valid, values, 1.0)
        return values, valid

    def gradient(self, points: np.ndarray,
                 eps: float | None = None) -> np.ndarray:
        """Central-difference TSDF gradient (dense-volume semantics)."""
        if eps is None:
            eps = self.voxel_size
        p = np.asarray(points, dtype=float)
        g = np.zeros_like(p)
        for axis in range(3):
            offset = np.zeros(3)
            offset[axis] = eps
            hi, _ = self.sample_trilinear(p + offset)
            lo, _ = self.sample_trilinear(p - offset)
            g[:, axis] = (hi - lo) / (2.0 * eps)
        return g

    def _occupancy_rows(self) -> np.ndarray:
        """Per-voxel observed mask over allocated block rows (one pass)."""
        return self.weight_blocks[:self._n_alloc] > 0.0

    def occupied_fraction(self) -> float:
        """Fraction of the *logical* grid observed at least once."""
        if self._n_alloc == 0:
            return 0.0
        observed = int(np.count_nonzero(self._occupancy_rows()))
        return observed / float(self.resolution**3)

    def extract_surface_points(self, threshold: float = 0.25) -> np.ndarray:
        """Volume-frame points near the zero crossing, ``(N, 3)``.

        Same extraction rule as the dense volume, restricted to the
        allocated blocks (unallocated space has |tsdf| = 1 by
        definition and can never pass the threshold).
        """
        if self._n_alloc == 0:
            return np.empty((0, 3))
        rows = self._occupancy_rows()
        rows &= np.abs(self.tsdf_blocks[:self._n_alloc]) < threshold
        slot, local = np.nonzero(rows)
        lz = local % BLOCK
        ly = (local // BLOCK) % BLOCK
        lx = local // (BLOCK * BLOCK)
        base = self.block_coords[slot].astype(np.int64) * BLOCK
        idx = np.stack([base[:, 0] + lx, base[:, 1] + ly, base[:, 2] + lz],
                       axis=-1)
        # Blocks straddling a non-multiple-of-8 grid edge hold padding
        # voxels past the logical resolution; integrate never writes
        # them, but clip defensively.
        keep = np.all(idx < self.resolution, axis=-1)
        return (idx[keep].astype(float) + 0.5) * self.voxel_size

    def densify(self) -> tuple[np.ndarray, np.ndarray]:
        """Materialise dense ``(r, r, r)`` tsdf/weight arrays.

        Costs a full dense grid, so the per-frame kernels never call it.
        Whole-volume consumers do: mesh export
        (:func:`repro.kfusion.mesh.extract_mesh`) reads either volume
        through it, and the equivalence tests bit-compare it against
        the dense volume.
        """
        r = self.resolution
        nbv = self.blocks_per_side * BLOCK
        tsdf = np.ones((nbv, nbv, nbv), dtype=np.float32)
        weight = np.zeros((nbv, nbv, nbv), dtype=np.float32)
        n = self._n_alloc
        if n:
            shaped_t = self.tsdf_blocks[:n].reshape(n, BLOCK, BLOCK, BLOCK)
            shaped_w = self.weight_blocks[:n].reshape(n, BLOCK, BLOCK, BLOCK)
            for i in range(n):
                bx, by, bz = (int(c) * BLOCK for c in self.block_coords[i])
                tsdf[bx:bx + BLOCK, by:by + BLOCK, bz:bz + BLOCK] = shaped_t[i]
                weight[bx:bx + BLOCK, by:by + BLOCK, bz:bz + BLOCK] = \
                    shaped_w[i]
        return tsdf[:r, :r, :r], weight[:r, :r, :r]
