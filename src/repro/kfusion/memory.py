"""Memory-footprint model for KinectFusion configurations.

SLAMBench reports memory alongside speed/accuracy/power; for KinectFusion
the footprint is dominated by the TSDF volume (two float32 fields) plus
the per-frame image pyramids.  The model below mirrors the reference
implementation's buffer inventory and is exposed through the evaluators'
``extras`` so explorations can trade memory too (embedded devices care).
"""

from __future__ import annotations

from .params import KFusionParams

BYTES_F32 = 4


def volume_bytes(params: KFusionParams) -> int:
    """TSDF + weight fields."""
    voxels = params.volume_resolution**3
    return 2 * BYTES_F32 * voxels


def frame_buffers_bytes(params: KFusionParams, width: int,
                        height: int, levels: int = 3) -> int:
    """Input depth, filtered depth, and the vertex/normal pyramids."""
    input_px = width * height
    compute_px = input_px // (params.compute_size_ratio**2)
    total = BYTES_F32 * input_px  # raw depth
    px = compute_px
    pyramid_px = 0
    for _ in range(levels):
        pyramid_px += px
        px //= 4
    # filtered depth pyramid + vertex map + normal map (+ raycast maps).
    total += BYTES_F32 * pyramid_px  # depth pyramid
    total += 2 * 3 * BYTES_F32 * pyramid_px  # vertex + normal pyramids
    total += 2 * 3 * BYTES_F32 * compute_px  # raycast vertex + normal
    return total


def total_bytes(params: KFusionParams, width: int = 320,
                height: int = 240) -> int:
    """Whole-pipeline footprint for one configuration."""
    return volume_bytes(params) + frame_buffers_bytes(params, width, height)


#: Neighbourhood radius of the bilateral filter (needed to size the
#: fast path's zero-padded scratch image).
BILATERAL_RADIUS = 2

#: Voxel-block edge length of the sparse volume (kfusion.sparse.BLOCK;
#: duplicated here so the memory model stays import-light).
SPARSE_BLOCK = 8


def sparse_band_samples(mu: float, voxel: float) -> int:
    """Samples per ray of the sparse integrate's allocation ladder.

    The ladder spans ``[-(step + 3 voxels), +(mu + 3 voxels)]`` around
    each measured depth (``step`` being the raycast march step) and is
    spaced at most two voxels apart — with the allocator's ±1-voxel
    block dilation that leaves no coverage gaps along the ray.
    """
    step = max(0.75 * mu, voxel)
    span = (step + 3.0 * voxel) + (mu + 3.0 * voxel)
    return max(2, int(span / (2.0 * voxel)) + 2)


def sparse_chunk_blocks(blocks_per_side: int) -> int:
    """Blocks the sparse integrate updates per batch.

    Bounds the kernel's scratch to a fixed number of voxels regardless
    of how many blocks a frame allocates, and to a quarter of the block
    grid on small volumes, so a small volume's arena stays below the
    dense kernels' (every voxel updates independently, so chunking
    never changes the result).
    """
    return max(1, min(1024, blocks_per_side**3 // 4))


def compute_pyramid_px(compute_width: int, compute_height: int,
                       levels: int = 3) -> int:
    """Total pixels over the compute-resolution pyramid.

    Mirrors ``build_pyramid``'s halving and early-out rules (stop on an
    odd level size or one about to drop below 8 per axis), so per-level
    buffer inventories summed over this count are exact.
    """
    total = 0
    h, w = compute_height, compute_width
    for level in range(levels):
        total += h * w
        if h % 2 or w % 2 or h // 2 < 8 or w // 2 < 8:
            break
        h, w = h // 2, w // 2
    return total


def stage_workspace_bytes(params: KFusionParams, width: int, height: int,
                          levels: int = 3, backend: str = "fast") -> dict:
    """Per-stage split of the fast path's arena budget.

    The stage-graph compiler (:mod:`repro.graph.compiler`) plans the
    whole pipeline's arena footprint at compile time from the needs each
    stage declares; those needs are *this* split, so stage declarations
    and the run's budget (:func:`workspace_bytes`) are terms of one
    formula and the plan can never silently exceed the budget.  Keys are
    the canonical stage names; values sum exactly to
    :func:`workspace_bytes` (pinned by a unit test).

    Preprocess and track charge the exact arena inventory of the shared
    fast kernels (buffer-by-buffer); the dense integrate/raycast terms
    keep their historic conservative estimates (the integrate slack is
    what absorbed modelling error before the split was exact).

    ``backend`` selects the kernel family the arena serves: the sparse
    backend swaps the dense integrate's per-voxel scratch for the
    allocation ladder + chunked block-update buffers and adds the
    raycaster's per-ray entry/exit clip state; its terms are exact, so
    the sparse arena is sized to the byte.
    """
    ratio = params.compute_size_ratio
    input_px = width * height
    # Two compute-pixel conventions coexist, faithfully to the historic
    # budget: the frame-buffer inventory divides the input pixel count
    # (``input_px // ratio**2``), the kernel scratch terms multiply the
    # floored per-axis sizes (``(w//r) * (h//r)``).
    fb_px = input_px // ratio**2
    cw, ch = width // ratio, height // ratio
    scratch_px = cw * ch
    pyramid_px = compute_pyramid_px(cw, ch, levels)
    padded_px = (cw + 2 * BILATERAL_RADIUS) * (ch + 2 * BILATERAL_RADIUS)
    if backend == "sparse":
        r = params.volume_resolution
        voxel = params.volume_size / r
        nb = -(-r // SPARSE_BLOCK)
        nbv = nb * SPARSE_BLOCK
        samples = sparse_band_samples(params.mu_distance, voxel)
        chunk_vox = sparse_chunk_blocks(nb) * SPARSE_BLOCK**3
        # Allocation ladder: per sample-point depth (f32) + camera/volume
        # points (2x f32x3) + voxel coords (i32x3) + validity (bool) +
        # dilation radius (i32) + 8 block keys (i64) = 109 bytes per
        # pixel-sample.
        integrate = 109 * scratch_px * samples
        # Chunked block update: 5 f32 + 4 i32 + 1 i64 + 2 bool fields
        # per voxel = 46 bytes, over one chunk of blocks.
        integrate += 46 * chunk_vox
        # Rotated per-axis coordinate vectors over the padded block grid.
        integrate += BYTES_F32 * 10 * nbv
        # Output vertex/normal maps (2x f32x3) + ray directions (f32x3)
        # + per-ray hit_t/enter/exit (3x f32) + hit mask (bool).
        raycast = (BYTES_F32 * (2 * 3 + 3 + 3) + 1) * scratch_px
    else:
        # per-voxel camera coordinates, pixel indices and masks
        integrate = BYTES_F32 * 8 * params.volume_resolution**3
        # raycast output vertex/normal maps + ray directions (3),
        # per-ray march state (~4), hit map (~1.5)
        raycast = BYTES_F32 * (2 * 3 * fb_px + 9 * scratch_px)
    return {
        # bilateral filter: padded image + depth/tap/accumulator/weight
        # scratch and the filtered output; pyramids: depth levels below
        # the finest (the filtered output IS level 0) + the vertex-stage
        # depth copies + vertex and normal maps, all per level.
        "preprocess": BYTES_F32 * (4 * scratch_px + 8 * pyramid_px
                                   + padded_px),
        # ICP gather scratch: reference points, current points and
        # reference normals (3x f32x3) per pyramid level.
        "track": BYTES_F32 * 9 * pyramid_px,
        "integrate": integrate,
        "raycast": raycast,
    }


def workspace_bytes(params: KFusionParams, width: int, height: int,
                    levels: int = 3, backend: str = "fast") -> int:
    """Byte budget for the fast path's preallocated float32 arena.

    The :class:`repro.perf.FrameWorkspace` must fit inside this bound —
    it is the per-frame buffer inventory of :func:`frame_buffers_bytes`
    plus the scratch the optimized kernels reuse across frames instead of
    reallocating: the bilateral filter's padded image and accumulators,
    the raycaster's per-ray state and hit maps, the integrate kernel's
    per-voxel projection buffers, and the ICP solver's per-level gather
    and Jacobian buffers.  ``width``/``height`` are the *input* (sensor)
    resolution, as for :func:`frame_buffers_bytes`.  The per-stage split
    of the same budget is :func:`stage_workspace_bytes`.
    """
    return sum(stage_workspace_bytes(params, width, height, levels,
                                     backend).values())
