"""Seeded input sequences, rendered once and cached outside git.

Sphere-tracing the living room costs about 1 s per frame at 320x240, so
the benchmark splits a sequence into two layers:

* the **clean render** — noiseless depth along the fixed ``lr_kt0``
  trajectory (trajectory seed ``TRAJECTORY_SEED``).  It depends only on
  the sequence geometry and the renderer's source, so it is rendered
  once per checkout (the benchmark's build step) and keyed by a digest
  of the scene/dataset source files: a renderer change renders again.
* the **seeded sequence** — the clean render plus Kinect sensor noise
  drawn from the run's ``--seed``, exactly as
  :class:`repro.datasets.synthetic.SyntheticSequence` draws it (one
  ``default_rng((seed, index))`` stream per frame).  It is written once
  per seed with :func:`repro.datasets.io.save_sequence`; runs time
  :func:`repro.datasets.io.load_sequence` as part of their set-up.

:func:`fresh_sequence` builds the equivalent ``SyntheticSequence`` that
renders from scratch; ``perfbench/tests/test_inputs.py`` checks that a
cached prefix runs to the same statuses and bit-identical poses.
"""

from __future__ import annotations

import hashlib
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path

import numpy as np

from repro.core.frame import Frame
from repro.datasets import icl_nuim
from repro.datasets.base import InMemorySequence
from repro.datasets.io import save_sequence
from repro.datasets.synthetic import SyntheticSequence
from repro.geometry import PinholeCamera
from repro.scene.living_room import living_room
from repro.scene.noise import KinectNoiseModel

ROOT = Path(__file__).resolve().parents[1]
#: Cache directory inside the checkout (listed in ``.gitignore``).
CACHE_DIR = ROOT / ".bench_cache"
#: Seed of the trajectory jitter; the run seed drives the sensor noise.
TRAJECTORY_SEED = 0

#: Source trees whose content decides what a render looks like.
_RENDER_SOURCES = ("scene", "datasets", "core/frame.py", "core/sensors.py",
                   "geometry")


@dataclass(frozen=True)
class SequenceSpec:
    """Geometry of one workload's input sequence."""

    name: str
    n_frames: int
    width: int
    height: int

    @property
    def key(self) -> str:
        return f"{self.name}-{self.width}x{self.height}-n{self.n_frames}"


def source_digest(root: Path, entries) -> str:
    """Hash of the ``.py`` files at ``entries`` (files or trees) under ``root``."""
    digest = hashlib.sha256()
    for entry in entries:
        path = root / entry
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            digest.update(str(file.relative_to(root)).encode())
            digest.update(file.read_bytes())
    return digest.hexdigest()[:16]


def renderer_digest(src: Path = ROOT / "src" / "repro") -> str:
    """Hash of the source files a rendered sequence depends on."""
    return source_digest(src, _RENDER_SOURCES)


def _clean_path(spec: SequenceSpec, digest: str) -> Path:
    return CACHE_DIR / f"clean-{spec.key}-{digest}.npz"


def _sequence_path(spec: SequenceSpec, seed: int, digest: str) -> Path:
    return CACHE_DIR / f"seq-{spec.key}-{digest}-s{seed}.npz"


def fresh_sequence(spec: SequenceSpec, seed: int):
    """The sequence that renders every frame from scratch (the reference)."""
    trajectory = icl_nuim.load(spec.name, n_frames=spec.n_frames,
                               width=spec.width, height=spec.height,
                               seed=TRAJECTORY_SEED).trajectory
    return SyntheticSequence(
        name=spec.name, scene=living_room(), trajectory=trajectory,
        camera=PinholeCamera.kinect_like(width=spec.width,
                                         height=spec.height),
        seed=seed)


def _render_frames(job: tuple) -> np.ndarray:
    spec, indices = job
    sequence = fresh_sequence(spec, TRAJECTORY_SEED)
    return np.stack([sequence.clean_depth(i) for i in indices])


def _atomic_save(path: Path, write) -> None:
    tmp = path.with_name(f".tmp-{os.getpid()}-{path.name}")
    try:
        write(str(tmp))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def render_clean(spec: SequenceSpec, workers: int = 1) -> Path:
    """Render (or find) the noiseless depth stack for ``spec``."""
    digest = renderer_digest()
    path = _clean_path(spec, digest)
    if path.exists():
        return path
    CACHE_DIR.mkdir(exist_ok=True)
    sequence = fresh_sequence(spec, TRAJECTORY_SEED)
    workers = max(1, min(workers, os.cpu_count() or 1))
    chunks = [(spec, list(range(i, spec.n_frames, workers)))
              for i in range(workers)]
    if workers == 1:
        parts = [_render_frames(chunks[0])]
    else:
        with ProcessPoolExecutor(workers,
                                 mp_context=get_context("spawn")) as pool:
            parts = list(pool.map(_render_frames, chunks))
    depth = np.empty((spec.n_frames, spec.height, spec.width))
    for (_, indices), part in zip(chunks, parts):
        depth[indices] = part
    trajectory = sequence.trajectory
    _atomic_save(path, lambda p: np.savez(
        p, depth=depth, poses=trajectory.poses,
        timestamps=trajectory.timestamps))
    for stale in CACHE_DIR.glob(f"clean-{spec.key}-*.npz"):
        if stale != path:
            stale.unlink(missing_ok=True)
    return path


def seeded_sequence_path(spec: SequenceSpec, seed: int) -> Path:
    """Write (once per seed) the noisy sequence and return its path.

    The clean render must exist (:func:`render_clean`).  Noise is drawn
    the way ``SyntheticSequence.frame`` draws it, so the result equals a
    fresh render with the same seed frame for frame.
    """
    digest = renderer_digest()
    path = _sequence_path(spec, seed, digest)
    if path.exists():
        return path
    clean_path = _clean_path(spec, digest)
    if not clean_path.exists():
        raise FileNotFoundError(
            f"no clean render for {spec.key}; run the build step first")
    with np.load(clean_path) as clean:
        depth, poses = clean["depth"], clean["poses"]
        timestamps = clean["timestamps"]
    noise = KinectNoiseModel.mild()
    frames = [
        Frame(index=i, timestamp=float(timestamps[i]),
              depth=noise.apply(depth[i], np.random.default_rng((seed, i))),
              ground_truth_pose=poses[i])
        for i in range(spec.n_frames)
    ]
    sequence = InMemorySequence(spec.name, fresh_sequence(spec, seed).sensors,
                                frames)
    _atomic_save(path, lambda p: save_sequence(sequence, p))
    return path
