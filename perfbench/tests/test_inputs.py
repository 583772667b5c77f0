"""The input cache: a cached sequence is the fresh render, frame for frame."""

import json

import numpy as np
import pytest

from perfbench import harness, inputs

SPEC = inputs.SequenceSpec("lr_kt0", 8, 64, 48)
CONFIG = {"volume_resolution": 64, "volume_size": 5.0}


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    monkeypatch.setattr(inputs, "CACHE_DIR", tmp_path)
    inputs.render_clean(SPEC)
    return tmp_path


def _run(sequence, n_frames):
    from repro.core import run_benchmark
    from repro.datasets.base import InMemorySequence
    from repro.kfusion import KinectFusion

    prefix = InMemorySequence(sequence.name, sequence.sensors,
                              [sequence.frame(i) for i in range(n_frames)])
    result = run_benchmark(KinectFusion(), prefix, configuration=CONFIG)
    return ([r.status.value for r in result.collector.records],
            [r.pose.tobytes() for r in result.collector.records])


def test_cached_prefix_matches_a_fresh_render(cache):
    from repro.datasets.io import load_sequence

    cached = load_sequence(str(inputs.seeded_sequence_path(SPEC, 3)))
    fresh = inputs.fresh_sequence(SPEC, 3)
    statuses, poses = _run(cached, 5)
    assert (statuses, poses) == _run(fresh, 5)


def test_cached_frames_are_the_fresh_frames_at_storage_precision(cache):
    from repro.datasets.io import load_sequence

    cached = load_sequence(str(inputs.seeded_sequence_path(SPEC, 4)))
    fresh = inputs.fresh_sequence(SPEC, 4)
    for i in range(3):
        np.testing.assert_array_equal(
            cached.frame(i).depth,
            fresh.frame(i).depth.astype(np.float32).astype(float))
        np.testing.assert_array_equal(cached.frame(i).ground_truth_pose,
                                      fresh.frame(i).ground_truth_pose)


def test_seed_and_renderer_key_the_cache(cache, tmp_path):
    first = inputs.seeded_sequence_path(SPEC, 1)
    assert inputs.seeded_sequence_path(SPEC, 1) == first
    assert inputs.seeded_sequence_path(SPEC, 2) != first

    src = tmp_path / "src"
    for entry in ("scene", "datasets", "geometry", "core"):
        (src / entry).mkdir(parents=True)
    for entry in ("core/frame.py", "core/sensors.py"):
        (src / entry).write_text("")
    renderer = src / "scene" / "renderer.py"
    renderer.write_text("STEPS = 96\n")
    before = inputs.renderer_digest(src)
    renderer.write_text("STEPS = 64\n")
    assert inputs.renderer_digest(src) != before


def test_benchmark_json_names_the_workloads_the_harness_runs():
    config = json.loads((inputs.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in config["workloads"]] == list(harness.WORKLOADS)
