"""Stream workloads: one KinectFusion pipeline over a cached sequence.

A run repeats *passes*, each one :func:`repro.core.run_benchmark` call
over the whole sequence with a freshly built system: first over the
canonical realization, then over the seeded one until it has measured
for the requested seconds and holds enough frames for a p95.  Passes
over the same input must repeat statuses, poses, ATE and the workload
counts exactly, within the run and against earlier runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core import run_benchmark
from repro.datasets.base import InMemorySequence
from repro.datasets.io import load_sequence
from repro.kfusion import KinectFusion
from repro.telemetry import Tracer

from . import stats
from .common import STAGES, ColdSetups, Outcome, add_kernel_stages
from .common import concurrency, expect_same_as_before, layers_not_run
from .common import peak_rss_mb, record_resources, timed
from .inputs import SequenceSpec

#: Frames at the start of every pass left out of frame-time percentiles:
#: the bootstrap frame integrates into an empty volume and the next one
#: tracks against a one-frame model; neither is a steady-state frame.
WARMUP_FRAMES = 2
#: Frames needed after warm-up for a reportable p95.
MIN_TIMED_FRAMES = 200
#: Frames of the untimed warm-up run before measuring (imports, caches).
PRIMING_FRAMES = 6


@dataclass(frozen=True)
class StreamWorkload:
    spec: SequenceSpec
    backend: str
    configuration: dict


#: The real-time operating point.  A low-power point (default backend,
#: 64x48, dense 128^3 volume) was tried and left out: its frame times
#: followed the shared host's speed too closely to gate on (see README).
WORKLOADS = {
    "stream-rt320": StreamWorkload(
        spec=SequenceSpec("lr_kt0", 120, 320, 240),
        backend="sparse",
        configuration={"volume_resolution": 128, "volume_size": 5.0,
                       "compute_size_ratio": 8, "integration_rate": 3},
    ),
}


SPECS = {name: workload.spec for name, workload in WORKLOADS.items()}


def _system(workload: StreamWorkload):
    return KinectFusion(kernel_backend=workload.backend)


def setup(name: str, seed: int, path):
    """Everything before the first frame: load, construct, compile, init."""
    workload = WORKLOADS[name]
    sequence, load_s = timed(load_sequence, str(path))
    system = _system(workload)
    config = system.new_configuration()
    config.update(workload.configuration)
    system.init(sequence.sensors)
    system.clean()
    return sequence, {"load_s": load_s}


def release(sequence) -> None:
    """Nothing outlives a stream set-up but the loaded sequence."""


def _prefix(sequence, n: int):
    frames = [sequence.frame(i) for i in range(min(n, len(sequence)))]
    return InMemorySequence(sequence.name, sequence.sensors, frames)


def _pass(workload: StreamWorkload, sequence, tracer=None):
    """``(result, wall seconds)`` of one ``run_benchmark`` over ``sequence``."""
    return timed(run_benchmark, _system(workload), sequence,
                 configuration=dict(workload.configuration), tracer=tracer)


def _record(result) -> dict:
    """What must repeat exactly between passes and runs."""
    records = result.collector.records
    poses = hashlib.sha256(b"".join(r.pose.tobytes() for r in records))
    return {
        "statuses": [r.status.value for r in records],
        "poses_sha256": poses.hexdigest(),
        "ate_rmse_m": repr(result.ate.rmse),
        "ate_max_m": repr(result.ate.max),
        "gflop": repr(sum(r.workload.total_flops for r in records) / 1e9),
    }


def _integrated(record) -> bool:
    return any(k.name == "integrate" for k in record.workload.kernels)


def _layer_rows(outcome: Outcome, result, tracer) -> dict:
    """Per-frame stage times (s) of one traced pass, keyed by frame.

    Checks the spans first (:func:`stats.stage_rows`), then that every
    frame the collector recorded has one ``frame`` span whose duration is
    the record's wall time.  A stage span missing, doubled or attributed
    to another frame fails the run.
    """
    matched, problems = stats.stage_rows(
        tracer.spans_named("frame"),
        [span for name in STAGES for span in tracer.spans_named(name)],
        STAGES)
    for problem in problems:
        outcome.check(False, problem)
    rows = {}
    for row in matched:
        index = row["attrs"]["frame"]
        outcome.check(index not in rows, f"frame {index}: two frame spans")
        rows[index] = row
    records = {record.index: record for record in result.collector.records}
    outcome.check(rows.keys() == records.keys(),
                  f"frame spans for {sorted(rows)}, records for "
                  f"{sorted(records)}")
    for index, row in rows.items():
        record = records.get(index)
        outcome.check(record is not None
                      and row["frame"] == record.wall_time_s,
                      f"frame {index}: span and record wall time differ")
        row["integrated"] = record is not None and _integrated(record)
    return rows


def _per_layer(outcome: Outcome, traced: list, load_s: float,
               overhead: float) -> None:
    rows = [row for result, tracer in traced
            for i, row in sorted(_layer_rows(outcome, result, tracer).items())
            if i >= WARMUP_FRAMES]
    add_kernel_stages(outcome, rows)
    outcome.add("datasets.load_s", load_s, "s")
    outcome.add("telemetry.overhead_frac", overhead, "ratio")
    layers_not_run(outcome, "hypermapper", "jobs", "serve", "loadgen")

    # Context only: the split of integrate into calls and their cost, and
    # the computed counts, which repeat exactly.
    calls = [row["integrate"] for row in rows if row["integrated"]]
    records = [r for result, _ in traced for r in result.collector.records]
    outcome.info.update(
        integrate_ms_per_call=1e3 * sum(calls) / max(len(calls), 1),
        integrate_calls_frac=len(calls) / len(rows),
        frame_ms_traced_mean=1e3 * sum(r["frame"] for r in rows) / len(rows),
        gflop_per_frame=sum(r.workload.total_flops for r in records)
        / 1e9 / len(records),
        mb_per_frame=sum(r.workload.total_bytes for r in records)
        / 1e6 / len(records),
        sparse_blocks=traced[-1][1].gauges[
            "kfusion.volume.allocated_blocks"])


def measure(name: str, seed: int, seconds: float, trace: bool,
            path, canonical_path) -> Outcome:
    """Run workload ``name``: one canonical pass, then seeded passes.

    ``canonical_path`` holds the noise-seed-0 realization.  Its pass
    gives the accuracy metrics, which therefore compare exactly across
    seeds and commits; every pass, canonical or seeded, feeds the
    timings.
    """
    workload = WORKLOADS[name]
    setups = ColdSetups(name, seed)
    sequence, _ = setup(name, seed, path)
    _pass(workload, _prefix(sequence, PRIMING_FRAMES))

    start = perf_counter()
    passes = [_pass(workload, load_sequence(str(canonical_path)))]
    seeded, traced = [], []
    timed_frames = len(passes[0][0].collector) - WARMUP_FRAMES
    while True:
        # With tracing on, untraced and traced seeded passes alternate so
        # the tracer's overhead compares neighbours in time.
        tracer = Tracer(enabled=True) if trace and len(seeded) % 2 else None
        setups.take()
        result, wall_s = _pass(workload, sequence, tracer)
        seeded.append((result, wall_s))
        if tracer is not None:
            traced.append((result, tracer))
        passes.append((result, wall_s))
        timed_frames += max(len(result.collector) - WARMUP_FRAMES, 0)
        elapsed = perf_counter() - start
        enough = (timed_frames >= MIN_TIMED_FRAMES and seeded
                  and (not trace or traced))
        if enough and elapsed + wall_s > seconds:
            break
    observed = concurrency()
    setup_s, parts = setups.result()

    records = [r for result, _ in passes for r in result.collector.records]
    statuses = [r.status.value for r in records]
    outcome = Outcome(attempted=len(records),
                      failed=stats.stream_failures(statuses))
    first = _record(seeded[0][0])
    for result, _ in seeded[1:]:
        outcome.check(_record(result) == first,
                      f"{name}: a seeded pass differs from the first")
    outcome.check(all(np.isfinite(r.pose).all() for r in records),
                  f"{name}: non-finite pose published")
    expect_same_as_before(outcome, f"{name}-canonical",
                          _record(passes[0][0]))
    expect_same_as_before(outcome, f"{name}-s{seed}", first)

    if trace:
        # Each traced pass against the untraced one before it, frame by
        # frame: the same input, so the same work in each pair.
        overhead = stats.paired_overhead_frac(
            [r.wall_time_s for result, _ in seeded[0::2]
             for r in result.collector.records[WARMUP_FRAMES:]],
            [r.wall_time_s for result, _ in seeded[1::2]
             for r in result.collector.records[WARMUP_FRAMES:]])
        _per_layer(outcome, traced, parts["load_s"], overhead)
    else:
        per_pass = [[r.wall_time_s for r in result.collector.records[
            WARMUP_FRAMES:]] for result, _ in passes]
        frame_s = [t for times in per_pass for t in times]
        ate = passes[0][0].ate
        outcome.add("setup_s", setup_s, "s")
        outcome.add("peak_rss_mb", peak_rss_mb(), "MB")
        outcome.add("ok_frac", stats.ok_frac(outcome.attempted,
                                             outcome.failed), "ratio")
        # A frame is this workload's operation: its latency is the frame
        # time, its throughput frames per second of the whole run.
        outcome.add("latency_ms_p50",
                    1e3 * stats.mean_of_medians(per_pass, "frame"), "ms")
        outcome.add("throughput_per_s",
                    len(records) / sum(wall for _, wall in passes), "1/s")
        outcome.add("ate_max_mm", ate.max * 1e3, "mm")
        outcome.info.update(
            timed_frames=len(frame_s), ate_rmse_mm=ate.rmse * 1e3,
            frame_ms_p95=1e3 * stats.require_percentile(frame_s, 95, "frame"))
        outcome.info["seeded_ate_rmse_mm"] = seeded[0][0].ate.rmse * 1e3
    outcome.info.update(passes=len(passes), seed=seed)
    record_resources(outcome, observed)
    return outcome
