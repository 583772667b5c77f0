"""The traced stream pass: its spans must describe the recorded frames."""

import dataclasses

import pytest

from perfbench import stream
from perfbench.common import Outcome


@pytest.fixture(scope="module")
def traced():
    from repro.core import run_benchmark
    from repro.datasets import icl_nuim
    from repro.kfusion import KinectFusion
    from repro.telemetry import Tracer

    sequence = icl_nuim.load("lr_kt0", n_frames=4, width=48, height=36)
    tracer = Tracer(enabled=True)
    result = run_benchmark(
        KinectFusion(), sequence, tracer=tracer,
        configuration={"volume_resolution": 48, "volume_size": 5.0,
                       "integration_rate": 2})
    return result, tracer


def _rows(result, spans):
    from repro.telemetry import Tracer

    tracer = Tracer(enabled=True)
    tracer.spans.extend(spans)
    outcome = Outcome(attempted=1, failed=0)
    return stream._layer_rows(outcome, result, tracer), outcome.problems


def test_a_clean_trace_passes_and_covers_every_stage(traced):
    result, tracer = traced
    rows, problems = _rows(result, tracer.spans)
    assert problems == []
    assert sorted(rows) == [r.index for r in result.collector.records]
    for row in rows.values():
        assert set(stream.STAGES) <= set(row)
    assert [row["integrated"] for _, row in sorted(rows.items())] == [
        True, False, True, False]


def test_a_missing_stage_span_fails(traced):
    result, tracer = traced
    spans = list(tracer.spans)
    spans.remove(next(s for s in spans if s.name == "raycast"))
    assert any("no raycast" in p for p in _rows(result, spans)[1])


def test_a_doubled_stage_span_fails(traced):
    result, tracer = traced
    spans = list(tracer.spans)
    spans.append(next(s for s in spans if s.name == "track"))
    assert any("two track spans" in p for p in _rows(result, spans)[1])


def test_a_stage_span_of_another_frame_fails(traced):
    result, tracer = traced
    spans = list(tracer.spans)
    first = next(s for s in spans if s.name == "preprocess")
    moved = dataclasses.replace(first, attrs={**first.attrs, "frame": 2})
    spans[spans.index(first)] = moved
    problems = _rows(result, spans)[1]
    assert any("preprocess span of frame 2" in p for p in problems)
    assert any("no preprocess" in p for p in problems)


def test_a_frame_span_that_is_not_the_record_fails(traced):
    result, tracer = traced
    spans = list(tracer.spans)
    frame = next(s for s in spans if s.name == "frame")
    spans[spans.index(frame)] = dataclasses.replace(
        frame, duration_ns=frame.duration_ns + 1000)
    assert any("wall time differ" in p for p in _rows(result, spans)[1])
