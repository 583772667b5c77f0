"""Metric arithmetic shared by the workloads (pure functions, unit-tested).

Every rule here is one a reader of the numbers relies on: percentiles
are only reported when enough samples lie beyond them, ``other`` is what
the stage spans do not cover, failures count against attempts, open-loop
latency starts at the due time, and the DSE's wall time splits into
evaluation and dispatch.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

#: A percentile is reported only when at least this many samples lie
#: beyond it (p95 needs 200 samples, p50 needs 20).
MIN_BEYOND = 10
#: Clock slack allowed when nested stage spans are compared with the
#: frame span that contains them (seconds per frame).
NESTING_SLACK_S = 1e-6


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` ordered samples rank above the ``q``-th percentile."""
    return n - math.ceil(n * q / 100.0)


def percentile(samples: Sequence[float], q: float) -> float | None:
    """The ``q``-th percentile, or ``None`` when too few samples back it."""
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    if len(samples) == 0 or samples_beyond(len(samples), q) < MIN_BEYOND:
        return None
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def require_percentile(samples: Sequence[float], q: float, what: str) -> float:
    """:func:`percentile`, raising when the sample is too small to report."""
    value = percentile(samples, q)
    if value is None:
        needed = math.ceil(MIN_BEYOND / (1.0 - q / 100.0)) if q < 100 else "∞"
        raise ValueError(f"{what}: {len(samples)} samples cannot back a "
                         f"p{q:g} (need {needed})")
    return value


def mean_of_medians(groups: Sequence[Sequence[float]], what: str) -> float:
    """Mean over ``groups`` of each group's median (see ``percentile``).

    On a host that switches between a fast and a slow speed every few
    seconds, the median of all samples pooled is a majority vote: it
    sits at whichever speed held for more than half the run, so it jumps
    between two levels from run to run.  Each group's (pass's) median
    still ignores that pass's outliers, and their mean moves in
    proportion to the share of passes that ran slow.
    """
    if not groups:
        raise ValueError(f"{what}: no groups")
    return float(np.mean([require_percentile(g, 50, what) for g in groups]))


def other_s(frame_s: float, stage_s: Mapping[str, float]) -> float:
    """Frame time not covered by its stage spans (never negative).

    Stage spans nest inside the frame span, so their sum can exceed the
    frame only by clock granularity; more than that means the inputs do
    not describe one frame and is an error, not a zero.
    """
    covered = sum(stage_s.values())
    gap = frame_s - covered
    if gap < -NESTING_SLACK_S:
        raise ValueError(f"stages cover {covered:.6f} s of a "
                         f"{frame_s:.6f} s frame")
    return max(gap, 0.0)


def stage_rows(frames: Sequence, stages: Sequence, names: Sequence[str],
               group: Callable = lambda span: None) -> tuple[list, list]:
    """Match kernel-stage spans to the frame span that contains each.

    ``frames`` and ``stages`` are span events (``name``, ``start_ns``,
    ``duration_ns``, ``attrs``).  Spans of one ``group`` (a worker
    process, a scheduler thread) never overlap, so a stage span belongs
    to the frame span of its group that contains it in time.  Returns
    one row per frame, ``{"frame": s, <stage>: s, ..., "attrs": {...}}``,
    and the problems found: a stage span outside every frame or inside
    the frame span of another frame index, a frame with two spans of one
    stage or with none.  A frame that ended in an
    error (``attrs["error"]``) did not run every stage; it is left out
    with the stage spans it holds.
    """
    slack_ns = NESTING_SLACK_S * 1e9
    ordered: dict = {}
    for frame in frames:
        ordered.setdefault(group(frame), []).append(frame)
    for spans in ordered.values():
        spans.sort(key=lambda span: span.start_ns)
    starts = {g: [span.start_ns for span in spans]
              for g, spans in ordered.items()}
    rows = {(g, i): {"frame": span.duration_ns * 1e-9, "attrs": span.attrs}
            for g, spans in ordered.items() for i, span in enumerate(spans)}
    problems = []
    for span in stages:
        g = group(span)
        i = bisect_right(starts.get(g, []), span.start_ns) - 1
        frame = ordered[g][i] if i >= 0 else None
        if frame is None or (span.start_ns + span.duration_ns > frame.start_ns
                             + frame.duration_ns + slack_ns):
            problems.append(f"{span.name} span at {span.start_ns} ns lies "
                            f"outside every frame span")
            continue
        row = rows[(g, i)]
        if span.attrs.get("frame") != frame.attrs.get("frame"):
            problems.append(f"frame {frame.attrs.get('frame')}: holds a "
                            f"{span.name} span of frame "
                            f"{span.attrs.get('frame')}")
            continue
        if span.name in row:
            problems.append(f"frame at {frame.start_ns} ns: two "
                            f"{span.name} spans")
        row[span.name] = span.duration_ns * 1e-9
    kept = [row for row in rows.values() if "error" not in row["attrs"]]
    for row in kept:
        missing = [name for name in names if name not in row]
        if missing:
            problems.append(f"frame {row['attrs']}: no {', '.join(missing)} "
                            f"span")
    return kept, problems


def ok_frac(attempted: int, failed: int) -> float:
    """Share of attempted operations that succeeded."""
    if attempted < 1:
        raise ValueError("nothing attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"{failed} failures of {attempted} attempts")
    return (attempted - failed) / attempted


def stream_failures(statuses: Iterable[str]) -> int:
    """Frames a stream lost: tracking status ``lost``."""
    return sum(1 for status in statuses if status == "lost")


def serve_failures(offered: int, processed: int) -> int:
    """Frames the server did not process: drops and crashed backlog."""
    if processed > offered:
        raise ValueError(f"{processed} processed of {offered} offered")
    return offered - processed


def dse_failures(errors: Iterable[str | None]) -> int:
    """Evaluations that came back with a job-level error."""
    return sum(1 for error in errors if error is not None)


def open_loop_latency_s(due_s: Sequence[float],
                        done_s: Sequence[float]) -> np.ndarray:
    """Per-request latency timed from when each request was due.

    Timing from the due time (not from when the generator got round to
    sending) charges a stalled generator's lag to the requests it
    delayed, so a stall cannot hide the wait it imposes.
    """
    due = np.asarray(due_s, dtype=float)
    done = np.asarray(done_s, dtype=float)
    if due.shape != done.shape:
        raise ValueError("due and done times differ in length")
    if np.any(done < due):
        raise ValueError("a request completed before it was due")
    return done - due


def jobs_overhead_frac(eval_s: Iterable[float], batch_wall_s: Iterable[float],
                       workers: int) -> float:
    """Share of the pool's capacity not spent evaluating.

    ``1 - Σ eval / (workers × Σ batch wall)``: what remains is dispatch,
    pickling, IPC and idle workers at the end of uneven batches.
    """
    total_eval = float(sum(eval_s))
    capacity = workers * float(sum(batch_wall_s))
    if workers < 1 or capacity <= 0.0:
        raise ValueError("no batch wall time to split")
    return 1.0 - total_eval / capacity


def paired_overhead_frac(untraced_s: Sequence[float],
                         traced_s: Sequence[float]) -> float:
    """Median slowdown of traced over untraced runs of the same work.

    Element ``i`` of both sequences times the same frame of the same
    input; extra untraced samples (an unpaired last pass) are ignored.
    The median of the per-frame ratios, minus 1, does not follow the
    machine's slow drift the way a ratio of pass totals does.
    """
    pairs = list(zip(untraced_s, traced_s))
    if not pairs or any(u <= 0.0 for u, _ in pairs):
        raise ValueError("no positive untraced times to compare with")
    return float(np.median([t / u for u, t in pairs])) - 1.0
