"""The ``serve-open`` workload: an open loop of clients against ServeEngine.

Sixteen clients open sessions at Pareto-spread arrival times, stream
32x24 frames at log-normal per-client rates, and close, following a
schedule from :func:`repro.serve.build_schedule`.  One producer thread
(this one) pushes every message when it falls due, whether or not the
engine keeps up; the engine's scheduler thread serves all sessions.
Each client sends ``OFFERED_FPS * seconds / CLIENTS`` frames and the
timeline is scaled so the whole schedule spans the run's seconds, which
fixes the offered rate at ``OFFERED_FPS`` whatever the seed draws; that
keeps the engine about a quarter busy at this frame and volume size.
Arrivals are near-regular (Pareto shape 8) and client rates vary by 10%:
with heavy-tailed arrivals the p95 latency followed each seed's bursts.
The seed draws the schedule; every client streams the canonical noise
realization's frames, so poses and accuracy repeat across seeds.

Each frame's latency runs from when it was *due*, so a late producer
charges its lag to the frames it delayed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import replace

import numpy as np

from repro.core import run_benchmark
from repro.core.registry import create_algorithm
from repro.datasets.base import InMemorySequence
from repro.datasets.io import load_sequence
from repro.serve import (
    InProcessTransport,
    LoadSpec,
    ServeEngine,
    ServePolicy,
    SessionClose,
    SessionFrame,
    SessionOpen,
    build_schedule,
)
from repro.telemetry import Tracer, monotonic_s

from . import stats
from .common import COLD_SETUPS, STAGES, ColdSetups, Outcome
from .common import add_kernel_stages, concurrency, expect_same_as_before
from .common import layers_not_run, peak_rss_mb, record_resources, timed
from .inputs import SequenceSpec

CLIENTS = 16
#: Frames offered per second over the whole run.  At 24 fps (a third
#: busy) the queueing amplified the host's slow spells: the p95 latency
#: of ten runs spread by 0.37, against 0.15 to 0.23 at this rate.
OFFERED_FPS = 16.0
#: Length of the rendered client sequence: enough for a 60 s run.
MAX_FRAMES_PER_CLIENT = 60
SPECS = {"serve-open": SequenceSpec("lr_kt0", MAX_FRAMES_PER_CLIENT,
                                    32, 24)}
CONFIGURATION = {"volume_resolution": 32, "volume_size": 4.8}
#: Client population shape (virtual time, before scaling to the run).
MEAN_INTERARRIVAL_S = 0.8
ARRIVAL_SHAPE = 8.0
FPS_MEDIAN = 3.0
FPS_SIGMA = 0.1
POLICY = {"queue_capacity": 8, "frames_per_round": 4,
          "drop_policy": "oldest"}
#: A producer this late (p95) no longer offers the scheduled load.
MAX_LAG_P95_S = 0.05
WARMUP_CLIENT = "warmup"
#: Untraced/traced pairs of serial runs behind ``telemetry.overhead_frac``.
OVERHEAD_PAIRS = 3
#: ``LoadEvent.kind`` values of :func:`repro.serve.build_schedule`.
OPEN, FRAME = 0, 1


class StampedTransport(InProcessTransport):
    """In-process transport noting when the engine picks up each frame.

    The engine reports a frame's latency from its pick-up; adding that
    to the pick-up time gives when the pose was ready.
    """

    def __init__(self):
        super().__init__()
        self.picked_up: dict = {}

    def poll(self, max_messages=None):
        now = monotonic_s()
        messages = super().poll(max_messages)
        for message in messages:
            if isinstance(message, SessionFrame):
                key = (message.client_id, message.frame.index)
                self.picked_up[key] = now
        return messages


def _frame(sequence, number: int, fps: float):
    base = sequence.frame(number)
    return replace(base.without_ground_truth(), index=number,
                   timestamp=number / fps)


def _open(client_id: str, sequence):
    return SessionOpen(client_id=client_id, sensors=sequence.sensors,
                       algorithm="kfusion",
                       configuration=dict(CONFIGURATION))


def _schedule(seed: int, seconds: float):
    """The seed's client schedule, sized to offer ``OFFERED_FPS``."""
    frames = min(MAX_FRAMES_PER_CLIENT,
                 max(1, round(OFFERED_FPS * seconds / CLIENTS)))
    spec = LoadSpec(clients=CLIENTS, frames_per_client=frames,
                    mean_interarrival_s=MEAN_INTERARRIVAL_S,
                    arrival_shape=ARRIVAL_SHAPE, fps_median=FPS_MEDIAN,
                    fps_sigma=FPS_SIGMA, seed=seed)
    return build_schedule(spec)[1]


def setup(name: str, seed: int, path, tracer=None):
    """Load, build and warm the engine, start it."""
    sequence, load_s = timed(load_sequence, str(path))
    transport = StampedTransport()
    engine = ServeEngine(transport, policy=ServePolicy(**POLICY),
                         tracer=tracer)
    # One session served synchronously before the scheduler thread
    # starts: the first open imports and compiles what every later one
    # reuses, which a serving process pays once, before traffic.
    transport.send(_open(WARMUP_CLIENT, sequence))
    for number in range(2):
        transport.send(SessionFrame(WARMUP_CLIENT,
                                    _frame(sequence, number, 30.0)))
    transport.send(SessionClose(WARMUP_CLIENT))
    engine.run_until_idle()
    engine.start()
    return (sequence, engine), {"load_s": load_s}


def release(value) -> None:
    value[1].close()


def _replay(events, sequence, engine, seconds: float):
    """Push every event when due.

    Returns due and push times per frame, the start of the replay and
    its speed-up over the schedule's virtual time.
    """
    speed = events[-1].time_s / seconds
    due, pushed = {}, {}
    start = monotonic_s()
    for event in events:
        at = start + event.time_s / speed
        delay = at - monotonic_s()
        if delay > 0:
            time.sleep(delay)
        client = event.client.client_id
        if event.kind == OPEN:
            message = _open(client, sequence)
        elif event.kind == FRAME:
            message = SessionFrame(client, _frame(
                sequence, event.frame_number, event.client.fps))
        else:
            message = SessionClose(client)
        now = monotonic_s()
        engine.transport.send(message)
        if event.kind == FRAME:
            due[(client, event.frame_number)] = at
            pushed[(client, event.frame_number)] = now
    return due, pushed, start, speed


def _serial(sequence, n_frames: int, tracer=None):
    """One system fed the first ``n_frames`` frames in order, with ATE."""
    frames = [sequence.frame(i) for i in range(n_frames)]
    return run_benchmark(
        create_algorithm("kfusion"),
        InMemorySequence(sequence.name, sequence.sensors, frames),
        configuration=dict(CONFIGURATION), tracer=tracer)


def _poses(result):
    """Statuses and pose bytes of a serial run."""
    return ([r.status.value for r in result.collector.records],
            [np.asarray(r.pose, dtype=np.float64).tobytes()
             for r in result.collector.records])


def _tracing_overhead(sequence, n_frames: int) -> float:
    """Tracer cost on the served pipeline: serial runs traced and not.

    The open loop runs once, traced, so its own frames have no untraced
    twin; instead untraced and traced serial runs of the same frames
    alternate, and the frames pair up one to one.
    """
    untraced, traced = [], []
    for _ in range(OVERHEAD_PAIRS):
        for tracer, times in ((None, untraced),
                              (Tracer(enabled=True), traced)):
            result = _serial(sequence, n_frames, tracer)
            times.extend(r.wall_time_s for r in result.collector.records)
    return stats.paired_overhead_frac(untraced, traced)


def measure(name: str, seed: int, seconds: float, trace: bool,
            path, canonical_path) -> Outcome:
    """Replay the seed's schedule of the canonical sequence's frames.

    The seed draws the schedule: arrivals, client rates and so the
    latencies.  Every client streams the canonical realization (noise
    seed 0), so the sessions' poses, and the accuracy of one checked
    against a serial replay, compare exactly across seeds and commits.
    ``path`` (the seeded realization, the same size) is what the timed
    cold set-ups load.
    """
    tracer = Tracer(enabled=trace)
    # Set-ups cannot run during the replay without taking a core from
    # the engine, so half are timed before it and the rest after.
    setups = ColdSetups(name, seed)
    for _ in range(COLD_SETUPS // 2):
        setups.take()
    sequence, engine = setup(name, seed, canonical_path, tracer)[0]
    events = _schedule(seed, seconds)
    try:
        due, pushed, started, speed = _replay(events, sequence, engine,
                                              seconds)
        observed = concurrency()
        engine.stop(drain=True)
        wall_s = monotonic_s() - started
    finally:
        engine.close()
    setup_s, parts = setups.result()

    snapshot = engine.stats()
    sessions = {cid: s for cid, s in engine.sessions.items()
                if cid != WARMUP_CLIENT}
    results = [(cid, r) for cid, s in sessions.items() for r in s.results]
    picked = engine.transport.picked_up
    done = [picked[(cid, r.frame_index)] + r.latency_s for cid, r in results]
    latency_s = stats.open_loop_latency_s(
        [due[(cid, r.frame_index)] for cid, r in results], done)
    lag_s = [pushed[key] - due[key] for key in due]

    offered = len(due)
    processed = len(results)
    outcome = Outcome(attempted=offered,
                      failed=stats.serve_failures(offered, processed))
    outcome.check(snapshot["sessions"]["crashed"] == 0,
                  f"{name}: {snapshot['sessions']['crashed']} sessions "
                  f"crashed")
    outcome.check(snapshot["sessions"]["by_state"]
                  == {"closed": CLIENTS + 1},
                  f"{name}: sessions not all closed: "
                  f"{snapshot['sessions']['by_state']}")
    dropped = sum(s.frames_dropped for s in sessions.values())
    received = sum(s.frames_received for s in sessions.values())
    outcome.check(received == offered and processed + dropped == offered,
                  f"{name}: {offered} offered, {received} received, "
                  f"{processed} processed, {dropped} dropped")
    lag_p95 = stats.require_percentile(lag_s, 95, "producer lag")
    outcome.check(lag_p95 <= MAX_LAG_P95_S,
                  f"{name}: producer lag p95 {lag_p95 * 1e3:.1f} ms; the "
                  f"offered load was not the scheduled one")
    whole = [s for s in sessions.values()
             if s.frames_dropped == 0 and s.frames_processed > 0]
    outcome.check(bool(whole), f"{name}: every session dropped frames")
    if whole:
        session = max(whole, key=lambda s: (s.frames_processed, s.client_id))
        serial = _serial(sequence, session.frames_processed)
        statuses, poses = _poses(serial)
        outcome.check(
            session.status_sequence() == statuses
            and session.pose_sequence() == poses,
            f"{name}: session {session.client_id} differs from a serial "
            f"replay of its frames")
        expect_same_as_before(outcome, f"{name}-n{len(poses)}",
                              {"statuses": statuses, "poses_sha256":
                               hashlib.sha256(b"".join(poses)).hexdigest(),
                               "ate_max_m": repr(serial.ate.max)})

    if trace:
        service = [s.duration_s for s in tracer.spans_named("serve.frame")
                   if s.attrs.get("session") != WARMUP_CLIENT]
        # Due to service start: producer lag, transport and session
        # queues.  The engine's own ``latency_s`` starts at pick-up, after
        # the frame has waited in the transport, so it cannot show this.
        wait = [lat - r.duration_s for lat, (_, r) in zip(latency_s, results)]
        rows, problems = stats.stage_rows(
            tracer.spans_named("serve.frame"),
            [s for stage in STAGES for s in tracer.spans_named(stage)],
            STAGES)
        for problem in problems:
            outcome.check(False, f"{name}: {problem}")
        add_kernel_stages(outcome, [
            row for row in rows
            if row["attrs"].get("session") != WARMUP_CLIENT])
        outcome.add("serve.service_ms_p50", 1e3 * stats.require_percentile(
            service, 50, "service"), "ms")
        outcome.add("serve.service_ms_p95", 1e3 * stats.require_percentile(
            service, 95, "service"), "ms")
        for q in (50, 95):
            outcome.add(f"serve.queue_wait_ms_p{q}", 1e3 *
                        stats.require_percentile(wait, q, "queue wait"), "ms")
        outcome.add("serve.busy_frac", sum(service) / wall_s, "ratio")
        outcome.add("serve.dropped", dropped, "count")
        outcome.add("loadgen.lag_ms_p95", lag_p95 * 1e3, "ms")
        outcome.add("datasets.load_s", parts["load_s"], "s")
        outcome.add("telemetry.overhead_frac", _tracing_overhead(
            sequence, max(s.frames_processed for s in sessions.values())),
            "ratio")
        layers_not_run(outcome, "hypermapper", "jobs")
    else:
        # A served frame is this workload's operation.  Its latency runs
        # from when it was due; the offered rate is fixed, so the
        # throughput reported is the engine's capacity: frames per second
        # of its service time.
        outcome.add("setup_s", setup_s, "s")
        outcome.add("peak_rss_mb", peak_rss_mb(), "MB")
        outcome.add("ok_frac", stats.ok_frac(offered, outcome.failed),
                    "ratio")
        outcome.add("latency_ms_p50", 1e3 * stats.require_percentile(
            latency_s, 50, "latency"), "ms")
        outcome.add("throughput_per_s",
                    processed / sum(r.duration_s for _, r in results), "1/s")
        if whole:
            outcome.add("ate_max_mm", serial.ate.max * 1e3, "mm")
        # Reported but not gated: queueing amplifies the host's slow
        # spells in the tail, and two ten-run sets of the same code had
        # medians 29% apart (README).
        outcome.info["latency_ms_p95"] = 1e3 * stats.require_percentile(
            latency_s, 95, "latency")
    outcome.info.update(offered_fps=offered / wall_s, speed=speed,
                        wall_s=wall_s, seed=seed,
                        lag_ms_p95=lag_p95 * 1e3)
    record_resources(outcome, observed)
    return outcome
