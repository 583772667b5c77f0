"""The session engine: one scheduler multiplexing many SLAM sessions.

:class:`ServeEngine` is the serving layer's core loop.  It drains the
transport port, routes messages to per-client :class:`~repro.serve.session.Session`
objects (each owning its own compiled graph ``PipelineInstance`` and
``FrameWorkspace`` arena — sessions share *nothing* mutable, which is
what makes concurrent streams bit-identical to serial ones), and runs
*scheduling rounds*: every round visits the sessions in deterministic
(creation) order and processes at most ``policy.frames_per_round``
frames each, so no client can starve the rest.

Overload handling is explicit end to end: ingress queues are bounded
(:class:`~repro.serve.session.ServePolicy`), full queues drop by the
configured policy with every drop counted, a crashing algorithm
quarantines only its own session, and the stats snapshot
(:meth:`ServeEngine.stats`) reports queue depths, drop counts, p50/p95
frame latency and sliding-window throughput per session and fleet-wide.

Two drive modes share all of that machinery:

* **synchronous** — tests and the differential/determinism harnesses
  call :meth:`step` / :meth:`run_until_idle` themselves; with an
  injected clock the whole engine is deterministic.
* **threaded** — :meth:`start` spawns the scheduler thread (the serving
  daemon of ``repro serve``); clients push into the transport from any
  thread while the engine processes.  The thread parks on
  ``transport.wait`` when idle instead of spinning.

Telemetry flows through the tracer captured at construction: per-frame
``serve.frame`` spans (session- and frame-stamped, wrapping the graph's
own per-stage spans), monotonic counters, and
:class:`~repro.telemetry.RateWindow`-backed rates via ``tracer.mark``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable

import numpy as np

from ..core.registry import create_algorithm, register_defaults
from ..errors import ReproError, ServeError
from ..telemetry import (
    RateWindow,
    current_tracer,
    monotonic_s,
    stage,
    use_tracer,
)
from .session import ServePolicy, Session, SessionState
from .transport import SessionClose, SessionFrame, SessionOpen, Transport

#: How long the threaded scheduler parks on an idle transport before
#: rechecking the stop flag (seconds).
IDLE_WAIT_S = 0.02


class ServeEngine:
    """Concurrent SLAM session manager and frame scheduler.

    Args:
        transport: the message port clients reach the engine through.
        policy: per-session backpressure/budget policy (shared default;
            a ``SessionOpen`` cannot override it — budgets are the
            operator's, not the client's).
        clock: monotonic-seconds source for ingress/latency accounting;
            tests inject a fake one for determinism.
        tracer: telemetry sink; defaults to the current tracer at
            construction so the threaded scheduler emits into the same
            tracer as the thread that built the engine.
    """

    def __init__(self, transport: Transport, policy: ServePolicy | None = None,
                 clock: Callable[[], float] = monotonic_s, tracer=None):
        register_defaults()
        self.transport = transport
        self.policy = policy if policy is not None else ServePolicy()
        self._clock = clock
        self._tracer = tracer if tracer is not None else current_tracer()
        self._sessions: dict[str, Session] = {}
        self._protocol_errors = 0
        self._protocol_log: deque = deque(maxlen=16)
        self._sessions_opened = 0
        self._sessions_closed = 0
        self._sessions_crashed = 0
        self._rounds = 0
        self._processed_rate = RateWindow(clock=clock)
        self._dropped_rate = RateWindow(clock=clock)
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()
        # Held for each whole scheduling round (see step()) and by every
        # public reader; tests/test_locksets.py checks the guard at run time.
        self._lock = threading.Lock()

    # -- session table -------------------------------------------------------
    @property
    def sessions(self) -> dict[str, Session]:
        """Snapshot of the live session table."""
        with self._lock:
            return dict(self._sessions)

    def session(self, client_id: str) -> Session:
        with self._lock:
            try:
                return self._sessions[client_id]
            except KeyError:
                raise ServeError(
                    f"unknown session {client_id!r}; "
                    f"known: {sorted(self._sessions)}"
                ) from None

    def pending_frames(self) -> int:
        """Frames queued across runnable sessions (thread-safe)."""
        with self._lock:
            return self._pending_frames()

    def _pending_frames(self) -> int:
        # callers hold self._lock (non-reentrant: do not re-take it here)
        return sum(s.queue_depth for s in self._sessions.values()
                   if s.state in (SessionState.ACTIVE, SessionState.DRAINING))

    # -- message routing -----------------------------------------------------
    def _protocol_error(self, what: str) -> None:
        self._protocol_errors += 1
        self._protocol_log.append(what)
        self._tracer.count("serve.protocol_errors")

    def _handle_open(self, msg: SessionOpen) -> None:
        if msg.client_id in self._sessions:
            self._protocol_error(f"duplicate open {msg.client_id!r}")
            return
        try:
            system = create_algorithm(msg.algorithm, **msg.factory_kwargs)
            config = system.new_configuration()
            if msg.configuration:
                config.update(msg.configuration)
            with use_tracer(self._tracer):
                system.init(msg.sensors)
        except ReproError as exc:
            # A bad open (unknown algorithm, invalid configuration) is
            # the client's fault; the engine stays up.
            self._protocol_error(f"open {msg.client_id!r} failed: {exc}")
            return
        session = Session(msg.client_id, system, self.policy)
        self._sessions[msg.client_id] = session
        self._sessions_opened += 1
        self._tracer.count("serve.sessions_opened")

    def _handle_frame(self, msg: SessionFrame) -> None:
        session = self._sessions.get(msg.client_id)
        if session is None:
            self._protocol_error(f"frame for unknown session "
                                 f"{msg.client_id!r}")
            return
        admitted = session.enqueue(msg.frame, self._clock())
        self._tracer.count("serve.frames_received")
        if not admitted:
            self._dropped_rate.mark()
            self._tracer.mark("serve.frames_dropped")

    def _handle_close(self, msg: SessionClose) -> None:
        session = self._sessions.get(msg.client_id)
        if session is None:
            self._protocol_error(f"close for unknown session "
                                 f"{msg.client_id!r}")
            return
        session.begin_drain()

    def drain_transport(self, max_messages: int | None = None) -> int:
        """Route pending transport messages; returns how many."""
        messages = self.transport.poll(max_messages)
        for msg in messages:
            if isinstance(msg, SessionOpen):
                self._handle_open(msg)
            elif isinstance(msg, SessionFrame):
                self._handle_frame(msg)
            elif isinstance(msg, SessionClose):
                self._handle_close(msg)
            else:  # an adapter shipping foreign objects is an engine fault
                raise ServeError(
                    f"transport delivered {type(msg).__name__}, not a "
                    f"session message"
                )
        return len(messages)

    # -- frame processing ----------------------------------------------------
    def _process_one(self, session: Session) -> None:
        frame, ingress_s = session.take()
        system = session.system
        try:
            with stage(None, "serve.frame", session=session.client_id,
                       frame=frame.index) as timed:
                system.update_frame(frame.without_ground_truth())
                status = system.process_once()
                system.update_outputs()
            pose = np.array(system.outputs.pose(), dtype=np.float64)
        except Exception as exc:  # quarantine: one bad session, not the fleet
            session.mark_crashed(f"{type(exc).__name__}: {exc}")
            self._sessions_crashed += 1
            self._tracer.count("serve.sessions_crashed")
            try:
                system.clean()
            except Exception:
                pass  # release is best-effort on a crashed algorithm
            return
        latency_s = max(self._clock() - ingress_s, 0.0)
        session.record_result(frame.index, status.value, pose,
                              latency_s, timed.duration_s)
        self._processed_rate.mark()
        self._tracer.mark("serve.frames_processed")

    def _finish_drained(self, session: Session) -> None:
        try:
            session.system.clean()
        except ReproError:
            pass  # already-clean systems are fine to re-release
        session.mark_closed()
        self._sessions_closed += 1
        self._tracer.count("serve.sessions_closed")

    def step(self) -> int:
        """One scheduling round; returns frames processed.

        Drains the transport, then gives every runnable session up to
        ``policy.frames_per_round`` frames, visiting sessions in
        creation order — the deterministic multiplexing the
        concurrent-vs-serial equivalence test pins down.

        The whole round is one critical section under ``_lock``: the
        transport drain, session opens (algorithm construction and
        ``init``), every frame's ``process_once`` and every clock read
        (ingress stamps, latencies, rate marks).  A ``stats()`` poll
        therefore waits for the round in progress to finish.
        """
        # Lock order: _lock first, then the transport's _cond (taken in
        # drain_transport -> transport.poll).  No transport method may call
        # back into the engine while holding _cond; no lint rule checks it,
        # tests/test_serve.py::TestServeLockOrder does.
        with self._lock, use_tracer(self._tracer):
            self.drain_transport()
            processed = 0
            for session in list(self._sessions.values()):
                if session.state not in (SessionState.ACTIVE,
                                         SessionState.DRAINING):
                    continue
                budget = min(self.policy.frames_per_round,
                             session.queue_depth)
                for _ in range(budget):
                    if session.state is SessionState.CRASHED:
                        break
                    self._process_one(session)
                    processed += 1
                if (session.state is SessionState.DRAINING
                        and session.queue_depth == 0):
                    self._finish_drained(session)
            self._rounds += 1
            return processed

    def run_until_idle(self, max_rounds: int = 100_000) -> int:
        """Step until no messages or frames remain; returns frames run.

        ``max_rounds`` is a deadlock tripwire: exceeding it raises
        :class:`ServeError` instead of hanging the caller — the overload
        tests lean on this to prove budgets always make progress.
        """
        total = 0
        for _ in range(max_rounds):
            processed = self.step()
            total += processed
            if (processed == 0 and self.transport.pending == 0
                    and self.pending_frames() == 0):
                return total
        raise ServeError(
            f"run_until_idle did not converge in {max_rounds} rounds "
            f"({self.transport.pending} messages, "
            f"{self.pending_frames()} frames pending)"
        )

    # -- threaded mode -------------------------------------------------------
    @property
    def running(self) -> bool:
        with self._lock:
            return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Spawn the scheduler thread (idempotent start is an error)."""
        with self._lock:
            if self._thread is not None and self._thread.is_alive():
                raise ServeError("engine already running")
            self._stop.clear()
            self._thread = threading.Thread(target=self._serve_loop,
                                            name="repro-serve", daemon=True)
            self._thread.start()

    def _serve_loop(self) -> None:
        while not self._stop.is_set():
            processed = self.step()
            if (processed == 0 and self.transport.pending == 0
                    and self.pending_frames() == 0):
                self.transport.wait(IDLE_WAIT_S)

    def stop(self, drain: bool = True) -> None:
        """Stop the scheduler thread; optionally finish queued work first."""
        with self._lock:
            thread = self._thread
        if thread is None:
            return
        if drain:
            # Let the loop keep running until everything pending is done,
            # then flag it down; new sends may still race in and are
            # simply served next start (or left pollable).
            while (self.transport.pending or self.pending_frames()):
                if not thread.is_alive():
                    break
                self.transport.wait(IDLE_WAIT_S)
        self._stop.set()
        thread.join()  # outside the lock: the loop needs it to finish
        with self._lock:
            self._thread = None

    def close(self) -> None:
        """Stop (without draining), close the transport, release sessions."""
        self.stop(drain=False)
        self.transport.close()
        with self._lock:
            for session in self._sessions.values():
                if session.state in (SessionState.ACTIVE,
                                     SessionState.DRAINING):
                    self._finish_drained(session)

    def __enter__(self) -> "ServeEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- stats ---------------------------------------------------------------
    def stats(self) -> dict:
        """JSON-safe health/stats snapshot of the whole engine.

        Safe to call from any thread (takes the scheduling lock, so a
        snapshot never observes a half-processed round).
        """
        with self._lock:
            states: dict[str, int] = {}
            latencies: list[float] = []
            received = processed = dropped = 0
            per_session = {}
            for cid, session in self._sessions.items():
                states[session.state.value] = (
                    states.get(session.state.value, 0) + 1
                )
                received += session.frames_received
                processed += session.frames_processed
                dropped += session.frames_dropped
                latencies.extend(session.latency_samples)
                per_session[cid] = session.stats()
            if latencies:
                arr = np.asarray(latencies, dtype=np.float64)
                p50 = float(np.percentile(arr, 50))
                p95 = float(np.percentile(arr, 95))
            else:
                p50 = p95 = 0.0
            return {
                "sessions": {
                    "opened": self._sessions_opened,
                    "closed": self._sessions_closed,
                    "crashed": self._sessions_crashed,
                    "by_state": states,
                },
                "frames": {
                    "received": received,
                    "processed": processed,
                    "dropped": dropped,
                    "drop_rate": (dropped / received) if received else 0.0,
                },
                "latency": {"p50_s": p50, "p95_s": p95},
                "throughput": {
                    "processed_fps": self._processed_rate.rate(),
                    "dropped_fps": self._dropped_rate.rate(),
                },
                "queue_depth": self._pending_frames(),
                "protocol_errors": self._protocol_errors,
                "recent_protocol_errors": list(self._protocol_log),
                "rounds": self._rounds,
                "per_session": per_session,
            }


__all__ = ["IDLE_WAIT_S", "ServeEngine"]
