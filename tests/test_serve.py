"""Tests for repro.serve: transport, sessions, engine, loadgen (S21).

The two tests the subsystem exists to pass:

* **overload semantics** — bounded ingress queues, counted drops, no
  deadlock, and later frames still processed after an overload burst
  (`TestOverloadSemantics`);
* **concurrent == serial** — N interleaved sessions produce per-session
  pose/status sequences bit-identical to running each client alone
  (`TestConcurrentSerialEquivalence`).
"""

from __future__ import annotations

import threading  # noqa: RPR006 — exercising the engine's own locking
from dataclasses import replace

import pytest

from repro.errors import ServeError
from repro.serve import (
    DROP_POLICIES,
    InProcessTransport,
    LoadSpec,
    ServeEngine,
    ServePolicy,
    Session,
    SessionClose,
    SessionFrame,
    SessionOpen,
    SessionState,
    build_schedule,
    run_load,
)
from repro.telemetry import Tracer, use_tracer


class FakeClock:
    """Injectable monotonic clock: advances only when told to."""

    def __init__(self):
        self.now_s = 0.0

    def __call__(self) -> float:
        return self.now_s

    def advance(self, dt_s: float) -> None:
        self.now_s += dt_s


def _frame(sequence, i: int, index: int | None = None):
    base = sequence.frame(i % len(sequence)).without_ground_truth()
    return replace(base, index=i if index is None else index)


def _open(sequence, cid: str, algorithm: str = "static") -> SessionOpen:
    return SessionOpen(client_id=cid, sensors=sequence.sensors,
                       algorithm=algorithm)


# -- transport ---------------------------------------------------------------

class TestInProcessTransport:
    def test_fifo_order_and_pending(self, tiny_sequence):
        t = InProcessTransport()
        msgs = [_open(tiny_sequence, "a"),
                SessionFrame("a", _frame(tiny_sequence, 0)),
                SessionClose("a")]
        for m in msgs:
            t.send(m)
        assert t.pending == 3
        assert t.poll() == msgs
        assert t.pending == 0

    def test_poll_max_messages(self, tiny_sequence):
        t = InProcessTransport()
        for i in range(5):
            t.send(SessionFrame("a", _frame(tiny_sequence, i)))
        first = t.poll(2)
        assert [m.frame.index for m in first] == [0, 1]
        assert t.pending == 3
        assert [m.frame.index for m in t.poll()] == [2, 3, 4]

    def test_send_after_close_rejected(self, tiny_sequence):
        t = InProcessTransport()
        t.send(SessionClose("a"))
        t.close()
        with pytest.raises(ServeError):
            t.send(SessionClose("b"))
        # Pending messages stay pollable after close.
        assert t.poll() == [SessionClose("a")]

    def test_foreign_message_rejected(self):
        t = InProcessTransport()
        with pytest.raises(ServeError):
            t.send({"kind": "open"})

    def test_wait_reports_pending(self):
        t = InProcessTransport()
        assert t.wait(0.0) is False
        t.send(SessionClose("a"))
        assert t.wait(0.0) is True


# -- policy + session --------------------------------------------------------

class TestServePolicy:
    def test_defaults_valid(self):
        p = ServePolicy()
        assert p.queue_capacity >= 1 and p.drop_policy in DROP_POLICIES

    @pytest.mark.parametrize("kwargs", [
        {"queue_capacity": 0},
        {"frames_per_round": 0},
        {"drop_policy": "random"},
        {"max_latency_samples": 0},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ServeError):
            ServePolicy(**kwargs)


class TestSession:
    def _session(self, **policy_kwargs) -> Session:
        return Session("c0", system=None,
                       policy=ServePolicy(**policy_kwargs))

    def test_drop_oldest_evicts_head(self, tiny_sequence):
        s = self._session(queue_capacity=2, drop_policy="oldest")
        for i in range(3):
            s.enqueue(_frame(tiny_sequence, i), now_s=float(i))
        assert s.frames_dropped == 1
        assert s.queue_depth == 2
        # Latest-wins: frame 0 died, 1 and 2 survive.
        assert [s.take()[0].index for _ in range(2)] == [1, 2]

    def test_drop_newest_rejects_arrival(self, tiny_sequence):
        s = self._session(queue_capacity=2, drop_policy="newest")
        admitted = [s.enqueue(_frame(tiny_sequence, i), now_s=0.0)
                    for i in range(3)]
        assert admitted == [True, True, False]
        assert s.frames_dropped == 1
        assert [s.take()[0].index for _ in range(2)] == [0, 1]

    def test_non_active_states_drop_counted(self, tiny_sequence):
        s = self._session()
        s.begin_drain()
        assert s.enqueue(_frame(tiny_sequence, 0), now_s=0.0) is False
        assert s.frames_dropped == 1 and s.queue_depth == 0

    def test_take_empty_raises(self):
        with pytest.raises(ServeError):
            self._session().take()

    def test_crash_clears_backlog_counted(self, tiny_sequence):
        s = self._session(queue_capacity=8)
        for i in range(3):
            s.enqueue(_frame(tiny_sequence, i), now_s=0.0)
        s.mark_crashed("boom")
        assert s.state is SessionState.CRASHED
        assert s.queue_depth == 0 and s.frames_dropped == 3
        assert s.stats()["error"] == "boom"


# -- engine ------------------------------------------------------------------

class TestServeEngine:
    def _engine(self, **policy_kwargs):
        clock = FakeClock()
        engine = ServeEngine(InProcessTransport(),
                             policy=ServePolicy(**policy_kwargs),
                             clock=clock)
        return engine, engine.transport, clock

    def test_open_process_close_lifecycle(self, tiny_sequence):
        engine, transport, _ = self._engine()
        transport.send(_open(tiny_sequence, "c0"))
        for i in range(3):
            transport.send(SessionFrame("c0", _frame(tiny_sequence, i)))
        transport.send(SessionClose("c0"))
        engine.run_until_idle()
        stats = engine.stats()
        assert stats["sessions"] == {
            "opened": 1, "closed": 1, "crashed": 0,
            "by_state": {"closed": 1},
        }
        assert stats["frames"]["processed"] == 3
        assert stats["frames"]["dropped"] == 0
        assert engine.session("c0").state is SessionState.CLOSED

    def test_round_robin_budget_interleaves(self, tiny_sequence):
        engine, transport, _ = self._engine(frames_per_round=2,
                                            queue_capacity=16)
        for cid in ("a", "b"):
            transport.send(_open(tiny_sequence, cid))
            for i in range(6):
                transport.send(SessionFrame(cid, _frame(tiny_sequence, i)))
        assert engine.step() == 4  # 2 budget x 2 sessions
        assert engine.session("a").frames_processed == 2
        assert engine.session("b").frames_processed == 2
        assert engine.run_until_idle() == 8

    def test_protocol_errors_counted_not_fatal(self, tiny_sequence):
        engine, transport, _ = self._engine()
        transport.send(_open(tiny_sequence, "c0"))
        transport.send(_open(tiny_sequence, "c0"))           # duplicate
        transport.send(SessionFrame("ghost", _frame(tiny_sequence, 0)))
        transport.send(SessionClose("ghost"))
        transport.send(SessionOpen(client_id="bad",
                                   sensors=tiny_sequence.sensors,
                                   algorithm="no_such_algorithm"))
        engine.run_until_idle()
        stats = engine.stats()
        assert stats["protocol_errors"] == 4
        assert len(stats["recent_protocol_errors"]) == 4
        assert stats["sessions"]["opened"] == 1

    def test_crash_quarantines_one_session(self, tiny_sequence):
        engine, transport, _ = self._engine()
        transport.send(_open(tiny_sequence, "ok"))
        transport.send(_open(tiny_sequence, "doomed"))
        engine.step()
        # Sabotage one session's system; the other must keep serving.
        engine.session("doomed").system.update_frame = None
        for cid in ("ok", "doomed"):
            transport.send(SessionFrame(cid, _frame(tiny_sequence, 0)))
        engine.run_until_idle()
        assert engine.session("doomed").state is SessionState.CRASHED
        assert engine.session("ok").frames_processed == 1
        stats = engine.stats()
        assert stats["sessions"]["crashed"] == 1
        # A crashed session keeps dropping (counted) without reviving.
        transport.send(SessionFrame("doomed", _frame(tiny_sequence, 1)))
        engine.run_until_idle()
        assert engine.session("doomed").frames_dropped == 1

    def test_latency_uses_injected_clock(self, tiny_sequence):
        engine, transport, clock = self._engine()
        transport.send(_open(tiny_sequence, "c0"))
        engine.step()
        transport.send(SessionFrame("c0", _frame(tiny_sequence, 0)))
        engine.drain_transport()
        clock.advance(0.5)
        engine.step()
        [sample] = engine.session("c0").latency_samples
        assert sample == pytest.approx(0.5)

    def test_stats_snapshot_json_safe(self, tiny_sequence):
        import json

        engine, transport, _ = self._engine()
        transport.send(_open(tiny_sequence, "c0"))
        transport.send(SessionFrame("c0", _frame(tiny_sequence, 0)))
        engine.run_until_idle()
        stats = engine.stats()
        json.dumps(stats)  # must not raise
        assert stats["per_session"]["c0"]["frames_processed"] == 1
        assert stats["throughput"]["processed_fps"] >= 0.0

    def test_serve_telemetry_counters(self, tiny_sequence):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            engine = ServeEngine(InProcessTransport(),
                                 policy=ServePolicy())
            engine.transport.send(_open(tiny_sequence, "c0"))
            engine.transport.send(
                SessionFrame("c0", _frame(tiny_sequence, 0)))
            engine.run_until_idle()
        assert tracer.counters["serve.sessions_opened"] == 1
        assert tracer.counters["serve.frames_processed"] == 1
        assert any(s.name == "serve.frame" for s in tracer.spans)


class TestOverloadSemantics:
    """Satellite: overload is explicit — bounded, counted, alive."""

    def test_burst_past_capacity_drops_counted_then_recovers(
            self, tiny_sequence):
        clock = FakeClock()
        engine = ServeEngine(
            InProcessTransport(),
            policy=ServePolicy(queue_capacity=4, frames_per_round=2,
                               drop_policy="oldest"),
            clock=clock,
        )
        transport = engine.transport
        transport.send(_open(tiny_sequence, "c0"))
        engine.step()

        # Burst: 12 frames with no scheduling in between.
        for i in range(12):
            transport.send(SessionFrame("c0", _frame(tiny_sequence, i)))
        engine.drain_transport()
        session = engine.session("c0")
        assert session.queue_depth == 4          # bounded, not 12
        assert session.frames_dropped == 8       # every drop counted
        # Latest-wins kept the freshest frames.
        assert [f.index for f, _ in session._queue] == [8, 9, 10, 11]

        # No deadlock: run_until_idle converges within its tripwire.
        processed = engine.run_until_idle(max_rounds=50)
        assert processed == 4

        # Later frames are still processed after the overload burst.
        transport.send(SessionFrame("c0", _frame(tiny_sequence, 12)))
        engine.run_until_idle()
        assert session.frames_processed == 5
        stats = engine.stats()
        assert stats["frames"]["received"] == 13
        assert stats["frames"]["dropped"] == 8
        assert stats["frames"]["drop_rate"] == pytest.approx(8 / 13)

    def test_drop_newest_keeps_committed_frames(self, tiny_sequence):
        engine = ServeEngine(
            InProcessTransport(),
            policy=ServePolicy(queue_capacity=3, drop_policy="newest"),
            clock=FakeClock(),
        )
        engine.transport.send(_open(tiny_sequence, "c0"))
        engine.step()
        for i in range(6):
            engine.transport.send(
                SessionFrame("c0", _frame(tiny_sequence, i)))
        engine.drain_transport()
        session = engine.session("c0")
        assert [f.index for f, _ in session._queue] == [0, 1, 2]
        assert session.frames_dropped == 3
        engine.run_until_idle()
        assert [r.frame_index for r in session.results] == [0, 1, 2]


class TestConcurrentSerialEquivalence:
    """Acceptance: N concurrent sessions == N serial runs, bit for bit."""

    N_SESSIONS = 3
    N_FRAMES = 4
    CONFIG = {"volume_resolution": 64}

    def _run(self, sequence, client_ids, interleaved: bool):
        """Drive sessions through one engine; together or one at a time."""
        engine = ServeEngine(
            InProcessTransport(),
            policy=ServePolicy(queue_capacity=16, frames_per_round=1),
            clock=FakeClock(),
        )
        transport = engine.transport

        def push_all(cid):
            transport.send(SessionOpen(
                client_id=cid, sensors=sequence.sensors,
                algorithm="kfusion", configuration=dict(self.CONFIG),
            ))
            for i in range(self.N_FRAMES):
                transport.send(SessionFrame(cid, _frame(sequence, i)))
            transport.send(SessionClose(cid))

        if interleaved:
            # All sessions live at once; frames_per_round=1 forces true
            # round-robin interleaving of the per-frame work.
            for cid in client_ids:
                push_all(cid)
            engine.run_until_idle()
        else:
            for cid in client_ids:
                push_all(cid)
                engine.run_until_idle()
        return {
            cid: (engine.session(cid).status_sequence(),
                  engine.session(cid).pose_sequence())
            for cid in client_ids
        }

    def test_interleaved_matches_serial_bitwise(self, tiny_sequence):
        cids = [f"c{i}" for i in range(self.N_SESSIONS)]
        concurrent = self._run(tiny_sequence, cids, interleaved=True)
        serial = self._run(tiny_sequence, cids, interleaved=False)
        for cid in cids:
            statuses_c, poses_c = concurrent[cid]
            statuses_s, poses_s = serial[cid]
            assert len(statuses_c) == self.N_FRAMES
            assert statuses_c == statuses_s
            assert poses_c == poses_s  # raw float64 bytes: bit-identical


# -- threaded mode -----------------------------------------------------------

class TestThreadedEngine:
    def test_start_stop_and_double_start_rejected(self):
        engine = ServeEngine(InProcessTransport())
        engine.start()
        try:
            assert engine.running
            with pytest.raises(ServeError):
                engine.start()
        finally:
            engine.stop()
        assert not engine.running

    def test_threaded_processes_pushed_frames(self, tiny_sequence):
        engine = ServeEngine(InProcessTransport(),
                             policy=ServePolicy(queue_capacity=32))
        engine.start()
        try:
            engine.transport.send(_open(tiny_sequence, "c0"))
            for i in range(5):
                engine.transport.send(
                    SessionFrame("c0", _frame(tiny_sequence, i)))
            engine.transport.send(SessionClose("c0"))
            engine.stop(drain=True)
        finally:
            engine.close()
        stats = engine.stats()
        assert stats["frames"]["processed"] + stats["frames"]["dropped"] == 5
        assert stats["sessions"]["by_state"] == {"closed": 1}

    def test_threaded_stress_producers_and_stats_poller(self, tiny_sequence):
        """N producer threads race the scheduler while a poller hammers
        stats(): no exceptions, every offered frame accounted, and the
        frame counters never move backwards between polls (each stats()
        snapshot is taken under the scheduling lock, so a torn round
        would show up as non-monotone counters)."""
        engine = ServeEngine(InProcessTransport(),
                             policy=ServePolicy(queue_capacity=256))
        n_clients, n_frames = 4, 8
        errors: list[BaseException] = []
        polls: list[tuple[int, int]] = []
        stop = threading.Event()

        def produce(cid: str) -> None:
            try:
                engine.transport.send(_open(tiny_sequence, cid))
                for i in range(n_frames):
                    engine.transport.send(
                        SessionFrame(cid, _frame(tiny_sequence, i)))
                engine.transport.send(SessionClose(cid))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def poll() -> None:
            try:
                while not stop.is_set():
                    frames = engine.stats()["frames"]
                    polls.append((frames["received"],
                                  frames["processed"] + frames["dropped"]))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        poller = threading.Thread(target=poll)
        producers = [threading.Thread(target=produce, args=(f"c{i}",))
                     for i in range(n_clients)]
        engine.start()
        try:
            poller.start()
            for t in producers:
                t.start()
            for t in producers:
                t.join()
            engine.stop(drain=True)
        finally:
            stop.set()
            poller.join()
            engine.close()

        assert errors == []
        stats = engine.stats()
        offered = n_clients * n_frames
        assert stats["frames"]["received"] == offered
        assert (stats["frames"]["processed"]
                + stats["frames"]["dropped"]) == offered
        assert stats["sessions"]["by_state"] == {"closed": n_clients}
        assert polls, "poller must have observed the engine at least once"
        received = [r for r, _ in polls]
        settled = [s for _, s in polls]
        assert received == sorted(received)
        assert settled == sorted(settled)


# -- lock order ----------------------------------------------------------------
class LockOrderError(AssertionError):
    """The engine lock was requested while the transport's was held."""


class _LockOrder:
    """Per-thread held-lock stacks over proxied engine/transport locks.

    ``ServeEngine.step`` takes the engine ``_lock`` and then the
    transport's ``_cond`` (``drain_transport`` -> ``poll``).  A thread
    that takes them the other way round is one half of an AB/BA
    deadlock, so the proxy records it and raises *before* blocking: an
    inversion fails the test instead of hanging it.
    """

    def __init__(self):
        self._local = threading.local()
        self.violations: list[str] = []

    def held(self) -> list:
        if not hasattr(self._local, "names"):
            self._local.names = []
        return self._local.names

    def wrap(self, inner, name: str) -> "_RecordingLock":
        return _RecordingLock(inner, name, self)

    def acquiring(self, name: str) -> None:
        if name == "_lock" and "_cond" in self.held():
            self.violations.append(threading.current_thread().name)
            raise LockOrderError("ServeEngine._lock taken while holding "
                                 "InProcessTransport._cond")


class _RecordingLock:
    """Context-manager proxy that reports acquisitions to a _LockOrder;
    everything else (``wait``, ``notify_all``) goes to the real lock."""

    def __init__(self, inner, name: str, order: _LockOrder):
        self._inner, self._name, self._order = inner, name, order

    def __enter__(self):
        self._order.acquiring(self._name)
        self._inner.__enter__()
        self._order.held().append(self._name)
        return self

    def __exit__(self, *exc):
        self._order.held().pop()
        return self._inner.__exit__(*exc)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class _InvertedOfferEngine(ServeEngine):
    """Planted lock inversion (C2): ``offer`` holds the transport's
    ``_cond`` and then takes the engine ``_lock``."""

    def offer(self, message) -> None:
        with self.transport._cond, self._lock:
            self.transport._messages.append(message)
            self.transport._cond.notify_all()


class TestServeLockOrder:
    def _run(self, engine, offer, sequence):
        """One thread offers two sessions' messages; another steps the
        engine and polls stats() until every offered frame settled."""
        order = _LockOrder()
        engine._lock = order.wrap(engine._lock, "_lock")
        engine.transport._cond = order.wrap(engine.transport._cond, "_cond")
        errors: list[BaseException] = []
        offered = threading.Event()

        def client() -> None:
            try:
                for cid in ("c0", "c1"):
                    offer(_open(sequence, cid))
                    for i in range(4):
                        offer(SessionFrame(cid, _frame(sequence, i)))
                    offer(SessionClose(cid))
            except BaseException as exc:
                errors.append(exc)
            finally:
                offered.set()

        def scheduler() -> None:
            try:
                while True:
                    last = offered.is_set()
                    engine.step()
                    engine.stats()
                    if last and engine.transport.pending == 0 \
                            and engine.pending_frames() == 0:
                        return
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=client),
                   threading.Thread(target=scheduler)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads), "engine deadlocked"
        return order.violations, errors

    def test_engine_lock_never_taken_under_transport_lock(self,
                                                          tiny_sequence):
        engine = ServeEngine(InProcessTransport(),
                             policy=ServePolicy(queue_capacity=32))
        violations, errors = self._run(engine, engine.transport.send,
                                       tiny_sequence)
        assert violations == [] and errors == []
        stats = engine.stats()
        assert stats["frames"]["processed"] + stats["frames"]["dropped"] == 8
        assert stats["sessions"]["by_state"] == {"closed": 2}

    def test_planted_inversion_is_caught(self, tiny_sequence):
        engine = _InvertedOfferEngine(InProcessTransport())
        violations, errors = self._run(engine, engine.offer, tiny_sequence)
        assert violations
        assert len(errors) == 1 and isinstance(errors[0], LockOrderError)


# -- load generator ----------------------------------------------------------

class TestLoadgen:
    def test_schedule_deterministic_and_ordered(self):
        spec = LoadSpec(clients=5, frames_per_client=3, seed=7)
        plans_a, events_a = build_schedule(spec)
        plans_b, events_b = build_schedule(spec)
        assert plans_a == plans_b and events_a == events_b
        times = [e.time_s for e in events_a]
        assert times == sorted(times)
        assert times[0] == 0.0  # first client arrives immediately
        # 5 opens + 15 frames + 5 closes.
        assert len(events_a) == 25

    def test_schedule_heavy_tail_varies_fps(self):
        _plans, events = build_schedule(LoadSpec(clients=16, seed=1))
        fps = {e.client.fps for e in events}
        assert len(fps) == 16  # lognormal draw: all distinct

    @pytest.mark.parametrize("kwargs", [
        {"clients": 0},
        {"frames_per_client": 0},
        {"arrival_shape": 1.0},
        {"fps_median": 0.0},
        {"speed": 0.0},
    ])
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(ServeError):
            LoadSpec(**kwargs)

    @pytest.mark.parametrize("algorithm,configuration,capacity,speed", [
        pytest.param("static", None, 8, 200.0, id="static"),
        # Overload: the whole timeline is due within the first service
        # round, so the two-deep queues must drop, and count, the excess.
        pytest.param("kfusion", {"volume_resolution": 32,
                                 "volume_size": 4.8}, 2, 1e4,
                     id="kfusion-overload"),
    ])
    def test_run_load_sync_accounts_every_frame(self, tiny_sequence,
                                                algorithm, configuration,
                                                capacity, speed):
        engine = ServeEngine(InProcessTransport(),
                             policy=ServePolicy(queue_capacity=capacity))
        spec = LoadSpec(clients=4, frames_per_client=5, speed=speed,
                        seed=3)
        report = run_load(engine, tiny_sequence, spec, algorithm=algorithm,
                          configuration=configuration)
        assert report.offered_frames == 20
        frames = report.engine_stats["frames"]
        assert frames["processed"] + frames["dropped"] == 20
        if algorithm == "kfusion":
            assert frames["dropped"] > 0
        sessions = report.engine_stats["sessions"]
        assert sessions["crashed"] == 0
        assert sessions["by_state"] == {"closed": 4}
        assert report.as_dict()["spec"]["clients"] == 4

    def test_run_load_threaded_requires_running_engine(self, tiny_sequence):
        engine = ServeEngine(InProcessTransport())
        with pytest.raises(ServeError):
            run_load(engine, tiny_sequence, LoadSpec(clients=1),
                     threaded=True)
