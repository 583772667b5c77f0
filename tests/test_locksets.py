"""The serve layer's locks, checked where they run.

The threaded :class:`~repro.serve.ServeEngine` (``start()`` spawns the
scheduler thread) runs against caller threads that drive every public
method and property of ``ServeEngine``, ``InProcessTransport`` and
``Tracer``.  Everything they share is recorded:

* the three locks (``ServeEngine._lock``, ``InProcessTransport._cond``,
  ``Tracer._lock``) are swapped for proxies that keep a per-thread held
  set;
* the engine, its sessions (``Session`` is patched in
  ``repro.serve.engine``), the transport, the tracer and every
  ``RateWindow`` are recording subclasses that log each attribute write
  and each field read, with the read of a field holding a mutable
  container counted as a write (``self._sessions[k] = s`` mutates
  through a read).

The log feeds an Eraser-style lockset check (Savage et al., SOSP 1997):
accesses before a second thread touches a field are its exclusive
(initialisation) phase and do not count; after that, a field written by
one thread and accessed by another must have a non-empty common
lockset.

The same drive checks the waits and blocking calls as they happen:
``InProcessTransport._cond.wait()`` needs a timeout and must not run
while its thread holds another lock; ``time.sleep``,
``threading.Thread.join``, ``builtins.open`` and ``subprocess.Popen``
fail when the calling thread holds a recorded lock.  Module-level names
of ``repro.serve.*`` and ``repro.telemetry.*`` must not be rebound.

``DRIVERS`` maps every public name to a call, and a test holds it equal
to the public surface ``inspect`` finds, so a new public method fails
until it is driven.  ``drain_transport`` and ``run_until_idle`` are
sync-mode only: they run from one thread before the scheduler thread
starts.  Test-local subclasses plant the defects each check exists
for; every plant must turn the check red, naming the field or call.
"""

from __future__ import annotations

import builtins
import collections
import functools
import inspect
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field, replace

import pytest

import repro.serve.engine as engine_mod
import repro.telemetry.rate as rate_mod
from repro.errors import ServeError
from repro.serve import (
    InProcessTransport,
    ServeEngine,
    ServePolicy,
    Session,
    SessionClose,
    SessionFrame,
    SessionOpen,
)
from repro.telemetry import RateWindow, Tracer

#: Reading a field that holds one of these counts as a write: the read
#: is how ``.append``/``[k] = v`` reach the container.
CONTAINERS = (list, dict, set, collections.deque)

#: Caller threads in the threaded drive, and frames each one streams.
CALLERS = 3
FRAMES = 8

#: Seconds a caller waits for the scheduler to open its session, and
#: a thread of the drive may take before it counts as hung.
OPEN_TIMEOUT_S = 10.0
JOIN_TIMEOUT_S = 60.0


class LocksetError(AssertionError):
    """A wait or blocking call broke the lock discipline (raised in the
    offending thread before it can block)."""


@dataclass(frozen=True)
class Access:
    thread: threading.Thread
    write: bool
    held: frozenset
    where: str  #: the function that made the access


class Recorder:
    """Per-thread held sets over the recorded locks, and the access log."""

    def __init__(self):
        self._local = threading.local()
        self._log_lock = threading.Lock()  # the recorder's own, unrecorded
        self._log: dict[tuple[int, str], list[Access]] = {}
        self._names: dict[tuple[int, str], str] = {}
        self._alive: list = []  # keeps recorded objects (and ids) alive
        self._slots: dict[type, frozenset] = {}
        self.violations: list[str] = []
        self.active = True

    # -- locks --------------------------------------------------------------
    def held(self) -> list[str]:
        held = getattr(self._local, "held", None)
        if held is None:
            held = self._local.held = []
        return held

    def fail(self, message: str):
        self.violations.append(
            f"{message} [{threading.current_thread().name}]")
        raise LocksetError(message)

    def not_holding(self, what: str) -> None:
        held = self.held()
        if held:
            self.fail(f"{what}() called while holding {', '.join(held)}")

    def guard(self, what: str, fn):
        @functools.wraps(fn)
        def guarded(*args, **kwargs):
            self.not_holding(what)
            return fn(*args, **kwargs)
        return guarded

    # -- accesses -----------------------------------------------------------
    def is_field(self, obj, name: str) -> bool:
        cls = type(obj)
        slots = self._slots.get(cls)
        if slots is None:
            slots = self._slots[cls] = frozenset(
                s for c in cls.__mro__ for s in getattr(c, "__slots__", ()))
        return name in slots or name in object.__getattribute__(obj,
                                                                "__dict__")

    def access(self, obj, label: str, name: str, write: bool) -> None:
        if not self.active:
            return
        code = sys._getframe(2).f_code  # the accessing function
        entry = Access(threading.current_thread(), write,
                       frozenset(self.held()),
                       getattr(code, "co_qualname", code.co_name))
        key = (id(obj), name)
        with self._log_lock:
            if key not in self._names:
                self._names[key] = f"{label}.{name}"
                self._alive.append(obj)
            self._log.setdefault(key, []).append(entry)

    def shared(self):
        """``(field, accesses)`` after each field's exclusive phase, for
        the fields a second thread touched."""
        with self._log_lock:
            log = {k: list(v) for k, v in self._log.items()}
        for key, accesses in log.items():
            owner = accesses[0].thread
            start = next((i for i, a in enumerate(accesses)
                          if a.thread is not owner), None)
            if start is not None:
                yield self._names[key], accesses[start:]

    def races(self) -> list[str]:
        """One line per raced field; ``(+N)`` counts further objects
        whose same field raced too."""
        out: dict[str, list[str]] = {}
        for name, accesses in self.shared():
            threads = {a.thread for a in accesses}
            writers = {a.thread for a in accesses if a.write}
            if not writers or len(threads) < 2:
                continue
            if frozenset.intersection(*(a.held for a in accesses)):
                continue
            worst = min(accesses, key=lambda a: len(a.held))
            out.setdefault(name, []).append(
                f"race on {name}: written by {_names(writers)}, accessed "
                f"by {_names(threads)} with no common lock "
                f"({worst.thread.name} {'writes' if worst.write else 'reads'}"
                f" it in {worst.where} holding "
                f"{', '.join(sorted(worst.held)) or 'no lock'})")
        return [lines[0] + (f" (+{len(lines) - 1})" if len(lines) > 1 else "")
                for _, lines in sorted(out.items())]

    # -- recording types ----------------------------------------------------
    def recording(self, base: type, label: str, locks: tuple = ()) -> type:
        """A subclass of ``base`` that logs its accesses under ``label``
        and swaps the lock attributes ``locks`` for recording proxies."""
        rec = self

        def __init__(self, *args, **kwargs):
            base.__init__(self, *args, **kwargs)
            for attr in locks:
                setattr(self, attr, RecordingLock(getattr(self, attr),
                                                  f"{label}.{attr}", rec))

        return type(f"Recording{base.__name__}", (_Recorded, base),
                    {"__init__": __init__, "_recorder": rec, "_label": label})


def _names(threads) -> str:
    return ", ".join(sorted(t.name for t in threads))


class _Recorded:
    """Mixin of :meth:`Recorder.recording`: logs writes and field reads."""

    __slots__ = ()

    def __setattr__(self, name, value):
        cls = type(self)
        cls._recorder.access(self, cls._label, name, True)
        super().__setattr__(name, value)

    def __getattribute__(self, name):
        value = object.__getattribute__(self, name)
        if not name.startswith("__"):
            cls = type(self)
            if cls._recorder.is_field(self, name):
                cls._recorder.access(self, cls._label, name,
                                     isinstance(value, CONTAINERS))
        return value


class RecordingLock:
    """Lock or Condition proxy that keeps the recorder's held sets and
    checks ``wait()``; everything else goes to the real object."""

    def __init__(self, inner, name: str, rec: Recorder):
        self._inner, self.name, self._rec = inner, name, rec

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._rec.held().append(self.name)
        return got

    def release(self) -> None:
        self._rec.held().remove(self.name)
        self._inner.release()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc):
        self.release()

    def wait(self, timeout: float | None = None) -> bool:
        if timeout is None:
            self._rec.fail(f"{self.name}.wait() without a timeout")
        others = sorted(set(self._rec.held()) - {self.name})
        if others:
            self._rec.fail(f"{self.name}.wait() while holding "
                           f"{', '.join(others)}")
        return self._inner.wait(timeout)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


# -- the driver table ----------------------------------------------------------
SYNC = "sync"            #: one thread, no scheduler thread running
ANY = "any"              #: every caller thread, against the scheduler
LIFECYCLE = "lifecycle"  #: the driving thread, at the drive's phase edges


def _frame(sequence, i: int):
    base = sequence.frame(i % len(sequence)).without_ground_truth()
    return replace(base, index=i)


@dataclass
class Caller:
    """One client: its session and the handles the drivers call."""

    engine: ServeEngine
    tracer: Tracer
    client_id: str
    sequence: object
    sent: int = 0
    driven: set = field(default_factory=set)

    @property
    def transport(self) -> InProcessTransport:
        return self.engine.transport

    def open(self) -> None:
        self.transport.send(SessionOpen(self.client_id, self.sequence.sensors,
                                        algorithm="static"))

    def send_frame(self) -> None:
        self.transport.send(SessionFrame(self.client_id,
                                         _frame(self.sequence, self.sent)))
        self.sent += 1

    def close(self) -> None:
        self.transport.send(SessionClose(self.client_id))

    def own_session(self) -> None:
        try:
            self.engine.session(self.client_id)
        except ServeError:
            pass  # not opened yet

    def span(self) -> None:
        with self.tracer.span("caller.span"):
            pass

    def call(self, name: str, drivers: dict) -> None:
        self.driven.add(name)
        drivers[name][1](self)


DRIVERS = {
    "ServeEngine.drain_transport": (SYNC, lambda c: c.engine.drain_transport()),
    "ServeEngine.run_until_idle": (SYNC, lambda c: c.engine.run_until_idle()),
    "ServeEngine.start": (LIFECYCLE, lambda c: c.engine.start()),
    "ServeEngine.stop": (LIFECYCLE, lambda c: c.engine.stop()),
    "ServeEngine.close": (LIFECYCLE, lambda c: c.engine.close()),
    "ServeEngine.step": (ANY, lambda c: c.engine.step()),
    "ServeEngine.stats": (ANY, lambda c: c.engine.stats()),
    "ServeEngine.sessions": (ANY, lambda c: c.engine.sessions),
    "ServeEngine.session": (ANY, Caller.own_session),
    "ServeEngine.pending_frames": (ANY, lambda c: c.engine.pending_frames()),
    "ServeEngine.running": (ANY, lambda c: c.engine.running),
    "InProcessTransport.send": (ANY, Caller.send_frame),
    # poll(0) returns nothing, so callers never steal the engine's messages
    "InProcessTransport.poll": (ANY, lambda c: c.transport.poll(0)),
    "InProcessTransport.wait": (ANY, lambda c: c.transport.wait(0.0005)),
    "InProcessTransport.pending": (ANY, lambda c: c.transport.pending),
    "InProcessTransport.closed": (ANY, lambda c: c.transport.closed),
    "InProcessTransport.close": (LIFECYCLE, lambda c: c.transport.close()),
    "Tracer.span": (ANY, Caller.span),
    "Tracer.count": (ANY, lambda c: c.tracer.count("caller.count")),
    "Tracer.gauge": (ANY, lambda c: c.tracer.gauge("caller.gauge", 1.0)),
    "Tracer.mark": (ANY, lambda c: c.tracer.mark("caller.mark")),
    "Tracer.rate": (ANY, lambda c: c.tracer.rate("serve.frames_processed")),
    "Tracer.absorb": (ANY, lambda c: c.tracer.absorb(
        counters={"caller.absorbed": 1.0})),
    "Tracer.spans_named": (ANY, lambda c: c.tracer.spans_named("serve.frame")),
    "Tracer.clear": (ANY, lambda c: c.tracer.clear()),
    "Tracer.__len__": (ANY, lambda c: len(c.tracer)),
}


def public_surface(engine_cls=ServeEngine, transport_cls=InProcessTransport,
                   tracer_cls=Tracer) -> set[str]:
    """``Class.name`` for each public method and property, plus
    ``__len__`` where there is one."""
    return {f"{label}.{name}"
            for cls, label in ((engine_cls, "ServeEngine"),
                               (transport_cls, "InProcessTransport"),
                               (tracer_cls, "Tracer"))
            for name, _ in inspect.getmembers(cls)
            if name == "__len__" or not name.startswith("_")}


def undriven(drivers: dict, **classes) -> list[str]:
    return [f"public name {name} has no driver"
            for name in sorted(public_surface(**classes) - set(drivers))]


# -- module globals --------------------------------------------------------------
def _module_globals() -> dict[str, dict]:
    return {name: dict(vars(mod)) for name, mod in list(sys.modules.items())
            if mod is not None
            and name.startswith(("repro.serve", "repro.telemetry"))}


def _rebound(before: dict, after: dict) -> list[str]:
    out = []
    for mod, old in before.items():
        new = after.get(mod, {})
        for name in sorted(old.keys() | new.keys()):
            if name in old and name in new and old[name] is new[name]:
                continue
            if inspect.ismodule(new.get(name)) and name not in old:
                continue  # a submodule imported during the drive
            out.append(f"module global {mod}.{name} rebound during the drive")
    return out


# -- the drive -------------------------------------------------------------------
@dataclass
class Drive:
    problems: list[str]
    shared: set[str]
    stats: dict


def drive(sequence, monkeypatch, engine_cls=ServeEngine,
          transport_cls=InProcessTransport, tracer_cls=Tracer,
          drivers=DRIVERS) -> Drive:
    """Sync phase, then the threaded engine against ``CALLERS`` caller
    threads; returns every problem the checks found."""
    problems = undriven(drivers, engine_cls=engine_cls,
                        transport_cls=transport_cls, tracer_cls=tracer_cls)
    rec = Recorder()
    for owner, attr, what in ((time, "sleep", "time.sleep"),
                              (threading.Thread, "join",
                               "threading.Thread.join"),
                              (builtins, "open", "builtins.open")):
        monkeypatch.setattr(owner, attr, rec.guard(what, getattr(owner, attr)))

    class GuardedPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            rec.not_holding("subprocess.Popen")
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", GuardedPopen)
    monkeypatch.setattr(engine_mod, "Session",
                        rec.recording(Session, "Session"))
    recording_window = rec.recording(RateWindow, "RateWindow")
    monkeypatch.setattr(engine_mod, "RateWindow", recording_window)
    monkeypatch.setattr(rate_mod, "RateWindow", recording_window)
    errors: list[str] = []
    monkeypatch.setattr(threading, "excepthook", lambda args: errors.append(
        f"{args.thread.name}: {args.exc_type.__name__}: {args.exc_value}"))

    tracer = rec.recording(tracer_cls, "Tracer", ("_lock",))()
    transport = rec.recording(transport_cls, "InProcessTransport",
                              ("_cond",))()
    engine = rec.recording(engine_cls, "ServeEngine", ("_lock",))(
        transport, policy=ServePolicy(queue_capacity=4, frames_per_round=2),
        tracer=tracer)
    main = Caller(engine, tracer, "sync", sequence)

    def call_main(name: str) -> None:
        try:
            main.call(name, drivers)
        except Exception as exc:
            errors.append(f"{name}: {type(exc).__name__}: {exc}")

    def by_mode(mode: str) -> list[str]:
        return [name for name, (m, _) in drivers.items() if m == mode]

    # sync mode: one thread, no scheduler thread
    main.open()
    for _ in range(3):
        main.send_frame()
    main.close()
    for name in by_mode(SYNC):
        call_main(name)

    # threaded mode
    before = _module_globals()
    callers = [Caller(engine, tracer, f"c{i}", sequence)
               for i in range(CALLERS)]

    def run(caller: Caller) -> None:
        try:
            caller.open()
            deadline = time.monotonic() + OPEN_TIMEOUT_S
            while (caller.client_id not in engine.sessions
                   and engine.running and time.monotonic() < deadline):
                time.sleep(0.001)
            for _ in range(FRAMES):
                for name in by_mode(ANY):
                    caller.call(name, drivers)
            caller.close()
        except Exception as exc:
            errors.append(f"{threading.current_thread().name}: "
                          f"{type(exc).__name__}: {exc}")

    existing = set(threading.enumerate())
    call_main("ServeEngine.start")
    threads = [t for t in threading.enumerate() if t not in existing]
    threads += [threading.Thread(target=run, args=(c,), name=f"caller-{i}")
                for i, c in enumerate(callers)]
    for t in threads[-CALLERS:]:
        t.start()
    for t in threads[-CALLERS:]:
        t.join(JOIN_TIMEOUT_S)
    call_main("ServeEngine.stop")
    problems += _rebound(before, _module_globals())
    call_main("ServeEngine.close")
    call_main("InProcessTransport.close")
    rec.active = False
    for t in threads:
        t.join(JOIN_TIMEOUT_S)
    problems += [f"{t.name} still running after {JOIN_TIMEOUT_S:.0f} s"
                 for t in threads if t.is_alive()]

    driven = set().union(main.driven, *(c.driven for c in callers))
    problems += [f"driver {name} never ran" for name in sorted(
        set(drivers) - driven)]
    problems += rec.races() + rec.violations
    problems += [f"raised: {e}" for e in errors]
    try:
        stats = engine.stats()
    except Exception as exc:
        problems.append(f"final stats(): {type(exc).__name__}: {exc}")
        stats = {}
    sent = main.sent + sum(c.sent for c in callers)
    frames = stats.get("frames", {})
    if frames.get("received") != sent or \
            frames.get("processed", 0) + frames.get("dropped", 0) != sent:
        problems.append(f"accounting: sent {sent}, engine {frames}")
    return Drive(problems, {name for name, _ in rec.shared()}, stats)


# -- the live tree -----------------------------------------------------------------
class TestDriverTable:
    def test_every_public_name_is_driven(self):
        assert set(DRIVERS) == public_surface()

    def test_new_public_method_fails_until_driven(self):
        assert undriven(DRIVERS, engine_cls=_NoteProtocolErrorEngine) == [
            "public name ServeEngine.note_protocol_error has no driver"]


class TestLiveTree:
    def test_threaded_engine_is_lockset_clean(self, tiny_sequence,
                                              monkeypatch):
        result = drive(tiny_sequence, monkeypatch)
        assert result.problems == []
        # the drive really shared the state the locks guard
        assert {"ServeEngine._sessions", "ServeEngine._thread",
                "Session.frames_received", "InProcessTransport._messages",
                "Tracer.spans", "RateWindow._marks"} <= result.shared
        assert result.stats["sessions"]["by_state"] == {"closed": CALLERS + 1}


# -- plants ----------------------------------------------------------------------
class _UnlockedStatsEngine(ServeEngine):
    """stats() reads the session table and counters without _lock."""

    def stats(self) -> dict:
        return {"rounds": self._rounds,
                "per_session": {cid: s.stats()
                                for cid, s in self._sessions.items()}}


class _NoteProtocolErrorEngine(ServeEngine):
    """C1: a public method bumps a guarded counter without _lock."""

    def note_protocol_error(self, what: str) -> None:
        self._protocol_errors += 1


class _StepFieldEngine(ServeEngine):
    """C3: step() writes a new field before taking _lock; stats() reads
    it."""

    def step(self) -> int:
        self._last_step_s = self._clock()
        return super().step()

    def stats(self) -> dict:
        out = super().stats()
        out["last_step_s"] = self._last_step_s
        return out


class _UnlockedSessionsEngine(ServeEngine):
    @property
    def sessions(self) -> dict:
        return dict(self._sessions)


class _UnlockedSessionEngine(ServeEngine):
    def session(self, client_id: str):
        try:
            return self._sessions[client_id]
        except KeyError:
            raise ServeError(f"unknown session {client_id!r}") from None


class _UnlockedRunningEngine(ServeEngine):
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()


class _UnlockedLenTracer(Tracer):
    def __len__(self) -> int:
        return len(self.spans)


class _UnlockedSpansNamedTracer(Tracer):
    def spans_named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]


class _SleepUnderLockEngine(ServeEngine):
    def stats(self) -> dict:
        with self._lock:
            time.sleep(0.0001)
        return super().stats()


class _JoinUnderLockEngine(ServeEngine):
    def stop(self, drain: bool = True) -> None:
        with self._lock:
            self._stop.set()
            if self._thread is not None:
                self._thread.join()
            self._thread = None


class _WaitUnderEngineLock(ServeEngine):
    def step(self) -> int:
        with self._lock:
            self.transport.wait(0.0001)
        return super().step()


class _UntimedWaitTransport(InProcessTransport):
    def wait(self, timeout_s: float) -> bool:
        with self._cond:
            if not self._messages:
                self._cond.wait()
            return bool(self._messages)


class _GlobalRebindEngine(ServeEngine):
    """A module-level cache written on every round."""

    def step(self) -> int:
        engine_mod.LAST_STEP_S = self._clock()
        return super().step()


_NOTE_DRIVERS = {**DRIVERS, "ServeEngine.note_protocol_error": (
    ANY, lambda c: c.engine.note_protocol_error("planted"))}

PLANTS = [
    pytest.param({"engine_cls": _UnlockedStatsEngine},
                 "race on ServeEngine._sessions", id="stats-without-lock"),
    pytest.param({"engine_cls": _NoteProtocolErrorEngine,
                  "drivers": _NOTE_DRIVERS},
                 "race on ServeEngine._protocol_errors", id="C1"),
    pytest.param({"engine_cls": _StepFieldEngine},
                 "race on ServeEngine._last_step_s", id="C3"),
    pytest.param({"engine_cls": _UnlockedSessionsEngine},
                 "race on ServeEngine._sessions", id="sessions-side-door"),
    pytest.param({"engine_cls": _UnlockedSessionEngine},
                 "race on ServeEngine._sessions", id="session-side-door"),
    pytest.param({"engine_cls": _UnlockedRunningEngine},
                 "race on ServeEngine._thread", id="running-side-door"),
    pytest.param({"tracer_cls": _UnlockedLenTracer},
                 "race on Tracer.spans", id="tracer-len-side-door"),
    pytest.param({"tracer_cls": _UnlockedSpansNamedTracer},
                 "race on Tracer.spans", id="spans-named-side-door"),
    pytest.param({"engine_cls": _SleepUnderLockEngine},
                 "time.sleep() called while holding ServeEngine._lock",
                 id="sleep-under-lock"),
    pytest.param({"engine_cls": _JoinUnderLockEngine},
                 "threading.Thread.join() called while holding "
                 "ServeEngine._lock", id="join-under-lock"),
    pytest.param({"engine_cls": _WaitUnderEngineLock},
                 "InProcessTransport._cond.wait() while holding "
                 "ServeEngine._lock", id="wait-holding-engine-lock"),
    pytest.param({"transport_cls": _UntimedWaitTransport},
                 "InProcessTransport._cond.wait() without a timeout",
                 id="untimed-wait"),
    pytest.param({"engine_cls": _GlobalRebindEngine},
                 "module global repro.serve.engine.LAST_STEP_S rebound",
                 id="global-rebind"),
]


class TestPlants:
    @pytest.mark.parametrize("classes,expected", PLANTS)
    def test_plant_turns_red(self, tiny_sequence, monkeypatch, classes,
                             expected):
        # deleted again at teardown (the global-rebind plant binds it)
        monkeypatch.setattr(engine_mod, "LAST_STEP_S", None, raising=False)
        problems = drive(tiny_sequence, monkeypatch, **classes).problems
        assert any(expected in p for p in problems), problems
