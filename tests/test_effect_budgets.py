"""The layers' effect budgets, checked where they run.

``ARCHITECTURE.toml`` gives layers a ``forbid`` list of effects
(``repro.analysis.policy.EFFECTS``): the per-frame kernels, for one,
may not touch a file, spawn a process, draw from a global random
stream or write module state, so that a measured runtime and ATE
belong to the configuration.  This test drives the frame paths the
benchmark runs, twice:

* ``run_benchmark`` of ``KinectFusion`` on the ``reference``, ``fast``
  and ``sparse`` backends at 80x60 / 64^3, with an enabled ``Tracer``
  and a ``("raycast", "model")`` tap;
* ``run_benchmark`` of ``ICPOdometry`` and ``SparseOdometry``;
* a ``ServeEngine`` with two ``kfusion`` sessions, served synchronously
  and by its scheduler thread (as ``serve-open`` runs it);
* one in-process ``MeasuredEvaluator.evaluate`` on the ODROID-XU3
  model, the black box ``dse-hm`` runs in its pool workers.

Code no part reaches is not checked.

What the drive does is recorded as it happens:

* **io, process:** one ``sys.addaudithook``, installed once per test run
  and a no-op while no drive runs, sees ``open``, the ``os.*`` and
  ``shutil.*`` file events, ``subprocess.Popen``, ``os.system``,
  ``os.fork``, ``os.exec`` and ``os.posix_spawn``.  ``sys.stdout`` and
  ``sys.stderr`` are swapped for streams that record each write, so a
  ``print`` is an ``io`` event too.  Reads made by the import system
  are not events.
* **rng:** the states of the global streams (``np.random.get_state()``,
  ``random.getstate()``) must not change across the drive.  The
  module-level draw functions of both are patched to record their
  callers, which names the chain.
* **global-write:** on the second pass, no module global of a layer
  that forbids ``global-write`` may be rebound or change in content,
  so a first-call memo (``_SPATIAL_TABLES``) passes and a cache that
  grows does not.  A list, dict or set that changed is swapped for a
  recording copy and its part re-run, to name the writer.

Each event is attributed to every ``repro.*`` frame on its call stack
whose layer forbids the effect; a finding names the effect, the layer
and the chain of ``repro`` frames, innermost first.  ``repro.jobs``
owns processes: attribution of ``process`` stops at its frames.  A
``[[waiver]]`` with ``rule = "effect-budget"`` covers its ``to``
effect inside the function ``from`` and that function's callees, never
its callers.  The clock is no effect here: a clock read outside
``repro.telemetry`` is an RPR001 finding in every layer.  So is
``multiprocessing`` outside ``repro.jobs`` (RPR006) and a legacy or
unseeded numpy generator (RPR002).

Test-local plants must each turn the check red, naming the layer and
the chain.  A plant is a registered wrapper backend, or a stage or
method monkeypatched with code compiled into the module it stands in
for, so its frames carry that module's name as an edit of the file
would.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import pickle
import random
import sys
import textwrap
import threading
import types
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import repro.graph.stage as stage_mod
import repro.kfusion.graphdef as kfusion_graphdef
import repro.perf.registry as backend_registry
import repro.perf.sparse_integrate as sparse_integrate
import repro.perf.tracking as fast_tracking
import repro.serve.engine as engine_mod
from repro.analysis.policy import Layer, Waiver, load_policy
from repro.baselines import ICPOdometry, SparseOdometry
from repro.core import run_benchmark
from repro.datasets import icl_nuim
from repro.hypermapper import MeasuredEvaluator
from repro.kfusion import KinectFusion
from repro.platforms import PlatformConfig, odroid_xu3
from repro.serve import (
    InProcessTransport,
    ServeEngine,
    ServePolicy,
    SessionClose,
    SessionFrame,
    SessionOpen,
)
from repro.telemetry import Tracer
from repro.telemetry.manifest import git_revision

REPO_ROOT = Path(__file__).resolve().parents[1]
POLICY = load_policy(REPO_ROOT / "ARCHITECTURE.toml")

#: The ``[[waiver]]`` rule this test reads.
WAIVER_RULE = "effect-budget"
WAIVERS = tuple(w for w in POLICY.waivers if w.rule == WAIVER_RULE)

#: Effect -> the package that owns it: attribution stops at its frames.
OWNERS = {"process": "repro.jobs"}

#: Audit events that start or signal a process; every other ``open``,
#: ``os.*`` and ``shutil.*`` event is ``io``.
PROCESS_EVENTS = frozenset({
    "subprocess.Popen", "os.system", "os.fork", "os.forkpty", "os.exec",
    "os.posix_spawn", "os.spawn", "os.kill", "os.killpg", "os.startfile",
})

#: Modules of the import system, whose file reads are not events.
IMPORT_SYSTEM = frozenset({
    "_frozen_importlib", "_frozen_importlib_external", "importlib",
    "zipimport",
})

#: State readers of the global streams, left unpatched.
STATE_READERS = frozenset({"getstate", "get_state"})

#: In-place mutators of the containers a recording copy stands in for.
MUTATORS = {
    list: ("append", "extend", "insert", "pop", "remove", "clear", "sort",
           "reverse", "__setitem__", "__delitem__", "__iadd__"),
    dict: ("__setitem__", "__delitem__", "pop", "popitem", "clear",
           "update", "setdefault"),
    set: ("add", "discard", "remove", "pop", "clear", "update"),
}

FRAMES = 6
CONFIG = {"volume_resolution": 64}


def effect_of(event: str) -> str | None:
    if event in PROCESS_EVENTS:
        return "process"
    if event == "open" or event.startswith(("os.", "shutil.")):
        return "io"
    return None


def _inside(name: str, prefix: str) -> bool:
    return name == prefix or name.startswith(prefix + ".")


# -- attribution -----------------------------------------------------------------
Chain = tuple  #: ``((qualified name, Layer | None), ...)``, innermost first


def derived_qualname(frame) -> str:
    """The qualified name of ``frame``'s function where the code object
    does not carry one (``co_qualname`` is 3.11+): a method is named by
    the class, on its first argument's MRO, that defines this code."""
    code = frame.f_code
    if code.co_argcount:
        first = frame.f_locals.get(code.co_varnames[0])
        for klass in (first if isinstance(first, type)
                      else type(first)).__mro__:
            fn = klass.__dict__.get(code.co_name)
            fn = getattr(fn, "__func__", fn)  # classmethod, staticmethod
            if getattr(fn, "__code__", None) is code:
                return f"{klass.__qualname__}.{code.co_name}"
    return code.co_name


def qualname(frame) -> str:
    code = frame.f_code
    return getattr(code, "co_qualname", None) or derived_qualname(frame)


def repro_chain(frame) -> Chain | None:
    """The ``repro`` frames from ``frame`` outwards; ``None`` inside the
    import system."""
    out = []
    while frame is not None:
        module = frame.f_globals.get("__name__", "")
        if module in IMPORT_SYSTEM or module.startswith("importlib."):
            return None
        if _inside(module, "repro"):
            out.append((f"{module}.{qualname(frame)}",
                        POLICY.layer_of(module)))
        frame = frame.f_back
    return tuple(out)


def attribute(effect: str, chain: Chain,
              waivers=WAIVERS) -> tuple[list[str], list[Waiver]]:
    """The layers that ``effect`` breaks along ``chain``, and the waivers
    that covered part of it."""
    start, used = 0, []
    for i, (qname, _) in enumerate(chain):
        for waiver in waivers:
            if waiver.target == effect and _inside(qname, waiver.source):
                start = i + 1
                used.append(waiver)
    end = len(chain)
    owner = OWNERS.get(effect)
    if owner is not None:
        end = next((i for i, (qname, _) in enumerate(chain)
                    if _inside(qname, owner)), end)
    layers = []
    for _, layer in chain[start:end]:
        if (layer is not None and effect in layer.forbid
                and layer.name not in layers):
            layers.append(layer.name)
    return layers, used


def chain_text(chain: Chain) -> str:
    return " <- ".join(
        f"{qname.removeprefix('repro.')}[{layer.name if layer else '?'}]"
        for qname, layer in chain)


# -- recording -------------------------------------------------------------------
class Recorder:
    """The findings of one drive; events count only while it is active."""

    def __init__(self):
        self.findings: collections.Counter = collections.Counter()
        self.waived: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._local = threading.local()  # the serve part runs a thread

    def event(self, effect: str, what: str, frame) -> None:
        if _RECORDER is not self or getattr(self._local, "busy", False):
            return
        self._local.busy = True  # what the recorder itself does is no event
        try:
            chain = repro_chain(frame)
            if not chain:
                return
            layers, used = attribute(effect, chain)
            with self._lock:
                self.waived.update(used)
                for layer in layers:
                    self.findings[f"{effect} forbidden in layer {layer!r} "
                                  f"({what}) via {chain_text(chain)}"] += 1
        finally:
            self._local.busy = False

    def draw(self, fn, label: str):
        """``fn``, a global-stream draw, recording its callers."""
        rec = self

        def recorded(*args, **kwargs):
            rec.event("rng", label, sys._getframe(1))
            return fn(*args, **kwargs)
        return recorded

    def container(self, value, label: str):
        """A copy of ``value`` whose in-place mutators record their
        callers as ``global-write`` events."""
        base = type(value)
        rec = self

        def wrap(method: str):
            def recorded(self, *args, **kwargs):
                rec.event("global-write", f"{label}.{method}",
                          sys._getframe(1))
                return getattr(base, method)(self, *args, **kwargs)
            return recorded

        cls = type(f"Recording{base.__name__}", (base,),
                   {m: wrap(m) for m in MUTATORS[base]})
        return cls(value)

    def report(self) -> list[str]:
        return [f"{text} (x{n})" if n > 1 else text
                for text, n in sorted(self.findings.items())]


class RecordingStream:
    """``sys.stdout`` / ``sys.stderr`` stand-in: each write is ``io``."""

    def __init__(self, inner, name: str, rec: Recorder):
        self._inner, self._name, self._rec = inner, name, rec

    def write(self, text):
        self._rec.event("io", f"{self._name}.write", sys._getframe(1))
        return self._inner.write(text)

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


_RECORDER: Recorder | None = None
_HOOKED = False


def _audit(event: str, args) -> None:
    rec = _RECORDER
    if rec is None:
        return
    effect = effect_of(event)
    if effect is not None:
        rec.event(effect, event, sys._getframe(1))


def _install_hook() -> None:
    """Audit hooks cannot be removed: install one per test run."""
    global _HOOKED
    if not _HOOKED:
        sys.addaudithook(_audit)
        _HOOKED = True


def _global_draws():
    """``(module, name)`` of each module-level function that draws from
    (or reseeds) a global stream."""
    for module, stream in ((random, random._inst),
                           (np.random, np.random.mtrand._rand)):
        for name in dir(module):
            if (name not in STATE_READERS and getattr(
                    getattr(module, name), "__self__", None) is stream):
                yield module, name


def _rng_states() -> bytes:
    return pickle.dumps((random.getstate(), np.random.get_state()))


# -- module globals --------------------------------------------------------------
def _fingerprint(value, depth: int = 0):
    """Identity plus content, a few levels deep; modules, classes and
    functions by identity only."""
    if isinstance(value, (str, bytes, int, float, complex, type(None))):
        return value
    if isinstance(value, np.ndarray):
        return ("ndarray", id(value), value.shape, value.dtype.str,
                hashlib.sha1(value.tobytes()).hexdigest())
    if depth >= 3 or callable(value) or isinstance(value, types.ModuleType):
        return ("ref", id(value))
    if isinstance(value, dict):
        return ("dict", id(value), tuple(
            (_fingerprint(k, depth + 1), _fingerprint(v, depth + 1))
            for k, v in value.items()))
    if isinstance(value, (list, tuple, collections.deque)):
        return ("seq", id(value),
                tuple(_fingerprint(v, depth + 1) for v in value))
    if isinstance(value, (set, frozenset)):
        return ("set", id(value),
                frozenset(_fingerprint(v, depth + 1) for v in value))
    fields = getattr(value, "__dict__", None)
    if isinstance(fields, dict):
        return ("obj", id(value), _fingerprint(fields, depth + 1))
    return ("ref", id(value))


def _watched() -> dict[str, tuple[types.ModuleType, Layer]]:
    out = {}
    for name, module in list(sys.modules.items()):
        layer = POLICY.layer_of(name) if _inside(name, "repro") else None
        if module is not None and layer is not None \
                and "global-write" in layer.forbid:
            out[name] = (module, layer)
    return out


def _module_state() -> dict:
    return {(name, key): (value, _fingerprint(value))
            for name, (module, _) in _watched().items()
            for key, value in list(vars(module).items())
            if not key.startswith("__")}


def _changed(before: dict, after: dict) -> list[tuple[str, str, str]]:
    """``(module, name, how)`` for each global rebound, bound or changed
    in content between two states of the modules ``before`` saw."""
    modules = {module for module, _ in before}
    out = []
    for key in sorted(before.keys() | after.keys()):
        if key[0] not in modules:
            continue
        if key not in before:
            if not isinstance(after[key][0], types.ModuleType):
                out.append((*key, "bound"))  # not a submodule import
        elif key not in after:
            out.append((*key, "deleted"))
        elif before[key][0] is not after[key][0]:
            out.append((*key, "rebound"))
        elif before[key][1] != after[key][1]:
            out.append((*key, "changed in content"))
    return out


# -- the drive -------------------------------------------------------------------
@dataclasses.dataclass(frozen=True)
class Part:
    name: str
    run: Callable


def kfusion_part(backend: str) -> Part:
    def run(sequence):
        run_benchmark(KinectFusion(kernel_backend=backend,
                                   taps=(("raycast", "model"),)),
                      sequence, configuration=dict(CONFIG), tracer=Tracer())
    return Part(f"kfusion[{backend}]", run)


def _run_odometry(system_cls):
    def run(sequence):
        run_benchmark(system_cls(), sequence, tracer=Tracer())
    return run


def serve_part(threaded: bool) -> Part:
    """Two ``kfusion`` sessions through a ``ServeEngine``: served by its
    scheduler thread (as ``serve-open`` runs it), or synchronously."""
    def run(sequence):
        engine = ServeEngine(InProcessTransport(),
                             policy=ServePolicy(queue_capacity=len(sequence)),
                             tracer=Tracer())
        if threaded:
            engine.start()
        for cid in ("a", "b"):
            engine.transport.send(SessionOpen(cid, sequence.sensors,
                                              algorithm="kfusion",
                                              configuration=dict(CONFIG)))
            for i in range(len(sequence)):
                engine.transport.send(SessionFrame(
                    cid, sequence.frame(i).without_ground_truth()))
            engine.transport.send(SessionClose(cid))
        if threaded:
            engine.stop(drain=True)
        else:
            engine.run_until_idle()
        engine.close()
        stats = engine.stats()
        if stats["frames"]["processed"] != 2 * len(sequence) or \
                stats["sessions"]["crashed"]:
            raise AssertionError(f"serve drive: {stats['sessions']}, "
                                 f"{stats['frames']}")
    return Part("serve[threaded]" if threaded else "serve", run)


def _run_evaluate(sequence) -> None:
    """One in-process evaluation of the ``dse-hm`` black box."""
    evaluation = MeasuredEvaluator(
        sequence, odroid_xu3(), PlatformConfig(backend="opencl"),
        cache=False).evaluate(dict(CONFIG))
    if evaluation.failed:
        raise AssertionError(f"evaluation failed: {evaluation}")


THREADED_SERVE = serve_part(threaded=True)
PARTS = (kfusion_part("reference"), kfusion_part("fast"),
         kfusion_part("sparse"),
         Part("icp_odometry", _run_odometry(ICPOdometry)),
         Part("sparse_odometry", _run_odometry(SparseOdometry)),
         serve_part(threaded=False), THREADED_SERVE,
         Part("measured_evaluator", _run_evaluate))


@dataclasses.dataclass
class Drive:
    problems: list[str]
    waived: collections.Counter


def _run_part(part: Part, sequence, problems: list[str]) -> None:
    try:
        part.run(sequence)
    except Exception as exc:
        problems.append(f"{part.name} raised {type(exc).__name__}: {exc}")


def drive(sequence, monkeypatch, parts=PARTS) -> Drive:
    """Two passes over ``parts`` under the recorder; returns every
    problem the checks found."""
    global _RECORDER
    _install_hook()
    rec = Recorder()
    for module, name in _global_draws():
        monkeypatch.setattr(module, name, rec.draw(
            getattr(module, name), f"{module.__name__}.{name}"))
    for name in ("stdout", "stderr"):
        monkeypatch.setattr(sys, name, RecordingStream(
            getattr(sys, name), f"sys.{name}", rec))
    git_revision.cache_clear()  # the manifest's waived git call runs here
    problems: list[str] = []
    states = _rng_states()
    _RECORDER = rec
    try:
        for part in parts:
            _run_part(part, sequence, problems)
        for part in parts:
            before = _module_state()
            _run_part(part, sequence, problems)
            changed = _changed(before, _module_state())
            for module, name, how in changed:
                layer = _watched()[module][1].name
                problems.append(
                    f"global-write forbidden in layer {layer!r}: module "
                    f"global {module}.{name} {how} during the second pass "
                    f"of {part.name}")
            swapped = [(module, name) for module, name, how in changed
                       if how == "changed in content"
                       and type(before[module, name][0]) in MUTATORS]
            for module, name in swapped:
                monkeypatch.setattr(sys.modules[module], name, rec.container(
                    before[module, name][0], f"{module}.{name}"))
            if swapped:
                _run_part(part, sequence, problems)
    finally:
        _RECORDER = None
    if _rng_states() != states:
        problems.append("the global random streams changed during the "
                        "drive")
    return Drive(problems + rec.report(), rec.waived)


@pytest.fixture(scope="module")
def sequence():
    seq = icl_nuim.load("lr_kt0", n_frames=FRAMES, width=80, height=60,
                        seed=0)
    seq.materialize()
    return seq


# -- the live tree -----------------------------------------------------------------
class TestLiveTree:
    def test_frame_paths_keep_their_budgets(self, sequence, monkeypatch):
        result = drive(sequence, monkeypatch)
        assert result.problems == []
        # every reviewed waiver is live (the manifest's git call ran)
        assert set(result.waived) == set(WAIVERS)


class TestAttribution:
    KERNELS = POLICY.layer_of("repro.perf")
    TELEMETRY = POLICY.layer_of("repro.telemetry")
    ENGINE = POLICY.layer_of("repro.core.harness")
    OPT = POLICY.layer_of("repro.jobs")

    def test_every_forbidding_layer_on_the_chain(self):
        chain = (("repro.perf.x.f", self.KERNELS),
                 ("repro.core.harness.run", self.ENGINE),
                 ("repro.telemetry.t.g", self.TELEMETRY))
        assert attribute("io", chain) == (["kernels"], [])
        assert attribute("process", chain) == (["kernels", "telemetry"], [])

    def test_waiver_covers_its_function_and_callees_only(self):
        waiver = Waiver(WAIVER_RULE, "reviewed", "repro.telemetry.m.capture",
                        "process")
        inner = (("repro.telemetry.m.git", self.TELEMETRY),
                 ("repro.telemetry.m.capture", self.TELEMETRY),
                 ("repro.core.harness.run", self.ENGINE))
        assert attribute("process", inner, (waiver,)) == ([], [waiver])
        called_from_kernel = inner + (("repro.perf.x.f", self.KERNELS),)
        assert attribute("process", called_from_kernel, (waiver,)) == (
            ["kernels"], [waiver])

    def test_derived_qualname_matches_co_qualname(self):
        class Owner:
            def method(self):
                return sys._getframe()

            @classmethod
            def build(cls):
                return sys._getframe()

        class Child(Owner):
            pass

        def function(value):
            return sys._getframe()

        method, build = Child().method(), Child.build()
        assert derived_qualname(method) == f"{Owner.__qualname__}.method"
        assert derived_qualname(build) == f"{Owner.__qualname__}.build"
        assert derived_qualname(function(Owner())) == "function"
        for frame in (method, build):  # agrees with 3.11's co_qualname
            assert derived_qualname(frame) == qualname(frame)

    def test_jobs_owns_process(self):
        chain = (("repro.jobs.pool.spawn", self.OPT),
                 ("repro.perf.x.f", self.KERNELS))
        assert attribute("process", chain) == ([], [])
        assert attribute("io", chain) == (["kernels"], [])


# -- plants ----------------------------------------------------------------------
def planted(module, source: str, **bound):
    """The one function ``source`` defines, compiled as code of
    ``module``: its frames carry the module's name and read its globals.
    ``bound`` names are visible while the definition runs (defaults)."""
    namespace = dict(bound)
    exec(compile(textwrap.dedent(source), f"<plant in {module.__name__}>",
                 "exec"), namespace)
    fn = next(v for k, v in namespace.items()
              if isinstance(v, types.FunctionType) and k not in bound)
    out = types.FunctionType(fn.__code__, vars(module), fn.__name__,
                             fn.__defaults__, fn.__closure__)
    out.__kwdefaults__ = fn.__kwdefaults__
    return out


def wrapper_backend(monkeypatch, name: str, **slots) -> Part:
    backend = dataclasses.replace(
        backend_registry.get_kernel_backend("sparse"), name=name, **slots)
    monkeypatch.setitem(backend_registry._BACKENDS, name, backend)
    return kfusion_part(name)


def wrapped_stage(monkeypatch, name: str, run) -> None:
    monkeypatch.setitem(stage_mod._STAGES, name, dataclasses.replace(
        stage_mod.get_stage(name), run=run))


def plant_p3(monkeypatch, tmp_path):
    """P3: a module-level list appended on every integrate."""
    monkeypatch.setattr(sparse_integrate, "LAST_VISIBLE", [], raising=False)
    part = wrapper_backend(monkeypatch, "sparse-p3", integrate=planted(
        sparse_integrate, """
        def integrate(*args, original=ORIGINAL):
            LAST_VISIBLE.append(len(LAST_VISIBLE))
            return original(*args)
        """, ORIGINAL=sparse_integrate.integrate))
    return [part], ["global-write forbidden in layer 'kernels' "
                    "(repro.perf.sparse_integrate.LAST_VISIBLE.append) via "
                    "perf.sparse_integrate.integrate[kernels] <- "
                    "kfusion.graphdef._run_integrate[kernels]"]


def plant_p4(monkeypatch, tmp_path):
    """P4: an ``np.save`` debug dump in the integrate slot."""
    part = wrapper_backend(monkeypatch, "sparse-p4", integrate=planted(
        sparse_integrate, """
        def integrate(volume, depth, *args, original=ORIGINAL, dump=DUMP):
            np.save(dump, depth)
            return original(volume, depth, *args)
        """, ORIGINAL=sparse_integrate.integrate,
        DUMP=str(tmp_path / "depth.npy")))
    return [part], ["io forbidden in layer 'kernels' (open) via "
                    "perf.sparse_integrate.integrate[kernels] <- "
                    "kfusion.graphdef._run_integrate[kernels]"]


def plant_save_obj(monkeypatch, tmp_path):
    """``extract_mesh(...).save_obj(...)`` in the integrate stage body,
    which RPR009 passed: ``save_obj``'s waiver hid it from every caller."""
    original = stage_mod.get_stage("kfusion.integrate").run
    wrapped_stage(monkeypatch, "kfusion.integrate", planted(
        kfusion_graphdef, """
        def _run_integrate(ctx, inputs, original=ORIGINAL, path=PATH):
            from .mesh import extract_mesh
            out = original(ctx, inputs)
            extract_mesh(ctx.state.volume).save_obj(path)
            return out
        """, ORIGINAL=original, PATH=str(tmp_path / "model.obj")))
    return [kfusion_part("sparse")], [
        "io forbidden in layer 'kernels' (open) via "
        "kfusion.mesh.TriangleMesh.save_obj[kernels] <- "
        "kfusion.graphdef._run_integrate[kernels] <- "
        "graph.instance.PipelineInstance.run_frame[graph]"]


def plant_random(monkeypatch, tmp_path):
    """``random.random()`` in the track kernel."""
    part = wrapper_backend(monkeypatch, "sparse-rng", track=planted(
        fast_tracking, """
        def track(*args, original=ORIGINAL, **kwargs):
            import random
            random.random()
            return original(*args, **kwargs)
        """, ORIGINAL=backend_registry.get_kernel_backend("sparse").track))
    return [part], ["rng forbidden in layer 'kernels' (random.random) via "
                    "perf.tracking.track[kernels] <- "
                    "kfusion.graphdef._run_track[kernels]",
                    "the global random streams changed during the drive"]


def plant_os_system(monkeypatch, tmp_path):
    """``os.system("true")`` in the preprocess stage body."""
    original = stage_mod.get_stage("kfusion.preprocess").run
    wrapped_stage(monkeypatch, "kfusion.preprocess", planted(
        kfusion_graphdef, """
        def _run_preprocess(ctx, inputs, original=ORIGINAL):
            import os
            os.system("true")
            return original(ctx, inputs)
        """, ORIGINAL=original))
    return [kfusion_part("sparse")], [
        "process forbidden in layer 'kernels' (os.system) via "
        "kfusion.graphdef._run_preprocess[kernels] <- "
        "graph.instance.PipelineInstance.run_frame[graph]",
        "process forbidden in layer 'graph' (os.system)"]


def plant_print(monkeypatch, tmp_path):
    """``print`` in the serve frame path, run by the scheduler thread."""
    monkeypatch.setattr(ServeEngine, "_process_one", planted(engine_mod, """
        def _process_one(self, session, original=ORIGINAL):
            print(f"serving {session.client_id}")
            return original(self, session)
        """, ORIGINAL=ServeEngine._process_one))
    # before 3.11 the planted method is named by its class, after by its
    # own (module-level) definition
    return [THREADED_SERVE], [
        "io forbidden in layer 'serve' (sys.stdout.write) via serve.engine.",
        "_process_one[serve] <- serve.engine.ServeEngine.step[serve] <- "
        "serve.engine.ServeEngine._serve_loop[serve]"]


PLANTS = [
    pytest.param(plant_p3, id="P3-global-list"),
    pytest.param(plant_p4, id="P4-np-save"),
    pytest.param(plant_save_obj, id="save-obj-in-integrate"),
    pytest.param(plant_random, id="random-in-kernel"),
    pytest.param(plant_os_system, id="os-system-in-stage"),
    pytest.param(plant_print, id="print-in-serve"),
]


class TestPlants:
    @pytest.mark.parametrize("plant", PLANTS)
    def test_plant_turns_red(self, sequence, monkeypatch, tmp_path, plant):
        parts, expected = plant(monkeypatch, tmp_path)
        problems = drive(sequence, monkeypatch, parts).problems
        for fragment in expected:
            assert any(fragment in p for p in problems), (fragment, problems)
