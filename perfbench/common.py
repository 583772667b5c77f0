"""Pieces every workload shares: the outcome record, the metric
manifest, cold set-ups, memory, concurrency, the kernel-stage rows and
the store of outputs that must repeat."""

from __future__ import annotations

import json
import multiprocessing
import os
import resource
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from . import stats
from .inputs import CACHE_DIR, ROOT, source_digest

#: Cold set-ups timed per run; ``setup_s`` is their median.
COLD_SETUPS = 7
#: Name prefix of the feeder thread a ``multiprocessing`` queue starts.
_QUEUE_HELPER = "QueueFeederThread"
#: A set-up child still running this long after its ready line has hung.
SETUP_EXIT_TIMEOUT_S = 30
#: The manifest naming every metric a run prints, with its unit.
MANIFEST = ROOT / "BENCHMARK.json"
#: The four kernel stages the pipeline's graph times per frame.
STAGES = ("preprocess", "track", "integrate", "raycast")


def manifest_metrics(trace: bool) -> dict:
    """Name -> unit of every metric a run must print.

    Every workload prints every metric of its mode: the end-to-end ones
    untraced, the per-layer ones traced (see :func:`layers_not_run`).
    """
    manifest = json.loads(MANIFEST.read_text())
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were right."""

    attempted: int
    failed: int
    metrics: dict = field(default_factory=dict)   #: name -> (value, unit)
    problems: list = field(default_factory=list)  #: failed correctness checks
    info: dict = field(default_factory=dict)      #: context, not gated

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems

    def missing_from(self, expected: dict) -> list[str]:
        """How the metrics differ from ``expected`` (name -> unit)."""
        got = {name: unit for name, (_, unit) in self.metrics.items()}
        return ([f"missing {n} [{u}]" for n, u in expected.items()
                 if got.get(n) != u]
                + [f"not in the manifest: {n} [{u}]" for n, u in got.items()
                   if expected.get(n) != u])

    def result_line(self) -> str:
        """The benchmark's last stdout line."""
        return json.dumps({
            "correct": self.correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })


def peak_rss_mb(workers: bool = False) -> float:
    """Peak resident set of this process, plus its largest reaped worker.

    Only a pool's workers are added: the program also runs short-lived
    helpers (``git rev-parse`` for run manifests), and a forked helper's
    peak is a copy of this process's resident set at the fork.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers:
        peak += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return peak / 1024.0  # ru_maxrss is in KiB on Linux


def timed(fn, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = perf_counter()
    result = fn(*args, **kwargs)
    return result, perf_counter() - start


class ColdSetups:
    """Cold set-ups of one workload, timed one at a time through a run.

    Each set-up runs ``python -m perfbench.harness setup``, which imports
    the program, loads the input and builds the system, engine or pool,
    prints its named parts (seconds) as one JSON line, and exits.  The
    clock runs here from launch to that line, so interpreter start and
    imports count, as they do for a user who starts the program.  Each
    child is waited for before anything else runs.

    Workloads call :meth:`take` between their measured phases, so the
    set-ups sample the host over the whole run and not only its first
    seconds; :meth:`result` tops up to ``COLD_SETUPS``.
    """

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.totals: list[float] = []
        self.parts: dict[str, list[float]] = {}

    def take(self) -> None:
        start = perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-m", "perfbench.harness", "setup",
             self.workload, str(self.seed)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = child.stdout.readline()
            seconds = perf_counter() - start
            child.communicate(timeout=SETUP_EXIT_TIMEOUT_S)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        if child.returncode != 0 or not line:
            raise RuntimeError(f"set-up of {self.workload} failed "
                               f"(exit {child.returncode})")
        self.totals.append(seconds)
        for name, value in json.loads(line).items():
            self.parts.setdefault(name, []).append(value)

    def result(self) -> tuple[float, dict]:
        """Median seconds of the set-ups and the median of every part."""
        while len(self.totals) < COLD_SETUPS:
            self.take()
        return (statistics.median(self.totals),
                {name: statistics.median(v) for name, v in self.parts.items()})


def concurrency() -> dict:
    """Threads and worker processes alive in this process right now.

    Call it while the workload's concurrency is live (pool workers up,
    the server's scheduler running).  ``multiprocessing`` queues add a
    feeder thread each that only moves pickled bytes into a pipe; they
    are listed but not counted as compute threads.
    """
    names = sorted(t.name for t in threading.enumerate())
    helpers = [n for n in names if n.startswith(_QUEUE_HELPER)]
    return {"threads": len(names) - len(helpers), "helper_threads":
            len(helpers), "processes": len(multiprocessing.active_children())}


def record_resources(outcome: Outcome, observed: dict) -> None:
    """Note the concurrency a workload used, next to the cores it had.

    Neither its compute threads nor its worker processes may exceed the
    cores, or the run measures time-slicing.
    """
    cores = os.cpu_count() or 1
    outcome.info.update(cpu_count=cores, **observed)
    for kind in ("threads", "processes"):
        outcome.check(observed[kind] <= cores,
                      f"{observed[kind]} {kind} on {cores} cores")


def layers_not_run(outcome: Outcome, *layers: str) -> None:
    """Report 0 for the per-layer metrics of layers the workload never calls.

    Those metrics are times, counts or shares *per operation* of the
    workload (a frame, an evaluation), so where the layer is absent --
    no model fit in a stream, no queue in a DSE -- the measured value is
    exactly 0 and not a guess.
    """
    for name, unit in manifest_metrics(trace=True).items():
        if name.split(".")[0] in layers:
            outcome.add(name, 0.0, unit)


def add_kernel_stages(outcome: Outcome, rows: list) -> None:
    """Per-frame kernel-stage metrics from :func:`stats.stage_rows` rows.

    Each stage is its mean span per frame (a skipped integrate still
    opens a short span, so ``integrate_ms`` is integrate's share of an
    average frame); ``other_ms`` is what the four spans leave of the
    frame span: graph dispatch, output publishing and the harness.
    """
    if not rows:
        raise ValueError("no frame with all four stage spans was traced")
    n = len(rows)
    for name in STAGES:
        outcome.add(f"kfusion.{name}_ms",
                    1e3 * sum(row.get(name, 0.0) for row in rows) / n, "ms")
    outcome.add("kfusion.other_ms", 1e3 * sum(
        stats.other_s(row["frame"], {s: row.get(s, 0.0) for s in STAGES})
        for row in rows) / n, "ms")


def program_digest() -> str:
    """Hash of the program's and the benchmark's source files."""
    return source_digest(ROOT, ("src/repro", "perfbench"))


def expect_same_as_before(outcome: Outcome, key: str, record: dict) -> None:
    """Compare ``record`` with the one an earlier run of ``key`` stored.

    Deterministic outputs (statuses, ATE, counts, the DSE front) must
    repeat exactly across runs of the same program on the same inputs;
    the first run stores them in the cache directory and later runs
    compare.  The store is kept per version of the program and of this
    benchmark, so a change that moves the arithmetic is never compared
    with the outputs of its parent.
    """
    path = Path(CACHE_DIR) / f"expect-{program_digest()}-{key}.json"
    text = json.dumps(record, sort_keys=True)
    if path.exists():
        before = path.read_text()
        outcome.check(before == text,
                      f"{key}: outputs differ from an earlier run "
                      f"(was {before[:200]}, now {text[:200]})")
        outcome.info["repeat_checked_against_earlier_run"] = True
        return
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_name(f".tmp-{os.getpid()}-{path.name}")
    tmp.write_text(text)
    os.replace(tmp, path)
    outcome.info["repeat_checked_against_earlier_run"] = False
