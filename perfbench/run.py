"""Run one benchmark workload and print its metrics as the last line.

    python3 perfbench/run.py --workload stream-rt320 --seed 1 \\
        --seconds 30 --trace 0

Run from the repository root.  The first run in a checkout renders the
input sequences into ``.bench_cache/`` (a few minutes); later runs only
add the noise for a new seed.  Preparation and measurement each run in
a fresh interpreter.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: Rendering every workload's input the first time takes a few minutes.
#: With the measuring child's limit this keeps a first run under 900 s.
PREPARE_TIMEOUT_S = 700
#: A measuring child that outlives this has hung (a run measures for
#: ``--seconds``, at most 60, plus its set-up).
MEASURE_TIMEOUT_S = 150


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # One thread per process: the workloads' own threads and worker
    # processes are the only concurrency, so it stays within the cores.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    # Run manifests ask git for the revision; keep its repository search
    # from climbing out of the checkout.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


def _child(args: list[str], timeout_s: float) -> tuple[int, str]:
    """Run a harness role, then kill whatever is left of its process group.

    The group holds what the child started (render or pool workers), so
    nothing outlives the run, even when the child failed or hung.
    """
    child = subprocess.Popen(
        [sys.executable, "-m", "perfbench.harness", *args], cwd=ROOT,
        env=_env(), text=True, stdout=subprocess.PIPE,
        start_new_session=True)
    try:
        out, _ = child.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        _kill_group(child.pid)
        child.communicate()
        print(f"error: {args[0]} {args[1]} timed out after {timeout_s} s",
              file=sys.stderr)
        return 3, ""
    _kill_group(child.pid)
    return child.returncode, out


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the group has already ended


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    seed = str(args.seed)
    code, out = _child(["prepare", args.workload, seed], PREPARE_TIMEOUT_S)
    sys.stderr.write(out)
    if code != 0:
        return code
    code, out = _child(["measure", args.workload, seed, repr(args.seconds),
                        str(args.trace)], MEASURE_TIMEOUT_S)
    if code != 0:
        return code
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
