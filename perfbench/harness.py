"""Child-process entry points: ``prepare`` inputs, ``setup`` and ``measure``.

``perfbench/run.py`` starts ``prepare`` and then ``measure`` in fresh
interpreters, so a run's memory peak is its own, not left over from
rendering or from another workload.  ``measure`` itself starts the
``setup`` children it times for ``setup_s`` (see
:func:`perfbench.common.cold_setup`).

    python -m perfbench.harness prepare <workload> <seed>
    python -m perfbench.harness setup <workload> <seed>
    python -m perfbench.harness measure <workload> <seed> <seconds> <trace>

A workload's module is imported only when it runs, so a set-up imports
what that workload uses and nothing more.
"""

from __future__ import annotations

import importlib
import json
import sys

from .common import MANIFEST, manifest_metrics
from .inputs import render_clean, seeded_sequence_path

#: Noise seed of the canonical realization behind the accuracy metrics.
CANONICAL_SEED = 0

#: workload name -> the ``perfbench`` module that defines it.  Each module
#: has ``SPECS`` (input geometry per workload), ``setup(name, seed, path)
#: -> (value, parts)``, ``release(value)`` and ``measure``.
WORKLOADS = {
    "stream-rt320": "stream",
    "dse-hm": "dse",
    "serve-open": "serve_open",
}


def _module(name: str):
    return importlib.import_module(f"perfbench.{WORKLOADS[name]}")


def prepare(name: str, seed: int) -> None:
    """Render every workload's clean input (once), then seed this one's."""
    for other in WORKLOADS:
        render_clean(_module(other).SPECS[other], workers=2)
    spec = _module(name).SPECS[name]
    seeded_sequence_path(spec, CANONICAL_SEED)
    seeded_sequence_path(spec, seed)


def setup(name: str, seed: int) -> None:
    """Set the workload up once, print its parts, release it."""
    module = _module(name)
    value, parts = module.setup(
        name, seed, seeded_sequence_path(module.SPECS[name], seed))
    print(json.dumps(parts), flush=True)
    module.release(value)


def measure(name: str, seed: int, seconds: float, trace: bool) -> int:
    module = _module(name)
    spec = module.SPECS[name]
    outcome = module.measure(
        name, seed, seconds, trace, path=seeded_sequence_path(spec, seed),
        canonical_path=seeded_sequence_path(spec, CANONICAL_SEED))
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("# info " + json.dumps(outcome.info, sort_keys=True))
    mismatch = outcome.missing_from(manifest_metrics(trace))
    if mismatch:
        # The manifest's metrics are the result's contract: a run that
        # cannot report every one of them has no result.
        print(f"error: {name} metrics differ from {MANIFEST.name}: "
              f"{'; '.join(mismatch)}", file=sys.stderr)
        return 1
    print(outcome.result_line(), flush=True)
    return 0


#: Seeds are folded into the range every RNG the inputs use accepts.
SEED_RANGE = 2**32


def main(argv: list[str]) -> int:
    role, name, seed = argv[0], argv[1], int(argv[2]) % SEED_RANGE
    if name not in WORKLOADS:
        print(f"unknown workload {name!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if role == "prepare":
        prepare(name, seed)
        return 0
    if role == "setup":
        setup(name, seed)
        return 0
    return measure(name, seed, float(argv[3]), argv[4] == "1")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
