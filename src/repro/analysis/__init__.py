"""Repo-specific static analysis and contract checking (``repro lint``).

The paper's invariants — one timing source per kernel, deterministic
seeded runs, kernels that agree with the stage graph — are
machine-enforced here rather than left to reviewer vigilance.  (The
design space matches what KinectFusion consumes by construction:
``kfusion/params.py`` declares each knob once, and tier-1 tests check
that every knob moves a run and that all backends declare matching
``@contract``s.)

=======  ==============================================================
RPR001   timing-discipline: no stdlib clock reads outside
         :mod:`repro.telemetry`
RPR002   rng-discipline: no ``np.random.seed`` / legacy global draws,
         and no unseeded ``default_rng()`` / ``SeedSequence()`` / bit
         generator — inject a seeded ``np.random.Generator``
RPR003   error-policy: raise the :mod:`repro.errors` hierarchy, and CLI
         ``main()`` must catch :class:`~repro.errors.ReproError`
RPR005   contract-validation: ``@contract`` declares string literals
         by keyword, with no ``**`` spread, so RPR012 can read them
         statically (syntax, parameter names and stacked contradictions
         fail at decoration time)
RPR006   process-discipline: no ``multiprocessing`` /
         ``concurrent.futures`` outside :mod:`repro.jobs` — use
         ``WorkerPool``/``JobRunner``
RPR007   dtype-discipline: no float64 temporaries in the code the
         fast and sparse backends run (:mod:`repro.perf` and
         ``kfusion/pipeline.py``) — explicit float32, with ``# f64-ok:``
         waivers for the deliberate solver float64
RPR008   layer-discipline: imports/calls must point down the
         ``ARCHITECTURE.toml`` layer DAG, and every module must be
         covered by a layer
RPR009   transitive-effect-discipline: whole-program effect inference
         (call graph + fixpoint) holds each layer to its effect budget;
         findings carry the full ``via a -> b -> c`` chain
RPR012   kernel-contract-consistency: graph port contracts agree with
         the ``@contract`` declarations of the kernels each stage body
         calls (every registered backend, read live; dtype *kind*
         compared)
=======  ==============================================================

RPR012 runs against the *registered graph definitions* rather than
per-file, so it lives in ``repro graph check`` (same exit-code contract,
same ``# noqa`` handling) instead of ``repro lint``; see
:mod:`repro.analysis.dataflow`.  The rules are the gates: no snapshot
of inferred effects is committed.  The serve layer's locking is checked
where it runs, by the tier-1 test ``tests/test_locksets.py`` (an
Eraser-style lockset check over the threaded engine), not by a rule
here.

Every whole-program rule and command shares one parse, one call graph
and one effect fixpoint per file set: the
:class:`~repro.analysis.program.Program`.  The contract language the
runtime uses (``@contract``, port contracts, the effect vocabulary)
lives in :mod:`repro.contracts`, so importing the runtime never imports
this package.

Programmatic use::

    from repro.analysis.framework import analyze_paths
    from repro.analysis.lint import run_lint

    findings = analyze_paths(["src/repro"])
    exit_code = run_lint(["src/repro"], output_format="json")

Importing this package registers all checkers; the per-rule modules are
:mod:`~repro.analysis.checkers` (RPR001/2/3/5/6/7) and
:mod:`~repro.analysis.policy` (RPR008/9, backed by
:mod:`~repro.analysis.callgraph` and :mod:`~repro.analysis.effects`).
"""

from . import checkers as _checkers  # noqa: F401 (registers RPR001/2/3/5/6/7)
from . import policy as _policy  # noqa: F401  (registers RPR008/9)
