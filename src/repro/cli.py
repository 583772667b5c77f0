"""Command-line interface — the analogue of SLAMBench's loader binaries.

Subcommands:

* ``run``      — benchmark an algorithm on a dataset (the loader loop).
* ``dse``      — HyperMapper exploration (Figure 2) at chosen scale.
* ``crowd``    — the 83-device Android campaign (Figure 3).
* ``devices``  — list the mobile device database.
* ``backends`` — the cross-implementation comparison (E5).
* ``trace``    — inspect telemetry traces (``trace summarize FILE``).
* ``lint``     — repo-specific static analysis (``repro.analysis``);
  exits 0 when clean, 1 on findings, 2 on an internal analyzer error.
* ``graph``    — stage-graph tooling (``repro.graph``): ``check``
  compiles every registered graph definition and checks its ports
  against the kernels' ``@contract``s (RPR012; same 0/1/2 exit contract
  as ``lint``), ``show`` prints a graph's schedule and edges.
* ``arch``     — architecture policy tooling (``ARCHITECTURE.toml``):
  ``show`` the layer diagram, ``graph`` the call graph as JSON/DOT,
  ``effects`` the whole-program effect inference (``lint`` runs the
  rules RPR008-010).
* ``races``    — static concurrency verification (rules RPR014/016):
  ``check`` lockset races / wait discipline plus the ``[concurrency]``
  policy names, ``show`` the thread contexts and per-field verdicts.

``run`` and ``dse`` accept ``--trace PATH`` to capture a per-kernel
telemetry trace of the run: ``.jsonl`` writes the raw event log,
``.csv`` the per-kernel summary, anything else a Chrome
``trace_event`` JSON loadable in ``chrome://tracing`` / Perfetto.

``run`` also accepts ``--kernel-backend`` for kfusion: the voxel-block
TSDF (``sparse``, default), the float32 dense-grid workspace kernels
(``fast``) and the float64 textbook kernels (``reference``); see
``repro.perf``.

Examples::

    repro-benchmark run --dataset lr_kt0 --algorithm kfusion \
        --frames 20 --width 80 --height 60 --set volume_resolution=128
    repro-benchmark run --frames 10 --kernel-backend reference
    repro-benchmark run --frames 10 --trace out.json
    repro-benchmark trace summarize out.json
    repro-benchmark dse --samples 200 --iterations 10
    repro-benchmark dse --workers 4 --store dse_store.jsonl --resume
    repro-benchmark crowd --workers 4
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .core import format_table, run_benchmark
from .core.registry import (
    algorithm_names,
    create_algorithm,
    create_dataset,
    dataset_names,
    register_defaults,
)
from .errors import ReproError
from .perf import (
    DEFAULT_KERNEL_BACKEND,
    get_kernel_backend,
    kernel_backend_names,
)
from .platforms import PlatformConfig, odroid_xu3, phone_database
from .telemetry import Tracer, export, summarize_trace_file, use_tracer


def _parse_override(text: str):
    """Parse ``name=value`` with numeric coercion."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected name=value, got {text!r}")
    name, raw = text.split("=", 1)
    for cast in (int, float):
        try:
            return name, cast(raw)
        except ValueError:
            continue
    return name, raw


def _write_trace(tracer: Tracer, path: str) -> None:
    fmt = export(tracer, path)
    print(f"wrote {fmt} trace ({len(tracer)} spans) to {path}")


def _cmd_run(args) -> int:
    register_defaults()
    sequence = create_dataset(args.dataset, n_frames=args.frames,
                              width=args.width, height=args.height,
                              seed=args.seed)
    factory_kwargs = {}
    if args.kernel_backend is not None:
        factory_kwargs["kernel_backend"] = args.kernel_backend
    system = create_algorithm(args.algorithm, **factory_kwargs)
    config = dict(args.set or [])
    tracer = Tracer(enabled=bool(args.trace))
    result = run_benchmark(
        system,
        sequence,
        configuration=config,
        device=odroid_xu3(),
        platform_config=PlatformConfig(backend=args.backend),
        tracer=tracer,
    )
    print(format_table([result.summary()],
                       title=f"{args.algorithm} on {args.dataset}"))
    if args.trace:
        _write_trace(tracer, args.trace)
    return 0


def _cmd_serve(args) -> int:
    import json

    from .serve import (
        InProcessTransport,
        LoadSpec,
        ServeEngine,
        ServePolicy,
        run_load,
    )

    register_defaults()
    sequence = create_dataset(args.dataset, n_frames=args.stream_frames,
                              width=args.width, height=args.height,
                              seed=args.seed)
    policy = ServePolicy(
        queue_capacity=args.queue_capacity,
        frames_per_round=args.frames_per_round,
        drop_policy=args.drop_policy,
    )
    spec = LoadSpec(
        clients=args.clients,
        frames_per_client=args.frames,
        mean_interarrival_s=args.mean_interarrival,
        arrival_shape=args.arrival_shape,
        fps_median=args.fps,
        fps_sigma=args.fps_sigma,
        speed=args.speed,
        seed=args.seed,
    )
    tracer = Tracer(enabled=bool(args.trace))
    with use_tracer(tracer):
        engine = ServeEngine(InProcessTransport(), policy, tracer=tracer)
        if args.threaded:
            engine.start()
        report = run_load(
            engine, sequence, spec,
            algorithm=args.algorithm,
            configuration=dict(args.set or []),
            threaded=args.threaded,
        )
        engine.close()

    doc = report.as_dict()
    stats = doc["engine"]
    print(format_table(
        [{
            "sessions": stats["sessions"]["opened"],
            "closed": stats["sessions"]["closed"],
            "crashed": stats["sessions"]["crashed"],
            "frames": stats["frames"]["received"],
            "processed": stats["frames"]["processed"],
            "dropped": stats["frames"]["dropped"],
            "drop_rate": round(stats["frames"]["drop_rate"], 4),
            "p50_ms": round(stats["latency"]["p50_s"] * 1e3, 2),
            "p95_ms": round(stats["latency"]["p95_s"] * 1e3, 2),
            "wall_s": round(doc["wall_s"], 3),
        }],
        title=(f"repro serve: {args.clients} clients x {args.frames} "
               f"frames (speed {args.speed}x, "
               f"{'threaded' if args.threaded else 'sync'})"),
    ))
    if args.stats_out:
        with open(args.stats_out, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote stats report to {args.stats_out}")
    if args.trace:
        _write_trace(tracer, args.trace)
    # Crashed sessions mean the serving fleet lost work: nonzero exit so
    # smoke jobs fail loudly even though the engine itself survived.
    return 1 if stats["sessions"]["crashed"] else 0


def _cmd_dse(args) -> int:
    from .experiments import fig2_dse
    from .hypermapper import (
        ConstraintSet,
        accuracy_limit,
        exploration_summary,
        format_knowledge,
        save_exploration_csv,
    )

    tracer = Tracer(enabled=bool(args.trace))
    with use_tracer(tracer):
        figure = fig2_dse.run_surrogate(
            n_random=args.samples,
            n_initial=max(10, args.samples // 5),
            n_iterations=args.iterations,
            samples_per_iteration=8,
            seed=args.seed,
            workers=args.workers,
            store_path=args.store or None,
            resume=args.resume,
            backend_dimension=not args.no_backend_dimension,
        )
    print(format_table(figure.summary_rows(),
                       title="Design-space exploration"))
    constraints = ConstraintSet.of([accuracy_limit(figure.accuracy_limit_m)])
    print(exploration_summary(figure.active_result, constraints))
    print()
    print(format_knowledge(figure.knowledge))
    if args.csv:
        save_exploration_csv(figure.active_result, args.csv)
        print(f"wrote samples to {args.csv}")
    if args.trace:
        _write_trace(tracer, args.trace)
    return 0


def _cmd_trace_summarize(args) -> int:
    rows = summarize_trace_file(args.trace_file)
    print(format_table(rows, title=f"trace summary: {args.trace_file}"))
    return 0


def _cmd_crowd(args) -> int:
    from .experiments import fig3_android

    figure = fig3_android.run(seed=args.seed, workers=args.workers)
    print(figure.histogram())
    s = figure.summary
    print(f"median {s.summary.median:.1f}x, geomean {s.geometric_mean:.1f}x")
    return 0


def _cmd_evaluate(args) -> int:
    from .datasets.tum_format import load_tum_trajectory
    from .metrics import absolute_trajectory_error, relative_pose_error
    from .metrics.drift import trajectory_drift

    estimated = load_tum_trajectory(args.estimated)
    reference = load_tum_trajectory(args.reference)
    ate = absolute_trajectory_error(estimated, reference,
                                    max_dt=args.max_dt)
    rows = [{
        "metric": "ATE",
        "rmse_m": ate.rmse,
        "mean_m": ate.mean,
        "max_m": ate.max,
        "frames": ate.matched_frames,
    }]
    try:
        rpe = relative_pose_error(estimated, reference, delta=args.delta,
                                  max_dt=args.max_dt)
        rows.append({
            "metric": f"RPE(delta={args.delta})",
            "rmse_m": rpe.trans_rmse,
            "mean_m": rpe.trans_mean,
            "max_m": rpe.trans_max,
            "frames": rpe.pairs,
        })
    except ReproError:
        pass
    print(format_table(rows, title="Trajectory evaluation"))
    try:
        drift = trajectory_drift(estimated, reference, max_dt=args.max_dt)
        print(f"path length {drift.path_length_m:.3f} m, endpoint drift "
              f"{drift.endpoint_drift_percent:.2f} %")
    except ReproError:
        pass
    return 0


def _cmd_devices(_args) -> int:
    rows = [
        {
            "device": d.name,
            "year": d.year,
            "form": d.form_factor,
            "gpu": d.gpu.name if d.gpu else "-",
            "gpu_gflops": d.gpu.gflops if d.gpu else 0.0,
        }
        for d in phone_database()
    ]
    print(format_table(rows, title=f"{len(rows)} devices"))
    return 0


def _cmd_backends(_args) -> int:
    from .experiments import backends

    print(format_table(backends.run().rows, title="Backend comparison"))
    return 0


def _cmd_graph_check(args) -> int:
    import os

    from .analysis.dataflow import (
        GraphUnderCheck,
        run_kernel_contract_check,
    )
    from .analysis.lint import (
        LINT_EXIT_CLEAN,
        LINT_EXIT_FINDINGS,
        LINT_EXIT_INTERNAL,
    )
    from .analysis.policy import load_policy
    from .graph import (
        compile_graph,
        create_graph,
        graph_factory,
        graph_names,
    )

    register_defaults()
    names = [args.graph] if args.graph else graph_names()
    try:
        policy = load_policy(args.policy)
    except ReproError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return LINT_EXIT_INTERNAL
    failed = 0
    graphs = []
    for name in names:
        try:
            instance = compile_graph(create_graph(name), policy=policy)
        except Exception as exc:  # a broken registry entry, whatever it raises
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
            failed += 1
            continue
        print(f"ok   {name}: {len(instance)} stages, schedule "
              f"{' -> '.join(instance.stage_names)}")
        origin = os.path.relpath(graph_factory(name).__code__.co_filename)
        graphs.append(GraphUnderCheck(
            spec=instance.spec, origin=origin,
            stages={node.name: node.spec for node in instance.schedule}))
    # RPR012 reads the sources of the package the graphs were built from
    # and the live contracts of every registered kernel backend.
    code = run_kernel_contract_check(
        graphs, [os.path.relpath(os.path.dirname(__file__))],
        [get_kernel_backend(name) for name in kernel_backend_names()])
    if failed and code == LINT_EXIT_CLEAN:
        return LINT_EXIT_FINDINGS
    return code


def _cmd_graph_show(args) -> int:
    from .graph import compile_graph, create_graph

    register_defaults()
    instance = compile_graph(create_graph(args.graph))
    spec = instance.spec
    print(f"graph {spec.name}: {len(instance)} stages")
    print(f"  schedule: {' -> '.join(instance.stage_names)}")
    for node_name, stage_name in spec.nodes:
        print(f"  node {node_name} [{stage_name}]")
    for edge in spec.edges:
        print(f"  edge {edge.label}")
    for tap in spec.taps:
        print(f"  tap  {tap.node}.{tap.port} (every {tap.every})")
    return 0


def _cmd_lint(args) -> int:
    from .analysis.lint import run_lint

    select = None
    if args.select:
        select = [r.strip() for r in args.select.split(",") if r.strip()]
    return run_lint(
        args.paths,
        output_format=args.format,
        select=select,
    )


def _cmd_arch(args) -> int:
    from .analysis import commands

    paths = args.paths or list(commands.DEFAULT_PATHS)
    command = args.arch_command or "show"
    if command == "show":
        return commands.arch_show(policy_path=args.policy)
    if command == "graph":
        return commands.arch_graph(paths, output_format=args.format,
                                   granularity=args.granularity,
                                   policy_path=args.policy)
    if command == "effects":
        return commands.arch_effects(paths, prefix=args.prefix,
                                     policy_path=args.policy)
    raise AssertionError(f"unhandled arch command {command!r}")


def _cmd_races(args) -> int:
    from .analysis import commands

    paths = args.paths or list(commands.DEFAULT_PATHS)
    command = args.races_command or "check"
    if command == "check":
        return commands.races_check(paths)
    if command == "show":
        return commands.races_show(paths)
    raise AssertionError(f"unhandled races command {command!r}")


def build_parser() -> argparse.ArgumentParser:
    register_defaults()
    parser = argparse.ArgumentParser(
        prog="repro-benchmark",
        description="SLAMBench/HyperMapper reproduction CLI",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="benchmark an algorithm on a dataset")
    p_run.add_argument("--dataset", default="lr_kt0", choices=dataset_names())
    p_run.add_argument("--algorithm", default="kfusion",
                       choices=algorithm_names())
    p_run.add_argument("--frames", type=int, default=15)
    p_run.add_argument("--width", type=int, default=80)
    p_run.add_argument("--height", type=int, default=60)
    p_run.add_argument("--backend", default="opencl",
                       choices=("cpp", "openmp", "opencl"))
    p_run.add_argument("--kernel-backend", dest="kernel_backend",
                       default=None, choices=kernel_backend_names(),
                       help="kernel implementation set for kfusion "
                            f"(default: {DEFAULT_KERNEL_BACKEND}; see repro.perf)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--set", metavar="NAME=VALUE", action="append",
                       type=_parse_override,
                       help="override an algorithm parameter")
    p_run.add_argument("--trace", metavar="PATH", default="",
                       help="write a telemetry trace (.jsonl event log, "
                            ".csv summary, else Chrome trace_event JSON)")
    p_run.set_defaults(func=_cmd_run)

    p_serve = sub.add_parser(
        "serve", help="concurrent SLAM session engine under generated load "
                      "(repro.serve)")
    p_serve.add_argument("--dataset", default="lr_kt0",
                         choices=dataset_names())
    p_serve.add_argument("--algorithm", default="kfusion",
                         choices=algorithm_names())
    p_serve.add_argument("--clients", type=int, default=8,
                         help="simulated client count")
    p_serve.add_argument("--frames", type=int, default=20,
                         help="frames each client streams")
    p_serve.add_argument("--stream-frames", dest="stream_frames", type=int,
                         default=6,
                         help="distinct frames in the shared procedural "
                              "stream (cycled per client)")
    p_serve.add_argument("--width", type=int, default=48)
    p_serve.add_argument("--height", type=int, default=36)
    p_serve.add_argument("--fps", type=float, default=10.0,
                         help="median client frame rate (virtual fps)")
    p_serve.add_argument("--fps-sigma", dest="fps_sigma", type=float,
                         default=0.75,
                         help="log-normal dispersion of client frame rates")
    p_serve.add_argument("--mean-interarrival", dest="mean_interarrival",
                         type=float, default=0.05,
                         help="mean virtual gap between client arrivals (s)")
    p_serve.add_argument("--arrival-shape", dest="arrival_shape", type=float,
                         default=1.5,
                         help="Pareto tail index of client arrivals (>1)")
    p_serve.add_argument("--speed", type=float, default=1.0,
                         help="virtual seconds offered per wall second "
                              "(>1 = overload knob)")
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument("--queue-capacity", dest="queue_capacity", type=int,
                         default=8,
                         help="bounded per-session ingress queue length")
    p_serve.add_argument("--frames-per-round", dest="frames_per_round",
                         type=int, default=4,
                         help="per-session frame budget per scheduling round")
    p_serve.add_argument("--drop-policy", dest="drop_policy",
                         choices=("oldest", "newest"), default="oldest",
                         help="which frame dies when an ingress queue is "
                              "full")
    p_serve.add_argument("--threaded", action="store_true",
                         help="run the scheduler on its own thread "
                              "(default: synchronous stepping)")
    p_serve.add_argument("--set", metavar="NAME=VALUE", action="append",
                         type=_parse_override,
                         help="override an algorithm parameter")
    p_serve.add_argument("--stats-out", dest="stats_out", metavar="PATH",
                         default="",
                         help="write the JSON stats report here")
    p_serve.add_argument("--trace", metavar="PATH", default="",
                         help="write a telemetry trace of the serving run")
    p_serve.set_defaults(func=_cmd_serve)

    p_dse = sub.add_parser("dse", help="design-space exploration (Fig 2)")
    p_dse.add_argument("--samples", type=int, default=150)
    p_dse.add_argument("--iterations", type=int, default=10)
    p_dse.add_argument("--seed", type=int, default=0)
    p_dse.add_argument("--csv", default="",
                       help="also write every sample to this CSV file")
    p_dse.add_argument("--trace", metavar="PATH", default="",
                       help="write a telemetry trace of the exploration")
    p_dse.add_argument("--workers", type=int, default=1,
                       help="evaluate each batch over N worker processes "
                            "(results identical at any worker count)")
    p_dse.add_argument("--store", metavar="PATH", default="",
                       help="persist every evaluation to this JSONL store "
                            "(cross-run memoization)")
    p_dse.add_argument("--resume", action="store_true",
                       help="reuse an existing --store from a previous "
                            "(possibly killed) run")
    p_dse.add_argument("--no-backend-dimension", action="store_true",
                       help="explore only the algorithmic knobs, without "
                            "kernel_backend as a categorical dimension")
    p_dse.set_defaults(func=_cmd_dse)

    p_trace = sub.add_parser("trace", help="inspect telemetry trace files")
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)
    p_summ = trace_sub.add_parser(
        "summarize", help="per-kernel p50/p95/max from a trace file"
    )
    p_summ.add_argument("trace_file", help="trace written by --trace "
                                           "(Chrome JSON or JSONL)")
    p_summ.set_defaults(func=_cmd_trace_summarize)

    p_crowd = sub.add_parser("crowd", help="83-device campaign (Fig 3)")
    p_crowd.add_argument("--seed", type=int, default=0)
    p_crowd.add_argument("--workers", type=int, default=1,
                         help="simulate devices over N worker processes")
    p_crowd.set_defaults(func=_cmd_crowd)

    p_eval = sub.add_parser(
        "evaluate", help="ATE/RPE/drift between two TUM-format trajectories"
    )
    p_eval.add_argument("estimated", help="estimated trajectory (TUM text)")
    p_eval.add_argument("reference", help="ground-truth trajectory (TUM text)")
    p_eval.add_argument("--delta", type=int, default=1)
    p_eval.add_argument("--max-dt", dest="max_dt", type=float, default=0.02)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_dev = sub.add_parser("devices", help="list the device database")
    p_dev.set_defaults(func=_cmd_devices)

    p_be = sub.add_parser("backends", help="backend comparison (E5)")
    p_be.set_defaults(func=_cmd_backends)

    p_arch = sub.add_parser(
        "arch", help="architecture policy: layers, call graph, effects"
    )
    arch_sub = p_arch.add_subparsers(dest="arch_command")
    arch_common = {"nargs": "*", "default": [],
                   "help": "files or directories (default: src/repro)"}

    p_arch_show = arch_sub.add_parser(
        "show", help="print the layer diagram with effect budgets")
    p_arch_graph = arch_sub.add_parser(
        "graph", help="export the call graph")
    p_arch_graph.add_argument("paths", **arch_common)
    p_arch_graph.add_argument("--format", choices=("json", "dot"),
                              default="json")
    p_arch_graph.add_argument("--granularity",
                              choices=("module", "function"),
                              default="module")
    p_arch_eff = arch_sub.add_parser(
        "effects", help="print inferred per-function effect sets")
    p_arch_eff.add_argument("paths", **arch_common)
    p_arch_eff.add_argument("--prefix", default="",
                            help="only functions whose qualified name "
                                 "starts with this prefix")
    for sp in (p_arch, p_arch_show, p_arch_graph, p_arch_eff):
        sp.add_argument("--policy", default="ARCHITECTURE.toml",
                        help="architecture policy file")
        sp.set_defaults(func=_cmd_arch)
    p_arch.set_defaults(paths=[])

    p_races = sub.add_parser(
        "races", help="static concurrency verification (rules RPR014/016): "
                      "lockset races, wait discipline"
    )
    races_sub = p_races.add_subparsers(dest="races_command")
    races_common = {"nargs": "*", "default": [],
                    "help": "files or directories (default: src/repro)"}
    p_races_check = races_sub.add_parser(
        "check", help="run RPR014/016 and validate the [concurrency] "
                      "policy names (exit: 0 clean, 1 findings, 2 error)")
    p_races_check.add_argument("paths", **races_common)
    p_races_show = races_sub.add_parser(
        "show", help="print thread contexts, locks and field verdicts")
    p_races_show.add_argument("paths", **races_common)
    for sp in (p_races, p_races_check, p_races_show):
        sp.set_defaults(func=_cmd_races)
    p_races.set_defaults(paths=[])

    p_graph = sub.add_parser(
        "graph", help="stage-graph pipelines: check, show"
    )
    graph_sub = p_graph.add_subparsers(dest="graph_command", required=True)
    p_g_check = graph_sub.add_parser(
        "check", help="compile every registered graph definition and "
                      "check its ports against kernel @contracts "
                      "(RPR012; exit: 0 clean, 1 findings, 2 internal "
                      "error)")
    p_g_check.add_argument("--graph", default="",
                           help="check only this registered graph")
    p_g_check.add_argument("--policy", default="ARCHITECTURE.toml",
                           help="architecture policy for effect budgets")
    p_g_check.set_defaults(func=_cmd_graph_check)
    p_g_show = graph_sub.add_parser(
        "show", help="print a graph's schedule, nodes, edges, taps")
    p_g_show.add_argument("graph", help="registered graph name "
                                        "(e.g. kfusion)")
    p_g_show.set_defaults(func=_cmd_graph_show)

    p_lint = sub.add_parser(
        "lint", help="repo-specific static analysis (rules RPR001-003, "
                     "RPR005-010, RPR014 and RPR016)"
    )
    p_lint.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to analyse "
                             "(default: src/repro)")
    p_lint.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format")
    p_lint.add_argument("--select", default="",
                        help="comma-separated rule ids to run "
                             "(e.g. RPR001,RPR003)")
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
