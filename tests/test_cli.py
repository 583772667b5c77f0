"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_override, build_parser, main


class TestParsing:
    def test_override_int(self):
        assert _parse_override("volume_resolution=128") == (
            "volume_resolution", 128,
        )

    def test_override_float(self):
        name, value = _parse_override("mu_distance=0.05")
        assert name == "mu_distance"
        assert value == pytest.approx(0.05)

    def test_override_string(self):
        assert _parse_override("backend=opencl") == ("backend", "opencl")

    def test_override_missing_equals(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_override("justaname")

    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["run", "--dataset", "lr_kt0",
                                  "--frames", "3"])
        assert args.dataset == "lr_kt0"
        assert args.frames == 3

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])


class TestCommands:
    def test_run_command(self, capsys):
        code = main([
            "run", "--dataset", "lr_kt0", "--algorithm", "icp_odometry",
            "--frames", "4", "--width", "32", "--height", "24",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "icp_odometry on lr_kt0" in out
        assert "ate_max_m" in out

    def test_run_with_override(self, capsys):
        code = main([
            "run", "--dataset", "lr_kt0", "--algorithm", "kfusion",
            "--frames", "3", "--width", "32", "--height", "24",
            "--set", "volume_resolution=48",
            "--set", "volume_size=5.0",
        ])
        assert code == 0

    def test_run_bad_override_reports_error(self, capsys):
        code = main([
            "run", "--dataset", "lr_kt0", "--frames", "3",
            "--width", "32", "--height", "24",
            "--set", "volume_resolution=7",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_devices_command(self, capsys):
        assert main(["devices"]) == 0
        assert "83 devices" in capsys.readouterr().out

    def test_serve_command_sync(self, capsys, tmp_path):
        stats_path = tmp_path / "stats.json"
        code = main([
            "serve", "--clients", "3", "--frames", "4",
            "--stream-frames", "4", "--width", "32", "--height", "24",
            "--speed", "100", "--set", "volume_resolution=48",
            "--set", "volume_size=5.0",
            "--stats-out", str(stats_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "serve" in out
        import json

        stats = json.loads(stats_path.read_text())
        engine = stats["engine"]
        assert engine["sessions"]["crashed"] == 0
        assert engine["sessions"]["by_state"] == {"closed": 3}
        frames = engine["frames"]
        assert frames["processed"] + frames["dropped"] == 12

    def test_serve_command_threaded(self, capsys, tmp_path):
        code = main([
            "serve", "--clients", "2", "--frames", "3",
            "--stream-frames", "3", "--width", "32", "--height", "24",
            "--speed", "100", "--threaded", "--algorithm", "icp_odometry",
            "--stats-out", str(tmp_path / "stats.json"),
        ])
        assert code == 0

    def test_evaluate_command(self, capsys, tmp_path):
        from repro.datasets import save_tum_trajectory
        from repro.scene import orbit

        gt = orbit((0, 1, 0), 1.5, 1.2, n_frames=8)
        est = orbit((0, 1, 0), 1.5, 1.2, n_frames=8,
                    jitter_trans_std=0.002, seed=3)
        gt_path = str(tmp_path / "gt.txt")
        est_path = str(tmp_path / "est.txt")
        save_tum_trajectory(gt, gt_path)
        save_tum_trajectory(est, est_path)
        assert main(["evaluate", est_path, gt_path]) == 0
        out = capsys.readouterr().out
        assert "ATE" in out
        assert "RPE" in out
        assert "endpoint drift" in out

    def test_evaluate_missing_file(self, capsys, tmp_path):
        code = main(["evaluate", str(tmp_path / "a.txt"),
                     str(tmp_path / "b.txt")])
        assert code == 1

    def test_dse_command_small(self, capsys, tmp_path):
        csv = str(tmp_path / "samples.csv")
        code = main(["dse", "--samples", "30", "--iterations", "2",
                     "--csv", csv])
        assert code == 0
        out = capsys.readouterr().out
        assert "Design-space exploration" in out
        assert "evaluations:" in out
        assert (tmp_path / "samples.csv").exists()

    def test_backends_command(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "opencl" in out and "cuda" in out

    def test_dse_workers_and_store(self, capsys, tmp_path):
        store = str(tmp_path / "store.jsonl")
        args = ["dse", "--samples", "20", "--iterations", "1",
                "--workers", "2", "--store", store]
        assert main(args) == 0
        assert "Design-space exploration" in capsys.readouterr().out
        assert (tmp_path / "store.jsonl").exists()
        # Same store without --resume: refused, not silently reused.
        assert main(args) == 1
        assert "--resume" in capsys.readouterr().err
        # With --resume: runs entirely from the store.
        assert main(args + ["--resume"]) == 0
        assert "Design-space exploration" in capsys.readouterr().out

    def test_crowd_workers(self, capsys):
        assert main(["crowd", "--workers", "2"]) == 0
        assert "geomean" in capsys.readouterr().out


class TestTraceCommands:
    def _run_traced(self, capsys, trace_path):
        code = main([
            "run", "--dataset", "lr_kt0", "--algorithm", "kfusion",
            "--frames", "4", "--width", "32", "--height", "24",
            "--set", "volume_resolution=48", "--set", "volume_size=5.0",
            "--trace", trace_path,
        ])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        return trace_path

    def test_run_trace_chrome(self, capsys, tmp_path):
        import json

        path = self._run_traced(capsys, str(tmp_path / "out.json"))
        with open(path) as f:
            doc = json.load(f)  # must be valid chrome trace JSON
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        for stage_name in ("preprocess", "track", "integrate", "raycast"):
            assert names.count(stage_name) == 4  # one per frame
        assert doc["metadata"]["algorithm"] == "kfusion"

    def test_run_trace_jsonl_and_summarize(self, capsys, tmp_path):
        path = self._run_traced(capsys, str(tmp_path / "out.jsonl"))
        assert main(["trace", "summarize", path]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        for col in ("p50_ms", "p95_ms", "max_ms"):
            assert col in out
        for stage_name in ("preprocess", "track", "integrate", "raycast"):
            assert stage_name in out

    def test_summarize_chrome_trace(self, capsys, tmp_path):
        path = self._run_traced(capsys, str(tmp_path / "out.json"))
        assert main(["trace", "summarize", path]) == 0
        assert "frame" in capsys.readouterr().out

    def test_summarize_bad_file_reports_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("definitely not json")
        assert main(["trace", "summarize", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_summarize_missing_file_reports_error(self, capsys, tmp_path):
        assert main(["trace", "summarize",
                     str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_trace_to_missing_dir_reports_error(self, capsys, tmp_path):
        code = main([
            "run", "--dataset", "lr_kt0", "--frames", "3",
            "--width", "32", "--height", "24",
            "--set", "volume_resolution=48", "--set", "volume_size=5.0",
            "--trace", str(tmp_path / "no_such_dir" / "out.json"),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "error:" in captured.err
        # The benchmark itself still completed and reported.
        assert "kfusion on lr_kt0" in captured.out

    def test_dse_trace(self, capsys, tmp_path):
        path = str(tmp_path / "dse.jsonl")
        code = main(["dse", "--samples", "30", "--iterations", "2",
                     "--trace", path])
        assert code == 0
        from repro.telemetry import load_spans

        spans = load_spans(path)
        names = {s.name for s in spans}
        assert "dse.iteration" in names
        assert "dse.fit_models" in names


class TestGraphCommands:
    """``repro graph`` subcommands.

    ``graph check`` follows the lint exit-code contract: 0 clean, 1 on
    findings (a graph that fails to compile, or an RPR012 port/kernel
    contract drift), 2 on an internal error (e.g. a source tree the
    analyzer cannot load).
    """

    def test_graph_check_clean(self, capsys):
        assert main(["graph", "check"]) == 0
        out = capsys.readouterr().out
        assert "ok   kfusion" in out
        assert "ok   icp_odometry" in out

    def test_graph_check_single_graph(self, capsys):
        assert main(["graph", "check", "--graph", "kfusion"]) == 0
        out = capsys.readouterr().out
        assert "preprocess -> track -> integrate -> raycast" in out

    def test_graph_check_broken_graph_exits_1(self, capsys, monkeypatch):
        from repro.graph import Edge, GraphSpec
        from repro.graph.spec import _GRAPHS

        def broken():
            # Two kfusion stages wired into a loop: compile must fail.
            return GraphSpec(
                name="broken",
                nodes=(("track", "kfusion.track"),
                       ("integrate", "kfusion.integrate")),
                edges=(Edge("track", "tracked", "integrate", "tracked"),),
            )

        monkeypatch.setitem(_GRAPHS, "zz-broken", broken)
        assert main(["graph", "check", "--graph", "zz-broken"]) == 1
        assert "FAIL zz-broken" in capsys.readouterr().out

    def test_graph_check_raising_factory_exits_1(self, capsys,
                                                 monkeypatch):
        from repro.graph.spec import _GRAPHS

        def raising():
            raise TypeError("factory bug")

        monkeypatch.setitem(_GRAPHS, "zz-raising", raising)
        assert main(["graph", "check", "--graph", "zz-raising"]) == 1
        assert "FAIL zz-raising: TypeError: factory bug" in \
            capsys.readouterr().out

    def test_graph_check_kernel_contract_drift_exits_1(self, capsys,
                                                       monkeypatch):
        import dataclasses

        from repro.graph import Edge, GraphSpec, Port, StageSpec, get_stage
        from repro.graph.spec import _GRAPHS
        from repro.graph.stage import _STAGES

        # The real integrate body behind a port that declares an integer
        # depth map: the wiring compiles, but the integrate kernels
        # declare float depth contracts.
        depth = Port("depth", "depth.map(H,W:i32)")
        integrate = get_stage("kfusion.integrate")
        stages = dict(_STAGES)
        stages["zz.source"] = StageSpec(
            name="zz.source", run=lambda ctx, inputs: {},
            outputs=(depth, integrate.input_port("tracked")))
        stages["zz.integrate"] = dataclasses.replace(
            integrate, name="zz.integrate",
            inputs=(depth, integrate.input_port("tracked")))
        monkeypatch.setattr("repro.graph.stage._STAGES", stages)
        monkeypatch.setitem(_GRAPHS, "zz-drift", lambda: GraphSpec(
            name="zz-drift",
            nodes=(("source", "zz.source"), ("integrate", "zz.integrate")),
            edges=(Edge("source", "depth", "integrate", "depth"),
                   Edge("source", "tracked", "integrate", "tracked"))))

        assert main(["graph", "check", "--graph", "zz-drift"]) == 1
        out = capsys.readouterr().out
        assert "ok   zz-drift" in out
        assert "RPR012" in out
        assert "depth.map(H,W:i32)" in out

    def test_graph_check_unknown_graph_exits_1(self, capsys):
        assert main(["graph", "check", "--graph", "teapot"]) == 1
        assert "FAIL teapot" in capsys.readouterr().out

    def test_graph_check_internal_error_exits_2(self, capsys, monkeypatch):
        from repro.analysis import dataflow
        from repro.analysis.framework import AnalysisError

        def unloadable(paths):
            raise AnalysisError(f"cannot parse {paths[0]}")

        monkeypatch.setattr(dataflow, "load_program", unloadable)
        assert main(["graph", "check"]) == 2
        assert "graph check: internal error" in capsys.readouterr().out

    def test_graph_show(self, capsys):
        assert main(["graph", "show", "kfusion"]) == 0
        out = capsys.readouterr().out
        assert "schedule: preprocess -> track -> integrate -> raycast" in out
        assert "edge track.tracked -> integrate.tracked" in out

    def test_graph_show_unknown_reports_error(self, capsys):
        assert main(["graph", "show", "teapot"]) == 1
        assert "error:" in capsys.readouterr().err
