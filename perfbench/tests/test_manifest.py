"""Every run prints exactly the metrics BENCHMARK.json names."""

from perfbench.common import Outcome, layers_not_run, manifest_metrics


def test_a_result_must_hold_every_manifest_metric_in_its_unit():
    expected = {"latency_ms_p50": "ms", "setup_s": "s"}
    outcome = Outcome(attempted=1, failed=0)
    outcome.add("latency_ms_p50", 1.0, "s")
    outcome.add("fps", 1.0, "1/s")
    assert outcome.missing_from(expected) == [
        "missing latency_ms_p50 [ms]", "missing setup_s [s]",
        "not in the manifest: latency_ms_p50 [s]",
        "not in the manifest: fps [1/s]"]
    outcome.add("latency_ms_p50", 1.0, "ms")
    outcome.add("setup_s", 1.0, "s")
    del outcome.metrics["fps"]
    assert outcome.missing_from(expected) == []


def test_layers_not_run_report_zero_for_their_metrics_only():
    outcome = Outcome(attempted=1, failed=0)
    layers_not_run(outcome, "serve", "loadgen")
    per_layer = manifest_metrics(trace=True)
    expected = {n for n in per_layer if n.split(".")[0] in ("serve",
                                                            "loadgen")}
    assert expected and set(outcome.metrics) == expected
    assert all(outcome.metrics[n] == (0.0, per_layer[n]) for n in expected)


def test_every_per_layer_metric_names_its_layer():
    layers = {"kfusion", "datasets", "hypermapper", "jobs", "serve",
              "loadgen", "telemetry"}
    assert {n.split(".")[0] for n in manifest_metrics(trace=True)} == layers
    assert not any("." in n for n in manifest_metrics(trace=False))
