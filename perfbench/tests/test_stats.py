"""The benchmark's own metric arithmetic."""

from dataclasses import dataclass, field

import numpy as np
import pytest

from perfbench import stats


class TestPercentile:
    def test_p95_needs_ten_samples_beyond_it(self):
        assert stats.percentile(list(range(199)), 95) is None
        assert stats.percentile(list(range(200)), 95) is not None

    def test_p50_needs_twenty_samples(self):
        assert stats.percentile([1.0] * 19, 50) is None
        assert stats.percentile([1.0] * 20, 50) == 1.0

    def test_samples_beyond_counts_ranks_above(self):
        assert stats.samples_beyond(200, 95) == 10
        assert stats.samples_beyond(199, 95) == 9
        assert stats.samples_beyond(20, 50) == 10

    def test_value_matches_numpy(self):
        values = np.random.default_rng(0).random(400)
        assert stats.percentile(values, 95) == np.percentile(values, 95)

    def test_require_raises_with_the_needed_count(self):
        with pytest.raises(ValueError, match="need 200"):
            stats.require_percentile([1.0] * 150, 95, "frame")

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            stats.percentile([1.0] * 50, 101)


class TestMeanOfMedians:
    def test_moves_in_proportion_to_the_slow_passes(self):
        fast, slow = [1.0] * 30, [2.0] * 30
        assert stats.mean_of_medians([fast, slow], "frame") == 1.5
        assert stats.mean_of_medians([fast, fast, fast, slow], "frame") == \
            1.25

    def test_ignores_outliers_within_a_pass(self):
        spiky = [1.0] * 25 + [50.0] * 5
        assert stats.mean_of_medians([spiky, [1.0] * 30], "frame") == 1.0

    def test_each_pass_must_back_its_median(self):
        with pytest.raises(ValueError, match="need 20"):
            stats.mean_of_medians([[1.0] * 30, [1.0] * 19], "frame")
        with pytest.raises(ValueError):
            stats.mean_of_medians([], "frame")


class TestOther:
    def test_never_negative_for_nested_spans(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            frame = float(rng.uniform(0.01, 0.1))
            shares = rng.dirichlet(np.ones(5))[:4] * frame
            stages = dict(zip("abcd", map(float, shares)))
            other = stats.other_s(frame, stages)
            assert other >= 0.0
            assert other + sum(stages.values()) == pytest.approx(frame)

    def test_clock_granularity_overlap_reads_zero(self):
        assert stats.other_s(1.0, {"a": 1.0 + 5e-7}) == 0.0

    def test_stages_longer_than_frame_are_an_error(self):
        with pytest.raises(ValueError):
            stats.other_s(1.0, {"a": 0.6, "b": 0.6})


@dataclass
class Span:
    name: str
    start_ns: int
    duration_ns: int
    attrs: dict = field(default_factory=dict)


US = 1000  # ns; well above the nesting slack


def _frame(start, worker=None, stages="ab", **attrs):
    """A 100 us frame span at ``start`` us holding 10 us ``stages`` spans."""
    attrs = {**attrs, "worker": worker}
    return (Span("frame", start * US, 100 * US, attrs),
            [Span(name, (start + 10 + 20 * i) * US, 10 * US,
                  {"worker": worker}) for i, name in enumerate(stages)])


def _by_worker(span):
    return span.attrs["worker"]


class TestStageRows:
    def test_stage_spans_join_the_frame_that_holds_them_in_their_group(self):
        # Two workers whose frames overlap in time.
        frames, stages = zip(_frame(0, 0), _frame(50, 1), _frame(200, 0))
        rows, problems = stats.stage_rows(
            frames, [s for group in stages for s in group], "ab", _by_worker)
        assert problems == []
        assert len(rows) == 3
        for row in rows:
            assert set(row) == {"frame", "a", "b", "attrs"}
            assert row["frame"] == pytest.approx(100e-6)
            assert row["a"] == row["b"] == pytest.approx(10e-6)

    def test_a_missing_stage_is_a_problem(self):
        frame, stages = _frame(0, stages="a")
        assert "no b" in stats.stage_rows([frame], stages, "ab")[1][0]

    def test_a_doubled_stage_is_a_problem(self):
        frame, stages = _frame(0, stages="aab")
        assert "two a spans" in stats.stage_rows([frame], stages, "ab")[1][0]

    def test_a_stage_outside_every_frame_is_a_problem(self):
        frame, stages = _frame(0)
        late = Span("a", 150 * US, 10 * US, {"worker": None})
        problems = stats.stage_rows([frame], [*stages, late], "ab")[1]
        assert problems == [
            "a span at 150000 ns lies outside every frame span"]

    def test_a_stage_of_another_group_is_not_matched(self):
        frame, stages = _frame(0, worker=0)
        stray = Span("a", 10 * US, 10 * US, {"worker": 1})
        problems = stats.stage_rows([frame], [*stages, stray], "ab",
                                    _by_worker)[1]
        assert len(problems) == 1 and "outside" in problems[0]

    def test_a_frame_that_failed_is_left_out_with_its_stages(self):
        failed, partial = _frame(0, stages="a", error="ReproError")
        ok, stages = _frame(200)
        rows, problems = stats.stage_rows([failed, ok], [*partial, *stages],
                                          "ab")
        assert problems == []
        assert [row["attrs"] for row in rows] == [ok.attrs]


class TestOkFrac:
    def test_lost_frames_count_as_failures(self):
        statuses = ["bootstrap", "ok", "lost", "ok", "lost"]
        failed = stats.stream_failures(statuses)
        assert failed == 2
        assert stats.ok_frac(len(statuses), failed) == pytest.approx(0.6)

    def test_drops_and_crashed_backlog_count_as_failures(self):
        # 10 offered, 7 processed: 2 dropped + 1 lost to a crash.
        assert stats.serve_failures(offered=10, processed=7) == 3
        assert stats.ok_frac(10, 3) == pytest.approx(0.7)

    def test_job_errors_count_algorithmic_failures_do_not(self):
        errors = [None, "worker crashed (exit code -9)", None, None]
        assert stats.dse_failures(errors) == 1
        assert stats.ok_frac(4, 1) == pytest.approx(0.75)

    def test_rejects_impossible_counts(self):
        with pytest.raises(ValueError):
            stats.ok_frac(0, 0)
        with pytest.raises(ValueError):
            stats.ok_frac(3, 4)
        with pytest.raises(ValueError):
            stats.serve_failures(offered=3, processed=4)


class TestOpenLoopLatency:
    def test_includes_the_generators_lag(self):
        due = [0.0, 1.0]
        lag = [0.0, 0.3]           # second request sent 0.3 s late
        service = 0.1
        done = [d + g + service for d, g in zip(due, lag)]
        latency = stats.open_loop_latency_s(due, done)
        assert latency[0] == pytest.approx(0.1)
        assert latency[1] == pytest.approx(0.4)  # not the 0.1 after sending

    def test_rejects_completion_before_due(self):
        with pytest.raises(ValueError):
            stats.open_loop_latency_s([1.0], [0.5])
        with pytest.raises(ValueError):
            stats.open_loop_latency_s([1.0, 2.0], [1.5])


class TestJobsOverhead:
    def test_split_of_pool_capacity(self):
        # 2 workers x 2 s of batches = 4 worker-seconds, 3 spent evaluating.
        assert stats.jobs_overhead_frac([1.0, 2.0], [2.0], 2) == 0.25

    def test_fully_busy_pool_has_no_overhead(self):
        assert stats.jobs_overhead_frac([1.0, 1.0], [1.0], 2) == 0.0

    def test_serial_pool(self):
        assert stats.jobs_overhead_frac([0.9], [1.0], 1) == pytest.approx(0.1)

    def test_rejects_empty_wall(self):
        with pytest.raises(ValueError):
            stats.jobs_overhead_frac([1.0], [], 2)


class TestTracerOverhead:
    def test_median_of_per_frame_ratios(self):
        untraced = [1.0, 2.0, 4.0]
        traced = [1.1, 2.2, 40.0]   # one frame hit by a stall
        assert stats.paired_overhead_frac(untraced, traced) == \
            pytest.approx(0.1)

    def test_unpaired_untraced_frames_are_ignored(self):
        assert stats.paired_overhead_frac([1.0, 1.0, 9.0], [1.0, 1.0]) == 0.0

    def test_rejects_nothing_to_compare(self):
        with pytest.raises(ValueError):
            stats.paired_overhead_frac([], [1.0])
