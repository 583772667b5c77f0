"""Tests for the parallel evaluation engine (repro.jobs, S16)."""

import json
import os
import time as _time  # noqa — only used inside worker-process job bodies

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import icl_nuim
from repro.errors import JobError, OptimizationError
from repro.hypermapper import (
    HyperMapper,
    MeasuredEvaluator,
    SurrogateEvaluator,
    kfusion_design_space,
    random_exploration,
)
from repro.hypermapper.evaluator import Evaluation
from repro.jobs import (
    EvaluationStore,
    JobRunner,
    WorkerPool,
    canonical_config,
    config_hash,
    evaluate_batch,
    worker_id,
    worker_rng,
    worker_shared,
)
from repro.platforms import odroid_xu3
from repro.telemetry import Tracer, use_tracer


# -- module-level job bodies (must be picklable by name) ---------------------

def _square(x):
    return x * x


def _identify(x):
    return (worker_id(), x)


def _draw(_):
    return float(worker_rng().random())


def _use_shared(x):
    return worker_shared() + x


def _crash(_):
    os._exit(13)


def _crash_once(x):
    # Crashes the worker the first time any job runs (flag file absent),
    # then behaves; retries and the rest of the batch must succeed.
    flag = worker_shared()
    try:
        with open(flag, "x"):
            pass
    except FileExistsError:
        return x
    os._exit(7)


def _hang(_):
    _time.sleep(60)


def _raise_value_error(x):
    raise ValueError(f"bad payload {x}")


def _unpicklable_error(_):
    raise RuntimeError(lambda: None)  # noqa: TRY004 — unpicklable detail


# -- hashing -----------------------------------------------------------------

class TestConfigHash:
    def test_order_independent(self):
        a = {"x": 1, "y": 2.5, "z": "mali"}
        b = {"z": "mali", "y": 2.5, "x": 1}
        assert config_hash(a) == config_hash(b)

    def test_numpy_scalars_normalised(self):
        assert config_hash({"x": np.int64(3)}) == config_hash({"x": 3})
        assert config_hash({"x": np.float64(3.5)}) == config_hash({"x": 3.5})

    def test_integral_float_equals_int(self):
        # Design-space sampling yields 256.0 where the default dict says
        # 256; those are the same configuration.
        assert config_hash({"v": 256.0}) == config_hash({"v": 256})

    def test_bool_distinct_from_int(self):
        assert config_hash({"flag": True}) != config_hash({"flag": 1})

    def test_distinct_configs_distinct_hashes(self):
        assert config_hash({"x": 1}) != config_hash({"x": 2})
        assert config_hash({"x": 1}) != config_hash({"y": 1})

    def test_canonical_config_sorted(self):
        assert list(canonical_config({"b": 1, "a": 2})) == ["a", "b"]

    def test_unhashable_value_rejected(self):
        with pytest.raises(JobError):
            config_hash({"x": object()})


# -- Evaluation serialisation ------------------------------------------------

_EXTRAS = st.dictionaries(
    st.text(min_size=1, max_size=8),
    st.one_of(st.integers(-100, 100), st.floats(allow_nan=False),
              st.text(max_size=8), st.booleans()),
    max_size=3,
)

_OBJECTIVE = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.just(float("inf")),
)


class TestEvaluationRoundTrip:
    @given(
        runtime_s=_OBJECTIVE,
        max_ate_m=_OBJECTIVE,
        power_w=_OBJECTIVE,
        fps=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
        tracked_fraction=st.floats(min_value=0.0, max_value=1.0,
                                   allow_nan=False),
        failed=st.booleans(),
        extras=_EXTRAS,
        vres=st.sampled_from([64, 128, 256, 512]),
    )
    @settings(max_examples=60, deadline=None)
    def test_to_dict_from_dict_identity(self, runtime_s, max_ate_m, power_w,
                                        fps, tracked_fraction, failed,
                                        extras, vres):
        ev = Evaluation(
            configuration={"volume_resolution": vres, "mu": 0.1},
            runtime_s=runtime_s,
            max_ate_m=max_ate_m,
            power_w=power_w,
            fps=fps,
            tracked_fraction=tracked_fraction,
            failed=failed,
            extras=extras,
        )
        back = Evaluation.from_dict(ev.to_dict())
        assert back == ev

    @given(
        runtime_s=_OBJECTIVE,
        failed=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_json_round_trip(self, runtime_s, failed):
        # The store writes to_dict() through json; Infinity must survive.
        ev = Evaluation(configuration={"a": 1}, runtime_s=runtime_s,
                        max_ate_m=0.03, power_w=2.0, failed=failed)
        back = Evaluation.from_dict(json.loads(json.dumps(ev.to_dict())))
        assert back == ev

    def test_missing_field_rejected(self):
        data = Evaluation(configuration={}, runtime_s=1, max_ate_m=1,
                          power_w=1).to_dict()
        del data["power_w"]
        with pytest.raises(OptimizationError):
            Evaluation.from_dict(data)

    def test_unknown_field_rejected(self):
        data = Evaluation(configuration={}, runtime_s=1, max_ate_m=1,
                          power_w=1).to_dict()
        data["surprise"] = 1
        with pytest.raises(OptimizationError):
            Evaluation.from_dict(data)


# -- evaluation store --------------------------------------------------------

def _make_eval(i: int) -> Evaluation:
    return Evaluation(configuration={"volume_resolution": 64 * (i + 1)},
                      runtime_s=0.1 * (i + 1), max_ate_m=0.01, power_w=2.0)


class TestEvaluationStore:
    def test_put_get_round_trip(self, tmp_path):
        with EvaluationStore.open(tmp_path / "s.jsonl") as store:
            ev = _make_eval(0)
            store.put(ev)
            assert store.get(ev.configuration) == ev
            assert store.get({"volume_resolution": 999}) is None
            assert store.hits == 1 and store.misses == 1
            assert ev.configuration in store and len(store) == 1

    def test_reload_preserves_records(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with EvaluationStore.open(path) as store:
            for i in range(3):
                store.put(_make_eval(i))
        with EvaluationStore.open(path, resume=True) as store:
            assert len(store) == 3
            assert store.get(_make_eval(1).configuration) == _make_eval(1)

    def test_refuses_existing_without_resume(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with EvaluationStore.open(path) as store:
            store.put(_make_eval(0))
        with pytest.raises(JobError, match="--resume"):
            EvaluationStore.open(path, resume=False)

    def test_context_mismatch_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        EvaluationStore.open(path, context={"sequence": "lr_kt0"}).close()
        with pytest.raises(JobError, match="different evaluator context"):
            EvaluationStore.open(path, context={"sequence": "lr_kt1"})

    def test_matching_context_accepted(self, tmp_path):
        path = tmp_path / "s.jsonl"
        ctx = {"sequence": "lr_kt0", "seed": 0}
        with EvaluationStore.open(path, context=ctx) as store:
            store.put(_make_eval(0))
        with EvaluationStore.open(path, context=ctx, resume=True) as store:
            assert len(store) == 1

    def test_torn_final_line_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        with EvaluationStore.open(path) as store:
            store.put(_make_eval(0))
        with open(path, "a") as f:
            f.write('{"key": "abc", "evaluation": {"runt')  # killed mid-write
        with EvaluationStore.open(path, resume=True) as store:
            assert len(store) == 1
            assert store.corrupt_lines == 1

    def test_duplicate_key_last_wins(self, tmp_path):
        path = tmp_path / "s.jsonl"
        first = _make_eval(0)
        second = Evaluation(configuration=first.configuration,
                            runtime_s=9.9, max_ate_m=0.5, power_w=5.0)
        with EvaluationStore.open(path) as store:
            store.put(first)
            store.put(second)
        with EvaluationStore.open(path, resume=True) as store:
            assert store.get(first.configuration) == second

    def test_non_store_file_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"not": "a store"}\n')
        with pytest.raises(JobError, match="not an evaluation store"):
            EvaluationStore.open(path, resume=True)

    def test_counts_into_tracer(self, tmp_path):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            with EvaluationStore.open(tmp_path / "s.jsonl") as store:
                store.put(_make_eval(0))
                store.get(_make_eval(0).configuration)
                store.get({"volume_resolution": 999})
        assert tracer.counters["dse.cache_hits"] == 1
        assert tracer.counters["dse.cache_misses"] == 1


# -- worker pool -------------------------------------------------------------

class TestWorkerPoolSerial:
    def test_workers_1_is_serial(self):
        with WorkerPool(workers=1) as pool:
            assert not pool.parallel
            assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_serial_exception_captured(self):
        with WorkerPool(workers=1) as pool:
            outcomes = pool.run(_raise_value_error, [1])
            assert not outcomes[0].ok
            assert "ValueError" in outcomes[0].error

    def test_serial_shared_and_identity(self):
        with WorkerPool(workers=1) as pool:
            assert pool.map(_use_shared, [1, 2], shared=10) == [11, 12]
            assert pool.map(_identify, ["a"]) == [(0, "a")]

    def test_invalid_arguments(self):
        with pytest.raises(JobError):
            WorkerPool(workers=0)
        with pytest.raises(JobError):
            WorkerPool(timeout_s=0)
        with pytest.raises(JobError):
            WorkerPool(max_retries=-1)

    def test_worker_accessors_outside_job(self):
        with pytest.raises(JobError):
            worker_rng()
        assert worker_shared() is None
        assert worker_id() is None


class TestWorkerPoolParallel:
    def test_map_ordered(self):
        with WorkerPool(workers=3) as pool:
            assert pool.parallel
            assert pool.map(_square, list(range(10))) == [
                x * x for x in range(10)
            ]

    def test_shared_broadcast(self):
        with WorkerPool(workers=2) as pool:
            assert pool.map(_use_shared, [1, 2, 3], shared=100) == [
                101, 102, 103
            ]

    def test_pool_reusable_across_batches(self):
        with WorkerPool(workers=2) as pool:
            assert pool.map(_square, [1, 2]) == [1, 4]
            assert pool.map(_use_shared, [1], shared=5) == [6]
            assert pool.map(_square, [3]) == [9]

    def test_distinct_rng_streams(self):
        with WorkerPool(workers=3) as pool:
            draws = pool.map(_draw, range(12))
        assert len(set(draws)) > 1  # not one shared stream

    def test_crash_retries_then_fails(self):
        with WorkerPool(workers=2, max_retries=1) as pool:
            outcomes = pool.run(_crash, [0])
            assert not outcomes[0].ok
            assert "crashed" in outcomes[0].error
            assert outcomes[0].attempts == 2  # initial + 1 retry

    def test_crash_then_recovery(self, tmp_path):
        flag = str(tmp_path / "crashed.flag")
        with WorkerPool(workers=2, max_retries=2) as pool:
            outcomes = pool.run(_crash_once, [1, 2, 3, 4], shared=flag)
            assert all(o.ok for o in outcomes)
            assert [o.value for o in outcomes] == [1, 2, 3, 4]

    def test_pool_survives_crash_for_later_batches(self):
        with WorkerPool(workers=2, max_retries=0) as pool:
            assert not pool.run(_crash, [0])[0].ok
            assert pool.map(_square, [5]) == [25]

    def test_timeout_enforced(self):
        with WorkerPool(workers=2, timeout_s=0.5, max_retries=0) as pool:
            outcomes = pool.run(_hang, [0])
            assert not outcomes[0].ok
            assert "timeout" in outcomes[0].error

    def test_fn_exception_no_retry(self):
        with WorkerPool(workers=2, max_retries=2) as pool:
            outcomes = pool.run(_raise_value_error, [7])
            assert not outcomes[0].ok
            assert "ValueError" in outcomes[0].error
            assert outcomes[0].attempts == 1  # deterministic: not retried

    def test_unpicklable_error_detail(self):
        with WorkerPool(workers=2) as pool:
            outcomes = pool.run(_unpicklable_error, [0])
            assert not outcomes[0].ok
            assert "RuntimeError" in outcomes[0].error

    def test_map_raises_on_failure(self):
        with WorkerPool(workers=2, max_retries=0) as pool:
            with pytest.raises(JobError, match="jobs failed"):
                pool.map(_crash, [0, 1])

    def test_spawn_start_method(self):
        with WorkerPool(workers=2, start_method="spawn") as pool:
            assert pool.map(_square, [2, 3]) == [4, 9]

    def test_unknown_start_method_rejected(self):
        with pytest.raises(JobError, match="unavailable"):
            WorkerPool(workers=2, start_method="wormhole")

    def test_telemetry_merged_from_workers(self):
        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            with WorkerPool(workers=2) as pool:
                pool.map(_square, [1, 2, 3, 4])
        job_spans = [s for s in tracer.spans if s.name == "jobs.job"]
        assert len(job_spans) == 4
        assert all("worker" in s.attrs for s in job_spans)
        assert any(s.name == "jobs.batch" for s in tracer.spans)

    def test_progress_callback(self):
        seen = []
        with WorkerPool(workers=2) as pool:
            pool.run(_square, [1, 2, 3],
                     progress=lambda done, total: seen.append((done, total)))
        assert seen[-1] == (3, 3)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)


# -- runner + store + optimizer integration ---------------------------------

class TestJobRunner:
    def test_evaluate_matches_direct(self):
        ev = SurrogateEvaluator()
        space = kfusion_design_space()
        configs = space.sample_many(5, np.random.default_rng(0))
        direct = [SurrogateEvaluator().evaluate(c) for c in configs]
        with JobRunner(workers=2) as runner:
            pooled = runner.evaluate(ev, configs)
        assert [e.to_dict() for e in pooled] == [e.to_dict() for e in direct]

    def test_store_memoization(self, tmp_path):
        ev = SurrogateEvaluator()
        space = kfusion_design_space()
        configs = space.sample_many(6, np.random.default_rng(1))
        store = EvaluationStore.open(tmp_path / "s.jsonl",
                                     context=ev.fingerprint())
        with JobRunner(workers=2, store=store) as runner:
            first = runner.evaluate(ev, configs)
            assert store.hits == 0 and len(store) == 6
            second = runner.evaluate(ev, configs)
            assert store.hits == 6
        store.close()
        assert [e.to_dict() for e in first] == [e.to_dict() for e in second]

    def test_failed_jobs_become_failed_evaluations(self):
        with JobRunner(workers=2, max_retries=0) as runner:
            outcomes = runner.run(_crash, [0])
            assert not outcomes[0].ok

    def test_evaluate_batch_one_shot(self):
        space = kfusion_design_space()
        configs = space.sample_many(3, np.random.default_rng(2))
        results = evaluate_batch(SurrogateEvaluator(), configs, workers=2)
        assert len(results) == 3
        assert all(isinstance(r, Evaluation) for r in results)

    def test_evaluate_batch_rejects_bad_workers(self):
        with pytest.raises(JobError):
            evaluate_batch(SurrogateEvaluator(), [], workers=0)

    # -- configuration chunking (the fan-out overhead fix) ------------------
    def test_chunk_indices_even_partition(self):
        from repro.jobs.runner import _chunk_indices

        chunks = _chunk_indices(list(range(10)), 4)
        assert [len(c) for c in chunks] == [4, 3, 3]
        assert [i for c in chunks for i in c] == list(range(10))
        assert _chunk_indices([7], 4) == [[7]]
        assert _chunk_indices(list(range(6)), 1) == [[i] for i in range(6)]

    def test_auto_chunks_match_direct(self):
        # 17 misses over 2 workers: auto-chunking packs two per job.
        ev = SurrogateEvaluator()
        space = kfusion_design_space()
        configs = space.sample_many(17, np.random.default_rng(4))
        direct = [SurrogateEvaluator().evaluate(c) for c in configs]
        with JobRunner(workers=2) as runner:
            pooled = runner.evaluate(ev, configs)
        assert [e.to_dict() for e in pooled] == [e.to_dict() for e in direct]

    def test_chunked_store_memoization(self, tmp_path):
        ev = SurrogateEvaluator()
        space = kfusion_design_space()
        configs = space.sample_many(17, np.random.default_rng(5))
        store = EvaluationStore.open(tmp_path / "chunked.jsonl",
                                     context=ev.fingerprint())
        with JobRunner(workers=2, store=store) as runner:
            runner.evaluate(ev, configs)
            assert len(store) == 17
            runner.evaluate(ev, configs)
            assert store.hits == 17
        store.close()

    def test_chunked_progress_reaches_total(self):
        seen = []
        ev = SurrogateEvaluator()
        space = kfusion_design_space()
        configs = space.sample_many(17, np.random.default_rng(6))
        with JobRunner(workers=2,
                       progress=lambda d, t: seen.append((d, t))) as runner:
            runner.evaluate(ev, configs)
        assert seen[-1] == (17, 17)
        assert all(t == 17 and 0 <= d <= 17 for d, t in seen)
        assert [d for d, _ in seen] == sorted(d for d, _ in seen)


class TestGoldenDeterminism:
    """Satellite 3: worker count and resume must not change results."""

    SEED = 11

    def _explore(self, runner=None):
        return HyperMapper(
            kfusion_design_space(),
            SurrogateEvaluator(seed=self.SEED),
            n_initial=6,
            n_iterations=2,
            samples_per_iteration=3,
            candidate_pool=50,
            seed=self.SEED,
            runner=runner,
        ).run()

    def test_workers_1_vs_4_byte_identical(self):
        serial = self._explore()
        with JobRunner(workers=4) as runner:
            parallel = self._explore(runner)
        assert serial.objective_matrix().tobytes() == \
            parallel.objective_matrix().tobytes()
        assert serial.iteration_of == parallel.iteration_of

    def test_random_exploration_workers_identical(self):
        space = kfusion_design_space()
        serial = random_exploration(space, SurrogateEvaluator(), 8, seed=3)
        with JobRunner(workers=4) as runner:
            parallel = random_exploration(space, SurrogateEvaluator(), 8,
                                          seed=3, runner=runner)
        assert serial.objective_matrix().tobytes() == \
            parallel.objective_matrix().tobytes()

    def test_measured_random_exploration_workers_identical(self):
        """The real pipeline, not the surrogate: a 2-worker pool must
        reproduce the serial objective bytes."""
        sequence = icl_nuim.load("lr_kt0", n_frames=3, width=32, height=24,
                                 seed=0)

        def explore(runner=None):
            evaluator = MeasuredEvaluator(sequence, odroid_xu3(), cache=False)
            return random_exploration(kfusion_design_space(), evaluator, 4,
                                      seed=0, runner=runner)

        serial = explore()
        with JobRunner(workers=2) as runner:
            parallel = explore(runner)
        assert not all(e.failed for e in serial.evaluations)
        assert serial.objective_matrix().tobytes() == \
            parallel.objective_matrix().tobytes()

    def test_killed_and_resumed_run_converges(self, tmp_path):
        """A store pre-seeded with half the evaluations (as a killed run
        leaves behind) yields the same result, re-evaluating only the
        rest — verified through dse.cache_hits in the trace."""
        reference = self._explore()
        half = len(reference.evaluations) // 2

        ev = SurrogateEvaluator(seed=self.SEED)
        path = tmp_path / "killed.jsonl"
        with EvaluationStore.open(path, context=ev.fingerprint()) as store:
            for evaluation in reference.evaluations[:half]:
                store.put(evaluation)

        tracer = Tracer(enabled=True)
        with use_tracer(tracer):
            store = EvaluationStore.open(path, context=ev.fingerprint(),
                                         resume=True)
            with JobRunner(workers=2, store=store) as runner:
                resumed = self._explore(runner)
            store.close()

        assert resumed.objective_matrix().tobytes() == \
            reference.objective_matrix().tobytes()
        # Every pre-seeded evaluation was a store hit, not a re-run.
        assert tracer.counters["dse.cache_hits"] >= half
        assert store.hits >= half
