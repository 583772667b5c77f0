"""Batch evaluation on top of the pool + store: the DSE's execution engine.

:class:`JobRunner` is what the exploration loops actually hold: it owns
a (lazily started, reused across rounds) :class:`~repro.jobs.pool.WorkerPool`,
consults the optional :class:`~repro.jobs.store.EvaluationStore` before
spending any compute, persists fresh results as soon as they arrive, and
degrades *job* failures into failed evaluations so a search survives a
flaky worker the same way it survives a diverging configuration.

    runner = JobRunner(workers=4, store=store)
    evaluations = runner.evaluate(evaluator, configurations)

Results are always in input order and independent of worker scheduling,
which is what makes ``workers=1`` and ``workers=N`` byte-identical for
the same seed.
"""

from __future__ import annotations

from typing import Callable, Mapping, Sequence

from ..errors import JobError
from ..hypermapper.evaluator import Evaluation, Evaluator
from ..telemetry import current_tracer
from .pool import JobOutcome, WorkerPool
from .store import EvaluationStore
from .tasks import evaluate_configuration_batch

#: Target jobs per worker when auto-chunking a batch: enough slack for
#: load-balance across uneven evaluation times, few enough jobs that
#: dispatch overhead stays amortised.
_AUTO_JOBS_PER_WORKER = 4


def _chunk_indices(indices: Sequence[int], batch_size: int) -> list[list[int]]:
    """Split ``indices`` into near-equal chunks of at most ``batch_size``.

    Even sizes (differing by at most one) rather than a full tail
    chunk + remainder, so no worker draws a systematically short job.
    """
    n = len(indices)
    n_chunks = -(-n // batch_size)  # ceil
    base, extra = divmod(n, n_chunks)
    chunks, at = [], 0
    for c in range(n_chunks):
        size = base + (1 if c < extra else 0)
        chunks.append(list(indices[at:at + size]))
        at += size
    return chunks


def _failed_evaluation(configuration: Mapping,
                       outcome: JobOutcome) -> Evaluation:
    """A job-level failure, reported the way evaluators report divergence."""
    return Evaluation(
        configuration=dict(configuration),
        runtime_s=float("inf"),
        max_ate_m=float("inf"),
        power_w=float("inf"),
        failed=True,
        extras={"error": outcome.error, "job_attempts": outcome.attempts},
    )


class JobRunner:
    """Submit/gather batches of evaluations (and generic jobs).

    Args:
        workers: worker process count (1 = in-process serial).
        timeout_s: per-job wall-clock budget (see ``WorkerPool``).
        max_retries: requeues after a crash/timeout before giving up.
        seed: pool RNG-tree seed.
        start_method: multiprocessing start method override.
        store: optional evaluation store consulted before, and updated
            after, every batch.
        progress: ``progress(done, total)`` callback per completed job
            (store hits report immediately).
    """

    def __init__(
        self,
        workers: int = 1,
        timeout_s: float | None = None,
        max_retries: int = 2,
        seed: int = 0,
        start_method: str | None = None,
        store: EvaluationStore | None = None,
        progress: Callable[[int, int], None] | None = None,
    ):
        self.pool = WorkerPool(
            workers=workers,
            timeout_s=timeout_s,
            max_retries=max_retries,
            seed=seed,
            start_method=start_method,
        )
        self.store = store
        self.progress = progress

    @property
    def workers(self) -> int:
        return self.pool.workers

    def evaluate(self, evaluator: Evaluator,
                 configurations: Sequence[Mapping]) -> list[Evaluation]:
        """Evaluate a batch of configurations, memoized through the store.

        Store hits cost nothing and count ``dse.cache_hits`` (the same
        counter the in-memory evaluator cache uses); misses are fanned
        out over the pool, persisted on completion, and returned in
        input order.  Jobs that fail at the infrastructure level after
        every retry come back as ``Evaluation(failed=True)`` with the
        error in ``extras`` — they are *not* persisted, so a rerun gets
        another chance at them.

        Misses are chunked: serial pools evaluate one configuration per
        job (chunking buys nothing), parallel pools aim for
        ``_AUTO_JOBS_PER_WORKER`` jobs per worker so dispatch overhead
        (queue round-trips, parent poll latency) is amortised over
        several evaluations while load-balance survives uneven
        runtimes.  Retries and the per-job ``timeout_s`` apply to whole
        chunks: a crashed worker re-runs its chunk, a timeout must
        cover every evaluation of one chunk.
        """
        configurations = [dict(c) for c in configurations]
        n = len(configurations)
        if n == 0:
            return []
        tracer = current_tracer()
        results: list[Evaluation | None] = [None] * n

        missing: list[int] = []
        if self.store is not None:
            for i, config in enumerate(configurations):
                hit = self.store.get(config)
                if hit is not None:
                    results[i] = hit
                else:
                    missing.append(i)
        else:
            missing = list(range(n))

        done_base = n - len(missing)
        if self.progress is not None and done_base:
            self.progress(done_base, n)
        if not missing:
            return results  # type: ignore[return-value]

        batch_size = 1
        if self.pool.parallel:
            per_worker = self.workers * _AUTO_JOBS_PER_WORKER
            batch_size = max(1, len(missing) // per_worker)
        chunks = _chunk_indices(missing, batch_size)

        def chunk_progress(done_jobs: int, total_jobs: int) -> None:
            # Chunk identities are not in the callback, so interpolate:
            # near-equal chunks make this off by at most one chunk, and
            # it lands exactly on n when the last job completes.
            done = done_base + (done_jobs * len(missing)) // total_jobs
            self.progress(done, n)

        with tracer.span("jobs.evaluate_batch", n=n,
                         store_hits=done_base, evaluated=len(missing),
                         batch_size=batch_size, jobs=len(chunks)):
            outcomes = self.pool.run(
                evaluate_configuration_batch,
                [[configurations[i] for i in chunk] for chunk in chunks],
                shared=evaluator,
                progress=None if self.progress is None else chunk_progress,
            )
            for chunk, outcome in zip(chunks, outcomes):
                if outcome.ok:
                    for i, evaluation in zip(chunk, outcome.value):
                        results[i] = evaluation
                        if self.store is not None:
                            self.store.put(evaluation)
                else:
                    tracer.count("jobs.failed_jobs")
                    for i in chunk:
                        results[i] = _failed_evaluation(configurations[i],
                                                        outcome)
        return results  # type: ignore[return-value]

    def map(self, fn: Callable, payloads: Sequence, shared=None) -> list:
        """Generic ordered fan-out; raises :class:`JobError` on failure."""
        return self.pool.map(fn, payloads, shared=shared,
                             progress=self.progress)

    def run(self, fn: Callable, payloads: Sequence,
            shared=None) -> list[JobOutcome]:
        """Generic fan-out returning per-job :class:`JobOutcome`\\ s."""
        return self.pool.run(fn, payloads, shared=shared,
                             progress=self.progress)

    def close(self) -> None:
        self.pool.close()

    def __enter__(self) -> "JobRunner":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def evaluate_batch(
    evaluator: Evaluator,
    configurations: Sequence[Mapping],
    workers: int = 1,
    timeout_s: float | None = None,
    store: EvaluationStore | None = None,
    seed: int = 0,
) -> list[Evaluation]:
    """One-shot convenience: pool up, evaluate, pool down."""
    if workers < 1:
        raise JobError("need workers >= 1")
    with JobRunner(workers=workers, timeout_s=timeout_s, store=store,
                   seed=seed) as runner:
        return runner.evaluate(evaluator, configurations)
