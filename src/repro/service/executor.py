"""Concurrent batch execution of ranking jobs.

:class:`BatchExecutor` drives many independent :class:`RankingJob`\\ s
through the inference pipeline, with:

* **caching** — each job is fingerprinted
  (:func:`~repro.service.cache.fingerprint_job`, unless the caller
  passes the key it already computed) and looked up before any work
  happens; results of seeded jobs are stored back.  A result is
  encoded once (:class:`~repro.io.EncodedResult`): the cache entry,
  its spill file and the caller's response all reuse that encoding,
  and a hit's result is decoded only if a caller reads it.  The job's
  extras (a scenario job's ``accuracy``) are cached with it;
* **robustness** — a per-job wall-clock timeout, bounded
  exponential-backoff retries for transient failures, and full
  isolation: a poisoned job yields a ``FAILED``/``TIMED_OUT``
  :class:`~repro.service.jobs.JobResult` instead of taking the batch
  down;
* **observability** — every decision is counted/timed in a
  :class:`~repro.service.metrics.MetricsRegistry`, including the
  per-step latency breakdown aggregated from each result.

Where a batch's jobs run is selected by the ``backend`` parameter
(see :mod:`repro.workers.backends`):

* ``serial`` — the whole batch degenerates to a sequential in-thread
  loop (the determinism oracle);
* ``thread`` (default) — the jobs fan out over a thread pool, results
  flowing straight into the shared cache and metrics registry; an
  attempt runs inline or, when a budget applies, on a daemon thread
  that is *abandoned* (not killed — Python cannot) when the deadline
  passes;
* ``process`` — the cache misses go to the backend's persistent
  process pool in one ``map``: one contiguous run of jobs per worker
  the executor may use, each run one streamed task that attempts its
  jobs back to back and encodes their results where they ran
  (:meth:`~repro.io.EncodedResult.eager`), while the cache lookups
  and stores stay here.  A job running at its budget has its worker
  genuinely killed and replaced, jobs the run deadline passes before
  they start come back without running, and a crashed worker
  (segfault, ``os._exit``, OOM kill) surfaces as a transient
  :class:`~repro.exceptions.WorkerCrashedError` that the retry loop
  re-runs on a fresh worker instead of hanging the batch.

Per-job seeds keep parallel execution bit-identical to serial
execution on every backend — each attempt builds its own generator
from ``job.seed``, never sharing a stream across jobs.
"""

from __future__ import annotations

import functools
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

from ..config import PipelineConfig
from ..diagnostics import get_logger
from ..exceptions import (
    ConfigurationError,
    ExecutionBackendError,
    ReproError,
    TaskTimeoutError,
)
from ..inference import RankingPipeline
from ..io import EncodedResult
from ..types import InferenceResult
from ..workers import QualityLevel
from ..workers.backends import ExecutionBackend, resolve_backend
from .cache import CacheEntry, ResultCache, fingerprint_job
from .jobs import JobResult, JobStatus, RankingJob, ScenarioSpec
from .metrics import MetricsRegistry
from .retry import RetryExhaustedError, RetryPolicy, call_with_retry

_log = get_logger("service.executor")

#: What one attempt produces: a result, already encoded when it ran on
#: the process pool.
_Attempted = Union[InferenceResult, EncodedResult]


class JobTimeoutError(ReproError):
    """A job attempt exceeded the executor's per-job timeout."""


@dataclass(frozen=True)
class BatchReport:
    """Everything one :meth:`BatchExecutor.run` call produced.

    Attributes
    ----------
    results:
        One :class:`JobResult` per submitted job, in submission order.
    metrics:
        The metrics registry snapshot taken after the batch drained.
    """

    results: Tuple[JobResult, ...]
    metrics: Dict[str, object] = field(default_factory=dict)

    @property
    def succeeded(self) -> List[JobResult]:
        """Results that produced a ranking (including cache hits)."""
        return [r for r in self.results if r.status is JobStatus.SUCCEEDED]

    @property
    def failed(self) -> List[JobResult]:
        """Results that failed terminally (excluding timeouts)."""
        return [r for r in self.results if r.status is JobStatus.FAILED]

    @property
    def timed_out(self) -> List[JobResult]:
        """Results abandoned at the per-job deadline."""
        return [r for r in self.results if r.status is JobStatus.TIMED_OUT]

    @property
    def ok(self) -> bool:
        """True iff every job succeeded."""
        return len(self.succeeded) == len(self.results)

    def by_id(self, job_id: str) -> JobResult:
        """The result for ``job_id`` (raises ``KeyError`` if absent)."""
        for result in self.results:
            if result.job_id == job_id:
                return result
        raise KeyError(job_id)


class BatchExecutor:
    """Run batches of ranking jobs concurrently with cache + retries.

    Parameters
    ----------
    workers:
        How many jobs run at once: threads on the thread backend, runs
        of jobs on the process backend (no more than the pool is wide).
        1 degenerates to serial execution (still with cache, retries
        and timeouts) — useful as the determinism oracle.
    cache:
        Result cache; ``None`` disables caching entirely.
    retry:
        Transient-failure schedule (defaults to :class:`RetryPolicy`'s
        defaults; pass :data:`~repro.service.retry.NO_RETRY` to disable).
    timeout:
        Per-job wall-clock seconds budget covering *each attempt*
        individually; ``None`` means unbounded.  Timed-out jobs are not
        retried — with the same seed they would time out again.
    deadline:
        Absolute :func:`time.monotonic` instant after which no further
        work is started: attempts are bounded by the time remaining,
        retry backoff never sleeps past it, and jobs reaching it come
        back ``TIMED_OUT``.  Unlike ``timeout`` this is one budget for
        the whole run — attempts, retries and queued jobs all draw from
        it — which is what a per-request deadline maps onto.
    metrics:
        Registry to record into (a fresh one is created if omitted);
        exposed as :attr:`metrics` and snapshotted into every
        :class:`BatchReport` (unless ``run`` is told not to).
    backend:
        Where each attempt's work runs: ``"serial"``, ``"thread"``,
        ``"process"``, an :class:`~repro.workers.backends.ExecutionBackend`
        instance, or ``None`` to defer to the ``REPRO_BACKEND``
        environment variable (then ``"thread"``).  ``"serial"`` also
        forces the batch itself to run sequentially.  Pass a
        :class:`~repro.workers.backends.ProcessBackend` instance to
        share one pool across executors, as the server does.  Note the
        ``process`` backend executes the canonical attempt body
        (:func:`_attempt_job`) in the child, so instance-level
        ``_attempt`` overrides only take effect on the serial/thread
        paths.
    """

    def __init__(
        self,
        workers: int = 1,
        *,
        cache: Optional[ResultCache] = None,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
        deadline: Optional[float] = None,
        metrics: Optional[MetricsRegistry] = None,
        backend: Union[None, str, ExecutionBackend] = None,
    ):
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        if timeout is not None and timeout <= 0:
            raise ConfigurationError("timeout must be positive or None")
        self._workers = workers
        self._cache = cache
        self._retry = retry or RetryPolicy()
        self._timeout = timeout
        self._deadline = deadline
        self._metrics = metrics or MetricsRegistry()
        self._backend = resolve_backend(backend)

    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend attempts run on."""
        return self._backend

    @property
    def metrics(self) -> MetricsRegistry:
        """The live metrics registry (shared across ``run`` calls)."""
        return self._metrics

    @property
    def cache(self) -> Optional[ResultCache]:
        """The result cache, if caching is enabled."""
        return self._cache

    def run(self, jobs: Iterable[RankingJob],
            keys: Optional[Sequence[Optional[str]]] = None, *,
            snapshot: bool = True) -> BatchReport:
        """Execute every job; never raises for individual job failures.

        Results come back in submission order regardless of completion
        order.  Every job the cache holds when the batch starts is
        answered first (:meth:`_answer_cached`), so no job's result can
        evict it first; the rest run.  Duplicate jobs within one batch
        are executed independently (later ones typically hit the cache
        warmed by the first to finish).  ``keys`` optionally holds each
        job's cache key, :func:`~repro.service.cache.fingerprint_job`
        computed by the caller (the server computes it where it decoded
        the job); a ``None`` entry is fingerprinted here.  With
        ``snapshot`` false the report's ``metrics`` stay empty, for a
        caller that does not read them.
        """
        job_list = list(jobs)
        key_list = [None] * len(job_list) if keys is None else list(keys)
        if len(key_list) != len(job_list):
            raise ConfigurationError(
                f"{len(key_list)} cache keys for {len(job_list)} jobs"
            )
        _log.info("batch start: %d jobs, %d workers", len(job_list),
                  self._workers)
        batch_start = time.perf_counter()
        if not job_list:
            return BatchReport(
                results=(),
                metrics=self._metrics.snapshot() if snapshot else {},
            )
        results: List[Optional[JobResult]] = [None] * len(job_list)
        if self._cache is None:
            key_list = [None] * len(job_list)
            missed = set(range(len(job_list)))
        else:
            missed = self._answer_cached(job_list, key_list, results)
        pending = [i for i, result in enumerate(results) if result is None]
        if self._backend.name == "process":
            self._run_on_pool(job_list, key_list, missed, results)
        else:
            def execute(index: int) -> JobResult:
                if index in missed:
                    return self._run_miss(job_list[index], key_list[index],
                                          time.perf_counter())
                return self._execute(job_list[index], key_list[index])

            if self._workers == 1 or self._backend.name == "serial":
                outcomes = list(map(execute, pending))
            else:
                with ThreadPoolExecutor(max_workers=self._workers) as pool:
                    outcomes = list(pool.map(execute, pending))
            for index, outcome in zip(pending, outcomes):
                results[index] = outcome
        self._metrics.observe("batch.seconds",
                              time.perf_counter() - batch_start)
        report = BatchReport(
            results=tuple(results),
            metrics=self._metrics.snapshot() if snapshot else {},
        )
        _log.info(
            "batch done: %d succeeded, %d failed, %d timed out",
            len(report.succeeded), len(report.failed),
            len(report.timed_out),
        )
        return report

    def _run_on_pool(self, jobs: List[RankingJob], keys: List[Optional[str]],
                     missed: Set[int],
                     results: List[Optional[JobResult]]) -> None:
        """Fill ``results`` on the process backend: the ``missed`` jobs'
        first attempts run in one :meth:`_attempt_on_pool` call, then
        each goes through the retry loop with that attempt as its first;
        the other unanswered jobs (a duplicate key, a failed lookup) run
        after them one by one, so a duplicate finds its twin's result
        in the cache."""
        start = time.perf_counter()
        runs = sorted(missed)
        firsts = self._attempt_on_pool([jobs[index] for index in runs])
        for index, first in zip(runs, firsts):
            results[index] = self._run_miss(jobs[index], keys[index], start,
                                            first)
        for index, result in enumerate(results):
            if result is None:
                results[index] = self._execute(jobs[index], keys[index])

    def _answer_cached(self, jobs: List[RankingJob],
                       keys: List[Optional[str]],
                       results: List[Optional[JobResult]]) -> Set[int]:
        """Answer, in order, every job the cache holds as the batch
        starts, before any job runs: run concurrently, a miss's stored
        result could evict a sibling's entry before the sibling's own
        lookup.  Fills ``keys`` (fingerprinting where ``None``) and
        ``results`` for the hits; returns the indices that missed,
        which run without a second lookup.  A key seen earlier in the
        batch is not looked up here but by :meth:`_execute`, so a
        duplicate can still be answered by its twin's result; so is a
        job whose fingerprint or lookup fails, which :meth:`_execute`
        reports."""
        seen = set()
        missed = set()
        for index, job in enumerate(jobs):
            start = time.perf_counter()
            try:
                key = keys[index]
                if key is None:
                    key = keys[index] = fingerprint_job(job)
                if key in seen:
                    continue
                entry = self._cache.get_entry(key)
            except Exception:  # noqa: BLE001 — reported by _execute
                continue
            seen.add(key)
            if entry is None:
                missed.add(index)
            else:
                _log.debug("job %s: served from cache", job.job_id)
                results[index] = serve_cache_hit(self._metrics, job.job_id,
                                                 entry, start)
        return missed

    # -- one job ------------------------------------------------------------

    def _execute(self, job: RankingJob, key: Optional[str]) -> JobResult:
        """Run one job end to end, answering it from the cache when that
        holds ``key``; converts every failure into a result."""
        start = time.perf_counter()
        try:
            if self._cache is None:
                key = None
            elif key is None:
                key = fingerprint_job(job)
            if key is not None:
                cached = self._cache.get_entry(key)
                if cached is not None:
                    _log.debug("job %s: served from cache", job.job_id)
                    return serve_cache_hit(self._metrics, job.job_id, cached,
                                           start)
        except Exception as error:  # noqa: BLE001 — isolation boundary
            outcome = _unexpected_failure(job, error, start)
            record_job(self._metrics, outcome)
            return outcome
        return self._run_miss(job, key, start)

    def _run_miss(self, job: RankingJob, key: Optional[str],
                  start: float, first: object = None) -> JobResult:
        """Run a job the cache did not answer (``key`` ``None``: no
        cache; ``first``: see :meth:`_run_job`); converts every failure
        into a result."""
        try:
            if key is not None:
                self._metrics.increment("cache.misses")
            outcome = self._run_job(job, key, start, first)
        except Exception as error:  # noqa: BLE001 — isolation boundary
            outcome = _unexpected_failure(job, error, start)
        record_job(self._metrics, outcome)
        return outcome

    def _run_job(self, job: RankingJob, key: Optional[str],
                 start: float, first: object = None) -> JobResult:
        """Run a job the cache did not answer, storing a success under
        ``key`` (``None``: no cache).  ``first`` is the outcome of an
        attempt already made (its value, or the exception it raised),
        which counts as attempt 1; ``None``: none was."""
        attempt_count = [0]

        def one_attempt() -> Tuple[_Attempted, Dict[str, object]]:
            attempt_count[0] += 1
            if attempt_count[0] == 1 and first is not None:
                return _value(first)
            return self._run_with_timeout(job)

        try:
            retried = call_with_retry(
                one_attempt, self._retry, label=f"job {job.job_id}",
                sleep=self._backoff_sleep,
            )
        except JobTimeoutError as error:
            _log.warning("job %s: %s", job.job_id, error)
            return JobResult(
                job_id=job.job_id,
                status=JobStatus.TIMED_OUT,
                error=f"{type(error).__name__}: {error}",
                attempts=attempt_count[0],
                seconds=time.perf_counter() - start,
            )
        except RetryExhaustedError as error:
            cause = error.__cause__
            detail = (f"{type(cause).__name__}: {cause}" if cause is not None
                      else str(error))
            _log.warning("job %s: retries exhausted (%s)", job.job_id, detail)
            return JobResult(
                job_id=job.job_id,
                status=JobStatus.FAILED,
                error=detail,
                attempts=attempt_count[0],
                seconds=time.perf_counter() - start,
            )
        except Exception as error:  # noqa: BLE001 — deterministic failure
            _log.warning("job %s: failed (%s: %s)", job.job_id,
                         type(error).__name__, error)
            return JobResult(
                job_id=job.job_id,
                status=JobStatus.FAILED,
                error=f"{type(error).__name__}: {error}",
                attempts=attempt_count[0],
                seconds=time.perf_counter() - start,
            )

        result, extras = retried.value
        if retried.attempts > 1:
            self._metrics.increment("retry.recovered")
        encoded = result if isinstance(result, EncodedResult) \
            else EncodedResult(result)
        if key is not None:
            self._cache.put(key, encoded, extras)
        return JobResult(
            job_id=job.job_id,
            status=JobStatus.SUCCEEDED,
            result=encoded,
            attempts=retried.attempts,
            seconds=time.perf_counter() - start,
            extras=extras,
        )

    def _backoff_sleep(self, delay: float) -> None:
        """Retry backoff that never sleeps past the run deadline."""
        if self._deadline is not None:
            delay = min(delay, max(0.0, self._deadline - time.monotonic()))
        if delay > 0:
            time.sleep(delay)

    # -- one attempt --------------------------------------------------------

    def _attempt_budget(self) -> Optional[float]:
        """Wall-clock seconds the next attempt may use.

        The smaller of the per-attempt ``timeout`` and the time left
        until the absolute ``deadline``; ``None`` when both are
        unbounded.  Raises :class:`JobTimeoutError` once the deadline
        has already passed — queued jobs and post-backoff retries give
        up here instead of starting doomed work.
        """
        budget = self._timeout
        if self._deadline is not None:
            remaining = self._deadline - time.monotonic()
            if remaining <= 0:
                raise JobTimeoutError("run deadline exhausted before attempt")
            budget = remaining if budget is None else min(budget, remaining)
        return budget

    def _run_with_timeout(
        self, job: RankingJob
    ) -> Tuple[_Attempted, Dict[str, object]]:
        """One attempt, bounded by the per-job timeout / run deadline.

        On the process backend the attempt is a run of one job
        (:meth:`_attempt_on_pool`).  On the serial/thread paths a
        budgeted attempt runs on a daemon thread; if it outlives its
        budget it is abandoned and :class:`JobTimeoutError` is raised
        (the stray thread cannot poison later jobs — it shares no
        mutable state with them).
        """
        if self._backend.name == "process":
            (outcome,) = self._attempt_on_pool([job])
            return _value(outcome)
        budget = self._attempt_budget()
        if budget is None:
            return self._attempt(job)
        box: List[Tuple[str, object]] = []

        def target() -> None:
            try:
                box.append(("ok", self._attempt(job)))
            except BaseException as error:  # noqa: BLE001 — re-raised below
                box.append(("err", error))

        thread = threading.Thread(
            target=target, daemon=True,
            name=f"repro-job-{job.job_id}",
        )
        thread.start()
        thread.join(budget)
        if thread.is_alive():
            raise JobTimeoutError(
                f"attempt exceeded {budget:g}s (abandoned)"
            )
        kind, payload = box[0]
        if kind == "err":
            raise payload  # type: ignore[misc]
        return payload  # type: ignore[return-value]

    def _attempt_on_pool(self, jobs: List[RankingJob]) -> List[object]:
        """The outcome of one attempt of each job on the process pool:
        its value, the result encoded where it ran, or the exception it
        raised.

        One ``map`` runs the jobs as contiguous runs, one per worker (at
        most ``workers``), each attempt bounded by ``timeout`` from its
        own start and by the run ``deadline``.  :func:`_attempt_job`
        goes as this module holds it at call time, pickled by reference.
        A killed attempt, or one the deadline passed before it started,
        comes back as :class:`JobTimeoutError`; a worker death as
        :class:`~repro.exceptions.WorkerCrashedError`, which the default
        retry classifier treats as transient (the crash may be
        environmental, and a fresh worker gets a clean chance).
        """
        try:
            outcomes = self._backend.map(
                functools.partial(_encoded_attempt, _attempt_job), jobs,
                max_workers=self._workers, timeout=self._timeout,
                deadline=self._deadline, return_exceptions=True,
            )
        except ExecutionBackendError as error:  # the pool closed
            return [error] * len(jobs)
        # Killed at the budget, not started by the deadline or no pool
        # worker free in time; the cause says which.
        return [JobTimeoutError(f"attempt timed out: {outcome}")
                if isinstance(outcome, TaskTimeoutError) else outcome
                for outcome in outcomes]

    def _attempt(
        self, job: RankingJob
    ) -> Tuple[InferenceResult, Dict[str, object]]:
        """Execute the job's actual work once (the monkeypatchable seam).

        Serial/thread attempts flow through this method, so tests can
        replace it per instance; process attempts pickle the
        module-level :func:`_attempt_job` into the worker instead (a
        bound method would drag the executor's locks along).
        """
        return _attempt_job(job)

    @staticmethod
    def _run_scenario(
        job: RankingJob, spec: ScenarioSpec, rng: np.random.Generator
    ) -> Tuple[InferenceResult, Dict[str, object]]:
        # Imported lazily: session pulls in the platform simulator, which
        # pure votes-only deployments never need.
        from ..datasets import make_scenario
        from ..session import rank_with_crowd

        scenario = make_scenario(
            spec.n_objects,
            spec.selection_ratio,
            n_workers=spec.n_workers,
            workers_per_task=spec.workers_per_task,
            quality=spec.quality,
            level=QualityLevel(spec.level),
            rng=rng,
        )
        outcome = rank_with_crowd(
            scenario.ground_truth,
            scenario.pool,
            selection_ratio=spec.selection_ratio,
            workers_per_task=spec.workers_per_task,
            config=job.config,
            rng=rng,
        )
        return outcome.result, {"accuracy": outcome.accuracy}


def record_job(metrics: MetricsRegistry, outcome: JobResult) -> None:
    """Count one finished job into ``metrics``: ``jobs.<status>``,
    ``jobs.total``, retries, ``job.seconds`` and a computed result's
    step times."""
    metrics.increment(f"jobs.{outcome.status.value}")
    metrics.increment("jobs.total")
    if outcome.attempts > 1:
        metrics.increment("retry.attempts", outcome.attempts - 1)
    metrics.observe("job.seconds", outcome.seconds)
    # from_cache first: reading a hit's result would decode it.
    if not outcome.from_cache and outcome.result is not None:
        metrics.observe_steps(outcome.result.step_seconds)


def _unexpected_failure(job: RankingJob, error: Exception,
                        start: float) -> JobResult:
    """The failed outcome of an orchestration error, which still never
    escapes :class:`BatchExecutor`."""
    _log.exception("job %s: unexpected executor error", job.job_id)
    return JobResult(
        job_id=job.job_id,
        status=JobStatus.FAILED,
        error=f"{type(error).__name__}: {error}",
        attempts=1,
        seconds=time.perf_counter() - start,
    )


def serve_cache_hit(metrics: MetricsRegistry, job_id: str,
                    entry: CacheEntry, start: float) -> JobResult:
    """The outcome of job ``job_id`` answered by cache ``entry``, counted
    as a cache hit and a finished job (``start``: when the job began,
    a :func:`time.perf_counter` instant).

    The one cache-hit implementation: :class:`BatchExecutor` calls it
    for a key it looked up, the server's request memo for the keys of a
    body it has answered before.
    """
    metrics.increment("cache.hits")
    outcome = JobResult(
        job_id=job_id,
        status=JobStatus.SUCCEEDED,
        result=entry.encoded,
        attempts=0,
        from_cache=True,
        seconds=time.perf_counter() - start,
        extras=entry.extras,
    )
    record_job(metrics, outcome)
    return outcome


def _attempt_job(
    job: RankingJob,
) -> Tuple[InferenceResult, Dict[str, object]]:
    """The canonical attempt body: run one job's work once.

    Module-level (hence picklable by reference) so the process backend
    can ship it to a worker.  Votes jobs run the Steps 1-4 pipeline
    directly; scenario jobs simulate the whole non-interactive round
    first and additionally report the accuracy against the scenario's
    latent ground truth.
    """
    rng = np.random.default_rng(job.seed)
    if job.votes is not None:
        pipeline = RankingPipeline(job.config)
        return pipeline.run(job.votes, rng), {}
    return BatchExecutor._run_scenario(job, job.scenario, rng)


def _value(outcome: object) -> object:
    """An attempt's value, or the exception it raised raised again."""
    if isinstance(outcome, BaseException):
        raise outcome
    return outcome


def _encoded_attempt(
    attempt: Callable[[RankingJob], Tuple[InferenceResult, Dict[str, object]]],
    job: RankingJob,
) -> Tuple[EncodedResult, Dict[str, object]]:
    """``attempt(job)`` with its result encoded where it ran."""
    result, extras = attempt(job)
    return EncodedResult.eager(result), extras


def run_batch(
    jobs: Iterable[RankingJob],
    *,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
    retry: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    deadline: Optional[float] = None,
    backend: Union[None, str, ExecutionBackend] = None,
) -> BatchReport:
    """One-call convenience: build a :class:`BatchExecutor` and run."""
    executor = BatchExecutor(
        workers, cache=cache, retry=retry, timeout=timeout,
        deadline=deadline, backend=backend,
    )
    return executor.run(jobs)
