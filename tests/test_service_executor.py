"""Integration tests for the concurrent batch executor.

Covers the subsystem's acceptance bar: a batch of >= 8 jobs with
``workers > 1`` matching serial execution bit-for-bit, a non-zero cache
hit-rate on resubmission, and poisoned / timing-out / flaky jobs never
taking the batch down.
"""

import json
import time

import pytest

from repro.config import PipelineConfig, PropagationConfig, SAPSConfig
from repro.exceptions import ConfigurationError
from repro.service import (
    NO_RETRY,
    BatchExecutor,
    JobStatus,
    MetricsRegistry,
    RankingJob,
    ResultCache,
    RetryPolicy,
    ScenarioSpec,
    TransientJobError,
    fingerprint_job,
    run_batch,
)
from repro.types import VoteSet

QUICK = PipelineConfig(
    saps=SAPSConfig(iterations=500, restarts=1),
    propagation=PropagationConfig(max_hops=4, method="walks"),
)


def scenario_jobs(count, prefix="job"):
    """``count`` small, seeded, fully simulated jobs."""
    return [
        RankingJob(
            job_id=f"{prefix}-{i}",
            scenario=ScenarioSpec(8, 0.6, n_workers=6, workers_per_task=3),
            config=QUICK,
            seed=100 + i,
        )
        for i in range(count)
    ]


class TestValidation:
    def test_worker_count(self):
        with pytest.raises(ConfigurationError):
            BatchExecutor(0)

    def test_timeout_positive(self):
        with pytest.raises(ConfigurationError):
            BatchExecutor(1, timeout=0)


class TestDeterminism:
    def test_parallel_matches_serial(self):
        jobs = scenario_jobs(8)
        serial = BatchExecutor(workers=1).run(jobs)
        parallel = BatchExecutor(workers=4).run(jobs)
        assert serial.ok and parallel.ok
        assert [r.result.ranking for r in serial.results] == \
               [r.result.ranking for r in parallel.results]
        assert [r.extras["accuracy"] for r in serial.results] == \
               [r.extras["accuracy"] for r in parallel.results]

    def test_results_preserve_submission_order(self):
        jobs = scenario_jobs(6)
        report = BatchExecutor(workers=3).run(jobs)
        assert [r.job_id for r in report.results] == \
               [job.job_id for job in jobs]

    def test_votes_job_matches_direct_pipeline(self, tiny_votes):
        from repro.inference import infer_ranking

        job = RankingJob(job_id="v", votes=tiny_votes, config=QUICK, seed=5)
        report = BatchExecutor(workers=2).run([job, job])
        expected = infer_ranking(tiny_votes, QUICK, rng=5)
        for result in report.results:
            assert result.result.ranking == expected.ranking


class TestCaching:
    def test_resubmission_hits_cache(self):
        jobs = scenario_jobs(8)
        executor = BatchExecutor(workers=4, cache=ResultCache())
        first = executor.run(jobs)
        second = executor.run(jobs)
        assert all(not r.from_cache for r in first.results)
        assert all(r.from_cache for r in second.results)
        assert all(r.attempts == 0 for r in second.results)
        assert second.metrics["derived"]["cache_hit_rate"] == pytest.approx(0.5)
        # Cached replay returns the identical ranking.
        assert [r.result.ranking for r in first.results] == \
               [r.result.ranking for r in second.results]

    def test_hits_repeat_the_cold_extras(self, tmp_path):
        """A scenario job's accuracy is part of its answer: a hit from
        memory or from another process's spill file carries it too."""
        jobs = scenario_jobs(2)
        cold = BatchExecutor(
            cache=ResultCache(persist_dir=tmp_path)).run(jobs)
        executor = BatchExecutor(cache=ResultCache())
        executor.run(jobs)
        memory = executor.run(jobs)
        spill = BatchExecutor(
            cache=ResultCache(persist_dir=tmp_path)).run(jobs)
        assert all(r.from_cache for r in memory.results + spill.results)
        expected = [r.extras for r in cold.results]
        assert all("accuracy" in extras for extras in expected)
        assert [r.extras for r in memory.results] == expected
        assert [r.extras for r in spill.results] == expected

    def test_duplicate_content_within_one_serial_batch(self):
        job = scenario_jobs(1)[0]
        twin = RankingJob(job_id="twin", scenario=job.scenario,
                          config=job.config, seed=job.seed)
        report = BatchExecutor(workers=1, cache=ResultCache()).run([job, twin])
        assert not report.results[0].from_cache
        assert report.results[1].from_cache
        assert report.results[0].result.ranking == \
               report.results[1].result.ranking

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_batch_answers_its_hits_before_its_misses_evict_them(
            self, workers):
        """A two-entry cache holds b and c; a batch of (a, b) must serve
        b from the cache even though storing a's result evicts b: the
        batch answers its hits before it runs a miss."""
        a, b, c = scenario_jobs(3)
        cache = ResultCache(max_entries=2)
        executor = BatchExecutor(workers=workers, cache=cache)
        executor.run([b, c])
        report = executor.run([a, b])
        assert [r.from_cache for r in report.results] == [False, True]

    def test_unseeded_jobs_never_cached(self):
        spec = ScenarioSpec(8, 0.6, n_workers=6, workers_per_task=3)
        jobs = [RankingJob(job_id=f"u{i}", scenario=spec, config=QUICK)
                for i in range(2)]
        executor = BatchExecutor(workers=1, cache=ResultCache())
        report = executor.run(jobs)
        again = executor.run(jobs)
        assert all(not r.from_cache
                   for r in report.results + again.results)

    def test_precomputed_keys_are_used_as_given(self):
        jobs = scenario_jobs(2)
        cache = ResultCache()
        executor = BatchExecutor(workers=1, cache=cache)
        report = executor.run(jobs, keys=["given", None])
        assert cache.get("given").ranking == report.results[0].result.ranking
        assert cache.get(fingerprint_job(jobs[0])) is None
        assert cache.get(fingerprint_job(jobs[1])) is not None
        with pytest.raises(ConfigurationError, match="1 cache keys"):
            executor.run(jobs, keys=["given"])

    def test_no_cache_mode(self):
        jobs = scenario_jobs(2)
        executor = BatchExecutor(workers=1)  # cache=None
        executor.run(jobs)
        report = executor.run(jobs)
        assert all(not r.from_cache for r in report.results)


class TestBackendsAgree:
    """One batch gives the same outcomes, ``attempts`` and cache
    contents on every backend: the process backend's streamed runs
    change where the jobs run, not what a job comes back as."""

    @staticmethod
    def _answer(encoded):
        """An encoded result without its step timings."""
        payload = json.loads(encoded.result_json)
        del payload["step_seconds"]
        return payload

    def _observed(self, executor, batches):
        outcomes = []
        for jobs in batches:
            report = executor.run(jobs)
            outcomes.append([
                (r.job_id, r.status, r.attempts, r.from_cache, r.error,
                 self._answer(r.encoded), r.extras)
                for r in report.results
            ])
        cache = executor.cache
        entries = {}
        for job in {job.job_id: job for jobs in batches for job in jobs} \
                .values():
            entry = cache.get_entry(fingerprint_job(job))
            entries[job.job_id] = (self._answer(entry.encoded), entry.extras)
        return outcomes, len(cache), entries

    @pytest.mark.parametrize("workers", [1, 3])
    def test_outcomes_attempts_and_cache_agree(self, workers):
        jobs = scenario_jobs(6, prefix="agree")
        # A cold batch, then one of hits and misses; at one worker also
        # a duplicate, answered by its twin's stored result.
        batches = [jobs[:4], jobs[2:]]
        if workers == 1:
            twin = RankingJob(job_id="twin", scenario=jobs[0].scenario,
                              config=jobs[0].config, seed=jobs[0].seed)
            batches.append([jobs[0], twin] + jobs[4:] + [twin])
        observed = {
            backend: self._observed(
                BatchExecutor(workers, cache=ResultCache(), backend=backend),
                batches)
            for backend in ("serial", "thread", "process")
        }
        assert observed["thread"] == observed["serial"]
        assert observed["process"] == observed["serial"]


class TestIsolation:
    def test_poisoned_job_does_not_abort_batch(self):
        jobs = scenario_jobs(8)
        poisoned = RankingJob(job_id="poison",
                              votes=VoteSet.from_votes(4, []), seed=9)
        report = BatchExecutor(workers=4).run(jobs[:4] + [poisoned] + jobs[4:])
        assert len(report.results) == 9
        bad = report.by_id("poison")
        assert bad.status is JobStatus.FAILED
        assert "InferenceError" in bad.error
        assert bad.attempts == 1  # deterministic failure, no retry burned
        assert len(report.succeeded) == 8
        assert not report.ok

    def test_timeout_isolates_slow_job(self, tiny_votes):
        executor = BatchExecutor(workers=2, timeout=0.2, retry=NO_RETRY)
        original = executor._attempt

        def slow_attempt(job):
            if job.job_id == "slow":
                time.sleep(5.0)
            return original(job)

        executor._attempt = slow_attempt
        slow = RankingJob(job_id="slow", votes=tiny_votes, config=QUICK,
                          seed=1)
        fast = RankingJob(job_id="fast", votes=tiny_votes, config=QUICK,
                          seed=1)
        start = time.perf_counter()
        report = executor.run([slow, fast])
        elapsed = time.perf_counter() - start
        assert report.by_id("slow").status is JobStatus.TIMED_OUT
        assert report.by_id("fast").ok
        assert elapsed < 4.0  # the batch never waited out the sleep

    def test_unexpected_executor_error_is_contained(self, tiny_votes):
        executor = BatchExecutor(workers=1)

        def explode(job):
            raise MemoryError("simulated")

        executor._attempt = explode
        report = executor.run(
            [RankingJob(job_id="boom", votes=tiny_votes, seed=1)]
        )
        assert report.results[0].status is JobStatus.FAILED


class TestRetries:
    def test_transient_failure_retried_then_succeeds(self, tiny_votes):
        executor = BatchExecutor(
            workers=1,
            retry=RetryPolicy(max_attempts=3, base_delay=0.0, max_delay=0.0),
        )
        original = executor._attempt
        failures = []

        def flaky_attempt(job):
            if len(failures) < 2:
                failures.append(1)
                raise TransientJobError("injected hiccup")
            return original(job)

        executor._attempt = flaky_attempt
        job = RankingJob(job_id="flaky", votes=tiny_votes, config=QUICK,
                         seed=4)
        report = executor.run([job])
        outcome = report.results[0]
        assert outcome.ok
        assert outcome.attempts == 3
        assert executor.metrics.counter("retry.attempts") == 2
        assert executor.metrics.counter("retry.recovered") == 1

    def test_retry_exhausted_fails_job(self, tiny_votes):
        executor = BatchExecutor(
            workers=1,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
        )

        def always_flaky(job):
            raise TransientJobError("still down")

        executor._attempt = always_flaky
        report = executor.run(
            [RankingJob(job_id="dead", votes=tiny_votes, seed=4)]
        )
        outcome = report.results[0]
        assert outcome.status is JobStatus.FAILED
        assert outcome.attempts == 2
        assert "TransientJobError" in outcome.error


class TestDeadline:
    def test_past_deadline_times_out_without_starting_work(self, tiny_votes):
        executor = BatchExecutor(
            workers=1, deadline=time.monotonic() - 1.0, retry=NO_RETRY,
        )
        attempts = []
        executor._attempt = lambda job: attempts.append(job)
        report = executor.run(
            [RankingJob(job_id="late", votes=tiny_votes, config=QUICK,
                        seed=1)]
        )
        assert report.results[0].status is JobStatus.TIMED_OUT
        assert attempts == []  # doomed work never started

    def test_deadline_bounds_the_whole_batch(self, tiny_votes):
        # One absolute budget for all jobs — not per attempt: with a
        # 0.3s deadline, four 5s jobs drain in ~one deadline, queued
        # jobs timing out immediately once it passes.
        executor = BatchExecutor(
            workers=1, deadline=time.monotonic() + 0.3, retry=NO_RETRY,
        )

        def slow(job):
            time.sleep(5.0)

        executor._attempt = slow
        jobs = [RankingJob(job_id=f"s{i}", votes=tiny_votes, config=QUICK,
                           seed=1) for i in range(4)]
        start = time.perf_counter()
        report = executor.run(jobs)
        elapsed = time.perf_counter() - start
        assert all(r.status is JobStatus.TIMED_OUT for r in report.results)
        assert elapsed < 3.0

    def test_deadline_caps_retry_backoff(self, tiny_votes):
        executor = BatchExecutor(
            workers=1,
            retry=RetryPolicy(max_attempts=5, base_delay=30.0,
                              max_delay=30.0),
            deadline=time.monotonic() + 0.2,
        )

        def always_flaky(job):
            raise TransientJobError("still down")

        executor._attempt = always_flaky
        start = time.perf_counter()
        report = executor.run(
            [RankingJob(job_id="f", votes=tiny_votes, seed=1)]
        )
        elapsed = time.perf_counter() - start
        assert report.results[0].status is JobStatus.TIMED_OUT
        assert elapsed < 5.0  # backoff clamped to the deadline, not 30s

    def test_per_attempt_timeout_still_applies_under_far_deadline(
            self, tiny_votes):
        executor = BatchExecutor(
            workers=1, timeout=0.2, deadline=time.monotonic() + 60.0,
            retry=NO_RETRY,
        )

        def slow(job):
            time.sleep(5.0)

        executor._attempt = slow
        start = time.perf_counter()
        report = executor.run(
            [RankingJob(job_id="slow", votes=tiny_votes, seed=1)]
        )
        assert report.results[0].status is JobStatus.TIMED_OUT
        assert time.perf_counter() - start < 3.0


class TestMetrics:
    def test_batch_metrics_cover_outcomes_and_steps(self):
        metrics = MetricsRegistry()
        jobs = scenario_jobs(3)
        poisoned = RankingJob(job_id="poison",
                              votes=VoteSet.from_votes(4, []), seed=9)
        executor = BatchExecutor(workers=2, cache=ResultCache(),
                                 metrics=metrics)
        report = executor.run(jobs + [poisoned])
        counters = report.metrics["counters"]
        assert counters["jobs.total"] == 4
        assert counters["jobs.succeeded"] == 3
        assert counters["jobs.failed"] == 1
        assert counters["cache.misses"] == 4
        timers = report.metrics["timers"]
        assert timers["job.seconds"]["count"] == 4
        # Per-step latency aggregated from InferenceResult.step_seconds.
        assert timers["step.search"]["count"] == 3
        assert timers["step.truth_discovery"]["count"] == 3
        assert timers["batch.seconds"]["count"] == 1


class TestRunBatchConvenience:
    def test_run_batch_one_call(self):
        report = run_batch(scenario_jobs(2), workers=2, cache=ResultCache())
        assert report.ok
        assert len(report.results) == 2

    def test_empty_batch(self):
        report = run_batch([])
        assert report.results == ()
        assert report.ok
