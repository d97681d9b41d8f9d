"""repro.service — concurrent batch ranking with caching and retries.

The batch subsystem turns the one-shot inference pipeline into a
service-shaped workload: many independent ranking jobs (per item-set /
HIT batch) executed over a worker pool, with a content-addressed result
cache so identical work is never paid for twice, bounded retries with
exponential backoff around transient failures, per-job timeouts, and a
metrics registry summarising the whole run.

Quickstart
----------
>>> from repro.service import BatchExecutor, RankingJob, ResultCache
>>> from repro.service import ScenarioSpec
>>> jobs = [RankingJob(job_id=f"j{i}",
...                    scenario=ScenarioSpec(12, 0.5, n_workers=10),
...                    seed=i)
...         for i in range(4)]
>>> report = BatchExecutor(workers=2, cache=ResultCache()).run(jobs)
>>> report.ok
True

The CLI exposes the same machinery as ``repro batch`` (JSONL in,
JSONL out); see :mod:`repro.service.jobs` for the line formats.
"""

from .cache import CACHE_ENTRY_SCHEMA, CacheEntry, ResultCache, fingerprint_job
from .executor import BatchExecutor, BatchReport, JobTimeoutError, run_batch
from .shared_cache import HAVE_FCNTL, FileLock, SpillIndex
from .jobs import (
    BATCH_METRICS_SCHEMA,
    JOB_RESULT_SCHEMA,
    JOB_SCHEMA,
    JobResult,
    JobStatus,
    RankingJob,
    ScenarioSpec,
    decode_job_json,
    dump_results_jsonl,
    encode_job_result,
    iter_jobs_jsonl,
    job_from_payload,
    job_result_from_payload,
    job_result_to_payload,
    job_to_payload,
    load_jobs_jsonl,
)
from .metrics import MetricsRegistry, TimerStats
from .retry import (
    NO_RETRY,
    RetryExhaustedError,
    RetryOutcome,
    RetryPolicy,
    TransientJobError,
    call_with_retry,
    default_is_transient,
)

__all__ = [
    "BATCH_METRICS_SCHEMA",
    "CACHE_ENTRY_SCHEMA",
    "JOB_RESULT_SCHEMA",
    "JOB_SCHEMA",
    "BatchExecutor",
    "BatchReport",
    "CacheEntry",
    "FileLock",
    "HAVE_FCNTL",
    "JobResult",
    "JobStatus",
    "JobTimeoutError",
    "MetricsRegistry",
    "NO_RETRY",
    "RankingJob",
    "ResultCache",
    "RetryExhaustedError",
    "RetryOutcome",
    "RetryPolicy",
    "ScenarioSpec",
    "SpillIndex",
    "TimerStats",
    "TransientJobError",
    "call_with_retry",
    "default_is_transient",
    "decode_job_json",
    "dump_results_jsonl",
    "encode_job_result",
    "fingerprint_job",
    "iter_jobs_jsonl",
    "job_from_payload",
    "job_result_from_payload",
    "job_result_to_payload",
    "job_to_payload",
    "load_jobs_jsonl",
    "run_batch",
]
