"""Seed benchmark for the serving stack: executor vs HTTP server.

Drives the same synthetic scenario workload through (a) the in-process
:class:`~repro.service.BatchExecutor` and (b) a live
:class:`~repro.server.RankingServer` hit by concurrent
:class:`~repro.client.RankingClient` threads, then writes
``BENCH_service.json`` at the repo root: throughput, p50/p95 latency
and cache hit-rate per mode, so later PRs can track the serving
overhead and tail latency over time.

A backend sweep repeats both modes once per execution backend
(serial / thread / process) and records each one's p95 — the cost of
pool overhead and the benefit of process isolation, measured at the
same workload.  That workload repeats jobs, so its executor rows also
measure the cache; ``executor_backends.distinct_jobs`` times the
executor on 32 distinct vote jobs of the e2e rank-cold (n=100) and
batch-cold (n=16) shapes, 9 repeats with the arm order alternating:
serial, 2 threads, a warm 2-worker pool and a pool forked inside the
timed run.

A serving pass then drives a ``python -m repro serve`` subprocess, so
this process only runs clients: a closed-loop pass for throughput with
results checked bit-identical against the serial in-process oracle,
and an **open-loop** pass — requests fire at their scheduled arrival
times whether or not earlier ones finished, so the recorded p99
includes queueing delay and characterizes behaviour under overload.

``--smoke`` runs the serving contract only (tiny sizes, no timing
thresholds, nothing written): the large-``n`` encoder check below, then
two successive ``repro serve`` subprocesses over one cache directory:
the first must return
bit-identical results to the serial oracle and answer a repeat pass
entirely from its request memo, and the second — a fresh process that
computed nothing — must serve every job from the spill the first left,
through the decode and fingerprint path, with a response body equal to
the cold one except for ``attempts``, ``from_cache`` and ``seconds``.

A large-``n`` codec block times, in process, each layer one cold
``/v1/rank`` request crosses at the e2e ``rank-sparse`` shape (n=1000,
ratio 0.01, 50 workers, ``engine: "hodge"``): body decode (vote rows
lifted by the native library; with the cyclic GC on, as a request
thread runs it, and paused, as a pool task runs it), job decode, next
to the plain ``json.loads`` and list walk they replaced, then
fingerprint, the pickle round trip of the attempt task to a worker,
the attempt (and Step 1's share of it, from ``step_seconds``), the
result encode and the pickle round trip of the outcome back.  Rounds
are interleaved (every layer once per round) and each layer gets a
median and IQR.  ``rank_cold_codec`` repeats it at
the e2e ``rank-cold`` shape (n=100, ratio 0.3, the default engine).
``--smoke`` runs it at a smaller ``n`` and fails unless the lifted
decode gives the same job as the plain one and the columnar result
encoder writes the same bytes as the per-pair dict encoder it replaced.

A serve CPU block sends 40 distinct bodies to a ``repro serve``
subprocess and records the CPU time per request of the parent and of
its pool workers, read from ``/proc/<pid>/stat`` (Linux): one row of
rank-sparse ``/v1/rank`` bodies from one client, one row of
batch-cold ``/v1/batch`` bodies (8 distinct n=16 vote sets each) from
two clients at once.

Not collected by pytest (no ``test_`` prefix) — run directly:

    PYTHONPATH=src python benchmarks/bench_service.py [--jobs 24] ...
"""

from __future__ import annotations

import argparse
import datetime
import gc
import json
import os
import pickle
import platform
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.client import RankingClient
from repro.io import EncodedResult, decode_json, result_to_payload
from repro.server import RankingServer, ServerConfig
from repro.service import (
    BatchExecutor,
    decode_job_json,
    MetricsRegistry,
    RankingJob,
    ResultCache,
    ScenarioSpec,
    fingerprint_job,
    job_from_payload,
    job_to_payload,
)
from repro.service.executor import _attempt_job
from repro.workers.backends import ProcessBackend

REPO_ROOT = Path(__file__).resolve().parents[1]


def make_jobs(count: int, n_objects: int, repeat_every: int,
              seed_offset: int = 0) -> List[RankingJob]:
    """Synthetic scenario jobs; every ``repeat_every``-th seed repeats so
    the cache has something to hit (``repeat_every=0``: all distinct)."""
    jobs = []
    for index in range(count):
        seed = index % repeat_every if repeat_every else index
        jobs.append(RankingJob(
            job_id=f"bench-{seed_offset + index}",
            scenario=ScenarioSpec(n_objects, 0.5, n_workers=12,
                                  workers_per_task=5),
            seed=seed_offset + seed,
        ))
    return jobs


def _percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, round(q * (len(ordered) - 1)))
    return ordered[index]


def oracle_rankings(jobs: List[RankingJob]) -> Dict[str, List[int]]:
    """Serial, cache-free reference rankings keyed by job id — the
    bit-identity oracle every served mode is checked against."""
    executor = BatchExecutor(1, cache=None, metrics=MetricsRegistry(),
                             backend="serial")
    report = executor.run(jobs)
    assert report.ok, "oracle jobs must all succeed"
    return {
        outcome.job_id: list(outcome.result.ranking.order)
        for outcome in report.results
    }


def summarise(metrics: MetricsRegistry, elapsed: float,
              count: int) -> Dict[str, object]:
    snapshot = metrics.snapshot()
    job_timer = snapshot["timers"].get("job.seconds", {})
    return {
        "jobs": count,
        "seconds": round(elapsed, 4),
        "throughput_jobs_per_s": round(count / elapsed, 3) if elapsed else 0.0,
        "latency_p50_s": job_timer.get("p50", 0.0),
        "latency_p95_s": job_timer.get("p95", 0.0),
        "latency_mean_s": job_timer.get("mean", 0.0),
        "cache_hit_rate": snapshot["derived"].get("cache_hit_rate", 0.0),
    }


def bench_executor(jobs: List[RankingJob], workers: int,
                   backend: str = None) -> Dict[str, object]:
    executor = BatchExecutor(workers, cache=ResultCache(),
                             metrics=MetricsRegistry(), backend=backend)
    start = time.perf_counter()
    report = executor.run(jobs)
    elapsed = time.perf_counter() - start
    assert report.ok, "benchmark jobs must all succeed"
    return summarise(executor.metrics, elapsed, len(jobs))


def bench_server(jobs: List[RankingJob], workers: int,
                 clients: int, backend: str = None) -> Dict[str, object]:
    server = RankingServer(ServerConfig(
        port=0, workers=workers, queue_depth=max(2 * clients, 8),
        default_timeout=300.0, backend=backend,
    ))
    server.start()
    try:
        client = RankingClient(server.url, timeout=300.0)
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=clients) as pool:
            outcomes = list(pool.map(client.rank_job, jobs))
        elapsed = time.perf_counter() - start
        assert all(o.ok for o in outcomes), "benchmark jobs must all succeed"
        summary = summarise(server.metrics, elapsed, len(jobs))
        request_timer = server.metrics.snapshot()["timers"].get(
            "http.request.seconds", {})
        summary["http_request_p50_s"] = request_timer.get("p50", 0.0)
        summary["http_request_p95_s"] = request_timer.get("p95", 0.0)
        return summary
    finally:
        server.stop(drain_timeout=30.0)


# ---------------------------------------------------------------------------
# A `repro serve` subprocess, closed- and open-loop
# ---------------------------------------------------------------------------

class ServeProcess:
    """``python -m repro serve --port 0 --cache-dir cache_dir`` in a
    subprocess on the default backend; :attr:`url` is parsed from its
    ``serving on`` stderr line."""

    def __init__(self, cache_dir: str, workers: int, queue_depth: int):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        env.pop("REPRO_BACKEND", None)
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--cache-dir", cache_dir, "--workers", str(workers),
             "--queue-depth", str(queue_depth), "--timeout", "300"],
            env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True,
        )
        for line in self.proc.stderr:
            match = re.search(r"serving on (\S+)", line)
            if match:
                self.url = match.group(1)
                break
        else:
            raise SystemExit("repro serve exited before serving "
                             f"(code {self.proc.wait()})")
        # Keep reading so the server never blocks on a full pipe.
        threading.Thread(target=self.proc.stderr.read, daemon=True).start()

    def stop(self) -> bool:
        """SIGTERM and wait; True when the server drained cleanly."""
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=120) == 0


def bench_closed_loop(
    url: str, jobs: List[RankingJob], clients: int,
) -> Tuple[Dict[str, object], Dict[str, List[int]]]:
    """Closed-loop client pool against any URL; the server runs in
    another process, so timing is all client-side.  Returns (summary,
    rankings-by-job-id) for oracle comparison."""
    client = RankingClient(url, timeout=300.0)

    def call(job: RankingJob):
        started = time.perf_counter()
        outcome = client.rank_job(job)
        return outcome, time.perf_counter() - started

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=clients) as pool:
        results = list(pool.map(call, jobs))
    elapsed = time.perf_counter() - start
    assert all(o.ok for o, _ in results), "benchmark jobs must all succeed"
    latencies = [latency for _, latency in results]
    summary = {
        "jobs": len(jobs),
        "seconds": round(elapsed, 4),
        "throughput_jobs_per_s": round(len(jobs) / elapsed, 3)
        if elapsed else 0.0,
        "latency_p50_s": round(_percentile(latencies, 0.5), 6),
        "latency_p99_s": round(_percentile(latencies, 0.99), 6),
        "from_cache": sum(1 for o, _ in results if o.from_cache),
    }
    rankings = {
        o.job_id: list(o.result.ranking.order) for o, _ in results
    }
    return summary, rankings


def rank_bodies(url: str,
                jobs: List[RankingJob]) -> Dict[str, Dict[str, object]]:
    """Each job's decoded ``/v1/rank`` response body, one at a time."""
    bodies = {}
    for job in jobs:
        request = urllib.request.Request(
            url + "/v1/rank", method="POST",
            data=json.dumps(job_to_payload(job)).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=300.0) as response:
            bodies[job.job_id] = json.loads(response.read())
    return bodies


#: Response members that legitimately differ between a cold answer and
#: a cache hit of the same job.
PER_REQUEST_MEMBERS = ("attempts", "from_cache", "seconds")


def _answer(body: Dict[str, object]) -> Dict[str, object]:
    return {key: value for key, value in body.items()
            if key not in PER_REQUEST_MEMBERS}


def served_counts(url: str) -> Tuple[int, int]:
    """(request-memo hits, decoded ``/v1/rank``/``/v1/batch`` bodies) so
    far, read from the server's ``/metrics``."""
    with urllib.request.urlopen(url + "/metrics", timeout=30.0) as response:
        text = response.read().decode("utf-8")
    values = dict(line.split(" ", 1) for line in text.splitlines()
                  if line and not line.startswith("#"))

    def count(name: str) -> int:
        return int(float(values.get(f"repro_{name}_total", "0")))

    return (count("server_request_memo_hits"),
            count("server_decode_pooled") + count("server_decode_inline"))


def bench_open_loop(
    url: str, jobs: List[RankingJob], rate: float,
    max_inflight: int = 64,
) -> Dict[str, object]:
    """Open-loop load: request ``i`` fires at ``start + i/rate`` whether
    or not earlier ones finished, and its latency counts from that
    *scheduled* instant — so when the server falls behind the offered
    rate, the queueing delay lands in p99 instead of silently slowing
    the arrival process (the closed-loop blind spot)."""
    client = RankingClient(url, timeout=300.0)
    lock = threading.Lock()
    outcomes: List[Tuple[bool, float]] = []

    def call(job: RankingJob, scheduled: float) -> None:
        try:
            ok = client.rank_job(job).ok
        except Exception:  # noqa: BLE001 — overload errors are data here
            ok = False
        latency = time.perf_counter() - scheduled
        with lock:
            outcomes.append((ok, latency))

    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=max_inflight) as pool:
        for index, job in enumerate(jobs):
            scheduled = start + index / rate
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            pool.submit(call, job, scheduled)
    elapsed = time.perf_counter() - start
    completed = sum(1 for ok, _ in outcomes if ok)
    latencies = [latency for ok, latency in outcomes if ok]
    return {
        "offered_rate_jobs_per_s": round(rate, 3),
        "jobs": len(jobs),
        "completed_ok": completed,
        "errors": len(outcomes) - completed,
        "seconds": round(elapsed, 4),
        "sustained_throughput_jobs_per_s": round(completed / elapsed, 3)
        if elapsed else 0.0,
        "latency_p50_s": round(_percentile(latencies, 0.5), 6),
        "latency_p99_s": round(_percentile(latencies, 0.99), 6),
    }


def serving_pass(args: argparse.Namespace) -> Dict[str, object]:
    """Closed- then open-loop load on one ``repro serve`` subprocess.

    Seeds are all distinct and the cache directory is fresh, so every
    job is computed once; the closed-loop results must match the serial
    oracle.  The open-loop pass offers 1.5x the closed-loop throughput,
    overload by construction.
    """
    sweep_jobs = make_jobs(args.jobs, args.n_objects, repeat_every=0,
                           seed_offset=10_000)
    open_jobs = make_jobs(args.jobs, args.n_objects, repeat_every=0,
                          seed_offset=20_000)
    oracle = oracle_rankings(sweep_jobs)
    print("serving pass [repro serve subprocess] ...")
    with tempfile.TemporaryDirectory(prefix="bench-service-") as cache_dir:
        server = ServeProcess(cache_dir, args.workers,
                              max(4 * args.clients, 16))
        try:
            closed, rankings = bench_closed_loop(
                server.url, sweep_jobs, args.clients)
            if rankings != oracle:
                raise SystemExit("repro serve results diverged from the "
                                 "serial oracle")
            rate = max(1.0, 1.5 * closed["throughput_jobs_per_s"])
            opened = bench_open_loop(server.url, open_jobs, rate)
        finally:
            server.stop()
    print(f"  closed {closed['throughput_jobs_per_s']} jobs/s "
          f"(p99 {closed['latency_p99_s']}s), open-loop sustained "
          f"{opened['sustained_throughput_jobs_per_s']} jobs/s "
          f"(p99 {opened['latency_p99_s']}s)")
    return {"closed_loop": closed, "open_loop": opened,
            "oracle_match": True}


# ---------------------------------------------------------------------------
# Large-n codec: the layers of one cold rank-sparse request, in process
# ---------------------------------------------------------------------------

#: The e2e ``rank-sparse`` workload's shape.
LARGE_N_SHAPE = {"n_objects": 1000, "ratio": 0.01, "n_workers": 50,
                 "engine": "hodge"}

#: Votes per compared pair, as in the e2e workloads.
VOTES_PER_PAIR = 5

#: The e2e ``rank-cold`` shape, for the codec block's second row.
RANK_COLD_SHAPE = {"n_objects": 100, "ratio": 0.3, "n_workers": 20,
                   "engine": "crh_saps"}

#: Interleaved rounds of each codec block.
LARGE_N_CODEC_ROUNDS = 25

#: The e2e ``batch-cold`` shape: a ``/v1/batch`` of ``jobs`` distinct
#: vote sets under the workload's job config.
BATCH_COLD_SHAPE = {"n_objects": 16, "ratio": 0.5, "n_workers": 20,
                    "jobs": 8, "config": {"saps": {"iterations": 2000}}}

#: Timed requests of each serve CPU row.
SERVE_CPU_REQUESTS = 40


def vote_rows(rng: np.random.Generator, n_objects: int, ratio: float,
              n_workers: int) -> np.ndarray:
    """``round(ratio * C(n, 2))`` distinct pairs (a random Hamiltonian
    path first, so the graph is connected), each voted by
    :data:`VOTES_PER_PAIR` distinct workers of quality ``U(0.6, 0.95)``,
    as ``(worker, winner, loser)`` rows in random order."""
    truth_position = rng.permutation(n_objects)
    path = rng.permutation(n_objects)
    keys = set((np.minimum(path[:-1], path[1:]) * n_objects
                + np.maximum(path[:-1], path[1:])).tolist())
    lo, hi = np.triu_indices(n_objects, 1)
    target = max(len(keys), int(round(ratio * len(lo))))
    for key in rng.permutation(lo * n_objects + hi).tolist():
        if len(keys) >= target:
            break
        keys.add(key)
    pairs = np.array(sorted(keys), dtype=np.int64)
    lo, hi = pairs // n_objects, pairs % n_objects
    quality = rng.uniform(0.6, 0.95, n_workers)
    workers = np.argsort(rng.random((len(pairs), n_workers)),
                         axis=1)[:, :VOTES_PER_PAIR]
    correct = rng.random(workers.shape) < quality[workers]
    lo_first = (truth_position[lo] < truth_position[hi])[:, None]
    winner = np.where(correct == lo_first, lo[:, None], hi[:, None])
    loser = np.where(correct == lo_first, hi[:, None], lo[:, None])
    rows = np.stack([workers, winner, loser], axis=-1).reshape(-1, 3)
    return rows[rng.permutation(len(rows))]


def large_n_body(seed: int, n_objects: int, ratio: float, n_workers: int,
                 engine: str) -> bytes:
    """A ``/v1/rank`` body of one :func:`vote_rows` vote set."""
    rows = vote_rows(np.random.default_rng(seed), n_objects, ratio,
                     n_workers)
    return json.dumps({
        "job_id": f"large-n-{seed}", "seed": seed,
        "config": {"engine": engine},
        "votes": {"n_objects": n_objects, "votes": rows.tolist()},
    }).encode("utf-8")


def batch_cold_body(seed: int, n_objects: int, ratio: float,
                    n_workers: int, jobs: int,
                    config: Dict[str, object]) -> bytes:
    """A ``/v1/batch`` body of ``jobs`` distinct :func:`vote_rows` vote
    sets, each job with ``config``."""
    rng = np.random.default_rng(seed)
    return json.dumps({"jobs": [
        {"job_id": f"batch-{seed}-{index}", "seed": seed * jobs + index,
         "config": config,
         "votes": {"n_objects": n_objects,
                   "votes": vote_rows(rng, n_objects, ratio,
                                      n_workers).tolist()}}
        for index in range(jobs)
    ]}).encode("utf-8")


#: The distinct-job executor rows: jobs per run, repeats and pool
#: width, then per row the job shape (the e2e rank-cold and batch-cold
#: jobs) and its job config.
DISTINCT_JOBS, DISTINCT_REPEATS, DISTINCT_WIDTH = 32, 9, 2
DISTINCT_ROWS = (("n100", RANK_COLD_SHAPE, {"engine": "crh_saps"}),
                 ("n16", BATCH_COLD_SHAPE, BATCH_COLD_SHAPE["config"]))


def bench_distinct_jobs() -> Dict[str, object]:
    """Executor jobs/s on distinct jobs (no cache hit) per backend arm,
    the arm order alternating from one repeat to the next."""
    warm_pool = ProcessBackend(workers=DISTINCT_WIDTH)
    arms: Dict[str, Callable[[], object]] = {
        "serial": lambda: "serial",
        "thread": lambda: "thread",
        "warm_pool": lambda: warm_pool,
        "fresh_pool": lambda: ProcessBackend(workers=DISTINCT_WIDTH),
    }
    block: Dict[str, object] = {"jobs": DISTINCT_JOBS,
                                "repeats": DISTINCT_REPEATS,
                                "workers": DISTINCT_WIDTH}
    try:
        for name, shape, config in DISTINCT_ROWS:
            jobs = [job_from_payload({
                "schema": "repro.job/1",
                "job_id": f"distinct-{seed}", "seed": seed,
                "config": config,
                "votes": {"n_objects": shape["n_objects"],
                          "votes": vote_rows(
                              np.random.default_rng(seed),
                              shape["n_objects"], shape["ratio"],
                              shape["n_workers"]).tolist()},
            }) for seed in range(DISTINCT_JOBS)]
            BatchExecutor(DISTINCT_WIDTH, backend=warm_pool).run(jobs[:4])
            rates: Dict[str, List[float]] = {arm: [] for arm in arms}
            for repeat in range(DISTINCT_REPEATS):
                order = list(arms) if repeat % 2 == 0 else list(arms)[::-1]
                for arm in order:
                    backend = arms[arm]()
                    executor = BatchExecutor(
                        DISTINCT_WIDTH, cache=ResultCache(),
                        metrics=MetricsRegistry(), backend=backend)
                    start = time.perf_counter()
                    report = executor.run(jobs)
                    elapsed = time.perf_counter() - start
                    if arm == "fresh_pool":
                        backend.close()
                    assert report.ok, "benchmark jobs must all succeed"
                    rates[arm].append(len(jobs) / elapsed)
            block[name] = {
                arm: {f"{key}_jobs_per_s": round(float(value), 1)
                      for key, value in zip(
                          ("q1", "median", "q3"),
                          np.percentile(values, [25, 50, 75]))}
                for arm, values in rates.items()
            }
    finally:
        warm_pool.close()
    return block


def _timed(layers: Dict[str, List[float]], name: str,
           call: Callable[[], object]) -> object:
    start = time.perf_counter()
    value = call()
    layers[name].append((time.perf_counter() - start) * 1e3)
    return value


def _median_iqr(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median_ms": round(float(median), 3),
            "iqr_ms": round(float(q3 - q1), 3)}


def dict_encoded(result) -> Tuple[bytes, bytes]:
    """The result encoder before ``direct_preferences`` went columnar:
    its members from ``sorted(items())``, as ``(sort_keys, file order)``
    encodings."""
    payload = result_to_payload(result)
    payload["direct_preferences"] = {
        f"{i},{j}": value for (i, j), value
        in sorted(dict(result.direct_preferences.items()).items())
    }
    return (json.dumps(payload, sort_keys=True).encode("utf-8"),
            json.dumps(payload, indent=2).encode("utf-8"))


def bench_large_n_codec(rounds: int, shape: Dict[str, object],
                        vote_sets: int = 4) -> Dict[str, object]:
    """Median and IQR per layer of a cold ``/v1/rank`` request of
    ``shape`` (``large_n_body``'s arguments).

    The start-up heap is frozen first, as a pool worker freezes it, so
    the collector only walks what the layers allocate.  Every layer but
    ``body_decode_gc_on`` runs with the collector paused, as a pool
    task does.  ``body_decode`` and ``job_decode`` are the served codec
    (:func:`decode_job_json`, vote rows lifted by the native library);
    ``plain_body_decode`` and ``plain_job_decode`` are ``json.loads``
    and the list walk it replaced.  ``truth_discovery`` is Step 1's
    share of ``attempt``, read from the result's ``step_seconds``.
    Every round also checks that both decode to the same job
    (``lifted_match``) and that the columnar result encoder's bytes
    equal :func:`dict_encoded`'s (``encoder_match``).
    """
    bodies = [large_n_body(seed, **shape) for seed in range(vote_sets)]
    layers: Dict[str, List[float]] = {name: [] for name in (
        "plain_body_decode", "plain_job_decode", "body_decode_gc_on",
        "body_decode", "job_decode", "fingerprint", "pickle_task",
        "attempt", "truth_discovery", "result_encode", "pickle_outcome")}
    encoder_match = lifted_match = True
    gc.collect()
    gc.freeze()
    try:
        for index in range(rounds):
            body = bodies[index % len(bodies)]
            _timed(layers, "body_decode_gc_on",
                   lambda: decode_job_json(body, "bench"))
            gc.disable()
            try:
                plain = _timed(layers, "plain_body_decode",
                               lambda: decode_json(body, "bench"))
                expected = _timed(
                    layers, "plain_job_decode", lambda: job_from_payload(
                        dict(plain, schema="repro.job/1"), source="bench"))
                payload = _timed(layers, "body_decode",
                                 lambda: decode_job_json(body, "bench"))
                job = _timed(layers, "job_decode", lambda: job_from_payload(
                    dict(payload, schema="repro.job/1"), source="bench"))
                lifted_match = lifted_match and job == expected
                _timed(layers, "fingerprint", lambda: fingerprint_job(job))
                job = _timed(layers, "pickle_task", lambda: pickle.loads(
                    pickle.dumps((_attempt_job, job)))[1])
                result, extras = _timed(layers, "attempt",
                                        lambda: _attempt_job(job))
                layers["truth_discovery"].append(
                    result.step_seconds["truth_discovery"] * 1e3)
                encoded = _timed(layers, "result_encode",
                                 lambda: EncodedResult.eager(result))
                encoded, extras = _timed(
                    layers, "pickle_outcome", lambda: pickle.loads(
                        pickle.dumps(("ok", (encoded, extras))))[1])
                del payload, plain, expected
            finally:
                gc.enable()
            by_dict = dict_encoded(encoded.result)
            columnar = (encoded.result_json, json.dumps(
                result_to_payload(encoded.result), indent=2).encode("utf-8"))
            encoder_match = encoder_match and columnar == by_dict
    finally:
        gc.unfreeze()
    return {
        "shape": dict(shape, votes_per_pair=VOTES_PER_PAIR,
                      vote_sets=vote_sets),
        "rounds": rounds,
        "body_kb": round(len(bodies[0]) / 1024, 1),
        "result_kb": round(len(encoded.result_json) / 1024, 1),
        "layers": {name: _median_iqr(values)
                   for name, values in layers.items()},
        "lifted_match": lifted_match,
        "encoder_match": encoder_match,
    }


def _cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of ``pid`` (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _children(pid: int) -> List[int]:
    """Child pids of every thread of ``pid`` (the pool forks from a
    thread of its own)."""
    children = []
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as handle:
            children += [int(child) for child in handle.read().split()]
    return sorted(children)


def bench_serve_cpu(route: str, make_body: Callable[..., bytes],
                    shape: Dict[str, object], requests: int,
                    clients: int = 1, workers: int = 2) -> Dict[str, object]:
    """CPU milliseconds per cold request to ``/v1/<route>`` of bodies
    ``make_body(seed, **shape)``, for a ``repro serve --workers
    <workers>`` parent and for its pool workers together, read from
    ``/proc/<pid>/stat`` before and after ``requests`` distinct bodies
    sent by ``clients`` threads at once.  Linux only."""
    url_path = f"/v1/{route}"
    bodies = [make_body(1000 + seed, **shape) for seed in range(requests)]
    with tempfile.TemporaryDirectory(prefix="bench-service-cpu-") \
            as cache_dir:
        server = ServeProcess(cache_dir, workers=workers, queue_depth=8)
        try:
            pool = _children(server.proc.pid)
            # Warm every worker (imports, first-call caches) off the clock.
            for body in [make_body(seed, **shape) for seed in range(4)]:
                _post_raw(server.url + url_path, body)
            before = [_cpu_seconds(pid) for pid in [server.proc.pid, *pool]]
            start = time.perf_counter()
            with ThreadPoolExecutor(max_workers=clients) as senders:
                list(senders.map(
                    lambda body: _post_raw(server.url + url_path, body),
                    bodies))
            wall = time.perf_counter() - start
            after = [_cpu_seconds(pid) for pid in [server.proc.pid, *pool]]
        finally:
            server.stop()
    used = [(b - a) * 1e3 / requests for a, b in zip(before, after)]
    return {
        "route": url_path, "shape": dict(shape), "requests": requests,
        "clients": clients, "slots": workers, "workers": len(pool),
        "parent_cpu_ms_per_request": round(used[0], 2),
        "workers_cpu_ms_per_request": round(sum(used[1:]), 2),
        "wall_ms_per_request": round(wall * 1e3 / requests, 2),
    }


def _post_raw(url: str, body: bytes) -> None:
    request = urllib.request.Request(
        url, method="POST", data=body,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=300.0) as response:
        if response.status != 200:
            raise SystemExit(f"{url} answered {response.status}")
        response.read()


# ---------------------------------------------------------------------------
# Smoke: the serving contract, CI-sized
# ---------------------------------------------------------------------------

def run_smoke() -> int:
    """Contract checks only — tiny sizes, no timing thresholds.

    1. A ``repro serve`` subprocess returns results bit-identical to the
       serial in-process oracle.
    2. A second pass over the same server, the same request bytes, is
       answered from cache by the request memo: one memo hit per job
       and no body decoded again.
    3. A *fresh* ``repro serve`` subprocess over the same cache
       directory serves every job ``from_cache`` — it never computed
       them, so the hits crossed a process boundary through the spill
       tier — through the decode and fingerprint path (its memo starts
       empty: no memo hit, one decode per job), and each body equals
       the cold one except for :data:`PER_REQUEST_MEMBERS`.
    """
    codec = bench_large_n_codec(2, dict(LARGE_N_SHAPE, n_objects=300))
    if not codec["encoder_match"]:
        print("smoke: FAIL — the columnar result encoder's bytes differ "
              "from the per-pair dict encoder's")
        return 1
    if not codec["lifted_match"]:
        print("smoke: FAIL — the lifted vote rows decode to another job "
              "than json.loads plus the list walk")
        return 1
    print("smoke: columnar result encoder matches the dict encoder, "
          "lifted decode matches json.loads plus the list walk "
          f"(n=300, {codec['result_kb']} KiB result)")
    jobs = make_jobs(6, 8, repeat_every=0)
    oracle = oracle_rankings(jobs)
    with tempfile.TemporaryDirectory(prefix="bench-service-smoke-") \
            as cache_dir:
        server = ServeProcess(cache_dir, workers=2, queue_depth=16)
        try:
            cold = rank_bodies(server.url, jobs)
            first = {job_id: body["ranking"] for job_id, body in cold.items()}
            if first != oracle:
                print("smoke: FAIL — served results diverged from the "
                      "serial oracle")
                return 1
            print(f"smoke: repro serve matches the serial oracle "
                  f"({len(jobs)} jobs)")
            repeat_summary, repeat = bench_closed_loop(
                server.url, jobs, clients=2)
            if repeat != oracle or \
                    repeat_summary["from_cache"] != len(jobs):
                print("smoke: FAIL — repeat pass not fully cached "
                      f"({repeat_summary['from_cache']}/{len(jobs)})")
                return 1
            memo_hits, decoded = served_counts(server.url)
            if (memo_hits, decoded) != (len(jobs), len(jobs)):
                print("smoke: FAIL — repeat pass not answered by the "
                      f"request memo ({memo_hits} memo hits, {decoded} "
                      f"bodies decoded, want {len(jobs)} and {len(jobs)})")
                return 1
            print("smoke: repeat pass fully served from cache by the "
                  "request memo")
        finally:
            if not server.stop():
                print("smoke: FAIL — server did not drain cleanly")
                return 1
        # A fresh process that computed nothing, same spill directory:
        # every hit is necessarily cross-process.
        fresh = ServeProcess(cache_dir, workers=2, queue_depth=16)
        try:
            shared = rank_bodies(fresh.url, jobs)
            fresh_counts = served_counts(fresh.url)
        finally:
            if not fresh.stop():
                print("smoke: FAIL — fresh server did not drain cleanly")
                return 1
        hits = sum(1 for body in shared.values() if body["from_cache"])
        if hits != len(jobs):
            print("smoke: FAIL — fresh server recomputed "
                  f"({hits}/{len(jobs)} from cache)")
            return 1
        if fresh_counts != (0, len(jobs)):
            print("smoke: FAIL — fresh server did not decode and "
                  f"fingerprint every job ({fresh_counts[0]} memo hits, "
                  f"{fresh_counts[1]} bodies decoded, want 0 and "
                  f"{len(jobs)})")
            return 1
        differing = [job_id for job_id in cold
                     if _answer(shared[job_id]) != _answer(cold[job_id])]
        if differing:
            print("smoke: FAIL — spill hits differ from the cold "
                  f"answers beyond {PER_REQUEST_MEMBERS}: {differing}")
            return 1
        print("smoke: fresh server process served every job from the "
              "spill cache through the fingerprint path, bodies equal to "
              "the cold answers")
    print("smoke: serving contract OK")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=24,
                        help="jobs per mode (default 24)")
    parser.add_argument("--n-objects", type=int, default=16,
                        help="objects per scenario (default 16)")
    parser.add_argument("--workers", type=int, default=4,
                        help="executor pool width / server slots (default 4)")
    parser.add_argument("--clients", type=int, default=4,
                        help="concurrent client threads (default 4)")
    parser.add_argument("--repeat-every", type=int, default=8,
                        help="seed cycle length, controls cache hits "
                             "(default 8)")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_service.json"),
                        help="output path (default <repo>/BENCH_service.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="run only the serving contract "
                             "checks (tiny sizes, no file written); exits "
                             "non-zero on any violation")
    args = parser.parse_args()

    if args.smoke:
        return run_smoke()

    jobs = make_jobs(args.jobs, args.n_objects, args.repeat_every)
    print(f"workload: {args.jobs} scenario jobs, {args.n_objects} objects, "
          f"seed cycle {args.repeat_every}")

    print("running in-process executor ...")
    executor_summary = bench_executor(jobs, args.workers)
    print(f"  {executor_summary['throughput_jobs_per_s']} jobs/s, "
          f"p95 {executor_summary['latency_p95_s']}s")

    print("running HTTP server ...")
    server_summary = bench_server(jobs, args.workers, args.clients)
    print(f"  {server_summary['throughput_jobs_per_s']} jobs/s, "
          f"p95 {server_summary['latency_p95_s']}s")

    # Backend sweep: the same workload per execution backend, through
    # both the in-process executor and the live HTTP server, so
    # BENCH_service.json tracks what switching --backend costs (pool
    # overhead) and buys (multi-core isolation) in p95 terms.
    executor_backends: Dict[str, Dict[str, object]] = {}
    server_backends: Dict[str, Dict[str, object]] = {}
    for backend in ("serial", "thread", "process"):
        print(f"backend sweep [{backend}] ...")
        executor_backends[backend] = bench_executor(
            jobs, args.workers, backend=backend)
        server_backends[backend] = bench_server(
            jobs, args.workers, args.clients, backend=backend)
        print(f"  executor p95 "
              f"{executor_backends[backend]['latency_p95_s']}s, "
              f"server p95 {server_backends[backend]['latency_p95_s']}s")

    print("distinct-job executor rows ...")
    distinct = bench_distinct_jobs()
    executor_backends["distinct_jobs"] = distinct
    for name, _, _ in DISTINCT_ROWS:
        row = distinct[name]
        print(f"  {name}: " + ", ".join(
            f"{arm} {rates['median_jobs_per_s']}"
            for arm, rates in row.items()) + " jobs/s")

    serving = serving_pass(args)

    codecs = {}
    for name, shape in (("large_n_codec", LARGE_N_SHAPE),
                        ("rank_cold_codec", RANK_COLD_SHAPE)):
        print(f"{name} layers [n={shape['n_objects']}, in process] ...")
        codecs[name] = bench_large_n_codec(LARGE_N_CODEC_ROUNDS, shape)
        if not codecs[name]["encoder_match"]:
            raise SystemExit("the columnar result encoder diverged from "
                             "the dict encoder")
        if not codecs[name]["lifted_match"]:
            raise SystemExit("the lifted vote rows diverged from "
                             "json.loads plus the list walk")
        for layer_name, layer in codecs[name]["layers"].items():
            print(f"  {layer_name}: {layer['median_ms']} ms "
                  f"(IQR {layer['iqr_ms']})")
    # The batch row runs the e2e server's default 4 slots.
    serve_cpu = {}
    for name, route, make_body, shape, clients, slots in (
            ("rank_sparse", "rank", large_n_body, LARGE_N_SHAPE, 1, 2),
            ("batch_cold", "batch", batch_cold_body, BATCH_COLD_SHAPE, 2, 4)):
        print(f"serve CPU per request [{name} shape, {clients} "
              f"client(s)] ...")
        serve_cpu[name] = bench_serve_cpu(route, make_body, shape,
                                          SERVE_CPU_REQUESTS, clients, slots)
        print(f"  parent {serve_cpu[name]['parent_cpu_ms_per_request']} ms, "
              f"workers {serve_cpu[name]['workers_cpu_ms_per_request']} ms")

    payload = {
        "generated_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": {
            "jobs": args.jobs,
            "n_objects": args.n_objects,
            "workers": args.workers,
            "clients": args.clients,
            "repeat_every": args.repeat_every,
        },
        "executor": executor_summary,
        "server": server_summary,
        "executor_backends": executor_backends,
        "server_backends": server_backends,
        "serving": serving,
        **codecs,
        "serve_cpu": serve_cpu,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
