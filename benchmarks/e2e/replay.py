"""In-process replay of one request through the layers' public functions.

:class:`Replayer` does what the server's handler does for a request
body, calling the same public functions in the same order, with a span
around each layer.  It holds a default :class:`~repro.server.RankingServer`
that is never started, and uses that server's own job decoding, result
cache, session registry and batch execution, so the replay follows the
server's policies rather than a copy of them.  The dense path calls the
Step 1-4 functions in :meth:`repro.inference.RankingPipeline.run`'s
order with ``np.random.default_rng(job.seed)``; the sparse path times
CRH inside :func:`~repro.inference.engines.solve_sparse_engine` by
wrapping the engine module's ``discover_truth`` for the duration of the
call.  Every replay returns the answer it computed so the caller can
require it to be bit-identical to the HTTP response.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

import numpy as np

from repro.inference import engines
from repro.inference.propagation import propagate_matrix
from repro.inference.saps import saps_search_report
from repro.inference.smoothing import direct_preference_matrix, smooth_matrix
from repro.server import RankingServer
from repro.service import (
    JobResult,
    JobStatus,
    RankingJob,
    ResultCache,
    fingerprint_job,
    job_result_to_payload,
)
from repro.streaming import session_config_from_payload, votes_from_payload
from repro.truth.crh import discover_truth
from repro.types import InferenceResult

from spans import Tracer
from workloads import Request, WrongAnswer


@contextmanager
def _patched(module, name: str, value) -> Iterator[None]:
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


class Replayer:
    """A never-started default server's state, plus spans.

    ``counts[request]`` holds the layer counters of each replayed
    request: truth iterations, SAPS accepted/proposed moves, and
    streaming update modes.  :meth:`close` releases the server's
    listening socket.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.server = RankingServer()
        self.cache = self.server.cache
        self.sessions = self.server.sessions
        self.counts: Dict[str, Dict[str, float]] = \
            defaultdict(lambda: defaultdict(float))

    def close(self) -> None:
        self.server.stop()

    def replay(self, rid: str, request: Request, sid: Optional[str]) -> object:
        """Replay one request; returns its answer (ranking or pairs)."""
        body = request.body()
        if request.kind == "rank":
            return self._rank(rid, body)
        if request.kind == "batch":
            return self._batch(rid, body)
        return self._session(rid, request, body, sid)

    # -- /v1/rank and /v1/batch ---------------------------------------------

    def _rank(self, rid: str, body: bytes) -> List[int]:
        span = self.tracer.span
        with span("service.json_decode", rid):
            payload = json.loads(body)
        with span("service.job_decode", rid):
            job = self.server.decode_job(payload)
        outcome = self._execute(rid, job, self.cache)
        with span("service.encode", rid):
            json.dumps(job_result_to_payload(outcome), sort_keys=True)
        return list(outcome.result.ranking.order)

    def _batch(self, rid: str, body: bytes) -> List[List[int]]:
        span = self.tracer.span
        with span("service.json_decode", rid):
            payload = json.loads(body)
        with span("service.job_decode", rid):
            jobs = [self.server.decode_job(item, source=f"jobs[{index}]")
                    for index, item in enumerate(payload["jobs"])]
        with span("service.executor", rid):
            report = self.server.execute_batch(
                jobs, self.server.resolve_timeout(None))
        with span("service.encode", rid):
            json.dumps({
                "results": [job_result_to_payload(r) for r in report.results],
                "succeeded": len(report.succeeded),
                "failed": len(report.failed),
                "timed_out": len(report.timed_out),
                "metrics": report.metrics,
            }, sort_keys=True)
        # Attribution only, outside the request's in-process time: the
        # same jobs one after another, each through the traced steps.
        # service.executor minus this serial time is the fan-out cost.
        serial = ResultCache()
        serial_rankings = [
            list(self._execute(f"{rid}+serial", job, serial)
                 .result.ranking.order)
            for job in jobs
        ]
        rankings = [list(r.result.ranking.order) for r in report.results]
        if serial_rankings != rankings:
            raise WrongAnswer(f"{rid}: serial replay differs from the "
                              "executor's rankings")
        return rankings

    def _execute(self, rid: str, job: RankingJob,
                 cache: ResultCache) -> JobResult:
        span = self.tracer.span
        with span("service.fingerprint", rid):
            key = fingerprint_job(job)
        with span("service.cache_get", rid):
            cached = cache.get(key)
        if cached is not None:
            return JobResult(job.job_id, JobStatus.SUCCEEDED, result=cached,
                             from_cache=True)
        result = self._infer(rid, job)
        with span("service.cache_put", rid):
            cache.put(key, result)
        return JobResult(job.job_id, JobStatus.SUCCEEDED, result=result,
                         attempts=1)

    def _infer(self, rid: str, job: RankingJob) -> InferenceResult:
        span = self.tracer.span
        config = job.config
        rng = np.random.default_rng(job.seed)
        counts = self.counts[rid]
        if config.engine != "crh_saps":
            traced_crh = self.tracer.wrap("truth.crh", discover_truth)
            with span("inference.sparse", rid), \
                    _patched(engines, "discover_truth", traced_crh):
                report = engines.solve_sparse_engine(job.votes, config, rng)
            counts["truth.iterations"] += report.metadata["truth_iterations"]
            return InferenceResult(
                ranking=report.ranking,
                log_preference=report.log_preference,
                worker_quality=report.worker_quality,
                direct_preferences=report.direct_preferences,
                step_seconds=report.step_seconds,
                metadata=report.metadata,
            )
        with span("truth.crh", rid) as step1:
            truth = discover_truth(job.votes, config.truth)
        with span("inference.smoothing", rid) as step2:
            arrays = job.votes.arrays()
            direct = direct_preference_matrix(arrays, truth.preference_vector)
            smoothing = smooth_matrix(
                direct, truth.preference_vector, arrays,
                truth.quality_vector, config.smoothing, rng,
            )
        with span("inference.propagation", rid) as step3:
            closure = propagate_matrix(smoothing.matrix, config.propagation)
        with span("inference.saps", rid) as step4:
            report = saps_search_report(closure, config.saps, rng)
        counts["truth.iterations"] += truth.iterations
        counts["saps.accepted"] += report.accepted_moves
        counts["saps.proposed"] += report.proposed_moves
        return InferenceResult(
            ranking=report.ranking,
            log_preference=report.log_preference,
            worker_quality=truth.worker_quality,
            direct_preferences=truth.preferences,
            step_seconds={
                "truth_discovery": step1.seconds,
                "smoothing": step2.seconds,
                "propagation": step3.seconds,
                "search": step4.seconds,
            },
            metadata={
                "truth_iterations": truth.iterations,
                "truth_converged": truth.trace.converged,
                "n_one_edges": smoothing.n_one_edges,
                "search_algorithm": config.search,
                "saps_restarts": report.restarts,
                "saps_accepted_moves": report.accepted_moves,
                "saps_proposed_moves": report.proposed_moves,
                "saps_polish_improved": report.polish_improved,
            },
        )

    # -- /v1/sessions ---------------------------------------------------------

    def _session(self, rid: str, request: Request, body: Optional[bytes],
                 sid: str) -> object:
        span = self.tracer.span
        sessions = self.sessions
        if request.kind == "create":
            with span("service.json_decode", rid):
                payload = json.loads(body)
            with span("streaming.create", rid):
                config = session_config_from_payload(
                    payload.get("config"), source="config")
                session = sessions.create(payload["n_objects"], config,
                                          session_id=sid)
            with span("streaming.view_encode", rid):
                json.dumps(session.view(), sort_keys=True)
            return None
        if request.kind == "ingest":
            with span("service.json_decode", rid):
                payload = json.loads(body)
            with span("streaming.votes_decode", rid):
                votes = votes_from_payload(payload.get("votes"),
                                           source="request")
            with span("streaming.ingest", rid):
                view = sessions.ingest(sid, votes)
            with span("streaming.view_encode", rid):
                json.dumps(view, sort_keys=True)
            counts = self.counts[rid]
            counts["streaming.updates"] += 1
            counts["streaming.incremental"] += \
                view["update_mode"] == "incremental"
            return view["ranking"]
        if request.kind == "suggest":
            k = int(request.path.rsplit("k=", 1)[1])
            with span("acquisition.suggest", rid):
                session = sessions.get(sid)
                pairs = [[lo, hi] for lo, hi in session.suggest(k)]
            with span("service.encode", rid):
                json.dumps({"session_id": sid, "k": k,
                            "scorer": session.config.scorer,
                            "pairs": pairs}, sort_keys=True)
            return pairs
        if request.kind == "ranking":
            with span("streaming.view_encode", rid):
                view = sessions.get(sid).view()
                json.dumps(view, sort_keys=True)
            return view["ranking"]
        with span("streaming.delete", rid):
            sessions.delete(sid)
        with span("service.encode", rid):
            json.dumps({"deleted": sid}, sort_keys=True)
        return None
