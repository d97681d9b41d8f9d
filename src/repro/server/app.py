"""Threaded HTTP JSON API fronting the batch ranking service.

:class:`RankingServer` turns :class:`~repro.service.BatchExecutor` into
a network service using only the standard library — one
:class:`~http.server.ThreadingHTTPServer` whose handler threads run
jobs directly, governed by two explicit limits:

* an **admission gate** (:class:`AdmissionGate`) bounding how many
  requests may be in flight at once (``queue_depth``); a saturated gate
  answers ``429`` with ``Retry-After`` instead of queueing unboundedly;
* **execution slots** (a semaphore of ``workers``) bounding how many
  requests execute jobs concurrently; admitted requests wait for a
  slot only as long as their deadline allows, then give up with
  ``503``.  A request holds exactly one slot, a ``/v1/batch`` included:
  its jobs run one after another, so total running jobs never exceed
  ``workers``, and a batch's parallelism comes from concurrent
  requests.

Job attempts run, by default, on a persistent pool of
``min(workers, usable CPUs)`` worker processes that the server forks
when it is built and closes in :meth:`RankingServer.stop`: Steps 1-3
and the codec are Python, and threads under one GIL would hold every
cold job to one core.  A request thread borrows one worker, waiting
while none is free, and sends it the request's uncached jobs as one
run; the worker attempts them back to back and sends each result back
already encoded as it finishes.  The request codec
(:func:`prepare_request`: body JSON decode, job decode, fingerprint)
runs on a worker only if one is idle at that moment, else on the
request thread, and a request whose every job is cached is answered
without an execution slot, so a cache hit never waits behind
inference.  A byte-identical repeat of a body that succeeded is
answered from the cache with no decode at all, by the request memo
(:meth:`RankingServer.answer`).  A session ingest runs its update on
a borrowed worker too (:class:`~repro.streaming.SessionManager`); a
lost worker answers 503 and an update past ``max_timeout`` 504, with
the session left as it was.  The cache lookup, admission, the session
registry and the socket stay on the request thread.  A job past its
deadline has its worker killed and replaced; a job that kills its
worker comes back failed while the server keeps serving.
``--backend thread`` (or ``REPRO_BACKEND``) runs attempts, the codec
and session updates on the request threads instead.

Per-request deadlines (the optional ``timeout`` field of a request
body, capped by ``max_timeout``, defaulting to ``default_timeout``)
are enforced as one absolute instant for the whole request: slot
wait, every job attempt, and retry backoff all draw from the same
budget (the executor's ``deadline`` machinery), so a request cannot
hold its slot much past the deadline the client asked for.

A request cannot widen its own fan-out: a job or session config that
sets ``saps.backend`` or a ``saps.parallel_restarts`` other than 1 is
answered ``400``.  Where work runs is the operator's choice
(``workers``/``backend``), and per-request SAPS restart pools would
run outside the execution slots.

Backpressure responses (and any other error sent before the request
body has been read) carry ``Connection: close`` so a keep-alive
client never has its unread body misparsed as the next request.

Endpoints
---------
``POST /v1/rank``
    One ``repro.job/1`` payload in, one ``repro.job_result/1`` payload
    out.  ``schema`` and ``job_id`` may be omitted (filled in
    server-side).  200 when the job succeeded, 422 when it failed
    deterministically, 504 when it hit its deadline.
``POST /v1/batch``
    ``{"jobs": [<job payload>, ...]}`` (or a bare list) in; a results
    array plus per-status counts and a metrics snapshot out (always
    200 — per-job status travels in each result line).
``GET /healthz``
    Liveness: 200 whenever the process can answer at all.
``GET /readyz``
    Readiness: 200 while accepting work, 503 once draining.
``GET /metrics``
    Prometheus text exposition of the shared metrics registry plus
    instantaneous server gauges.
``POST /v1/sessions`` / ``POST /v1/sessions/{id}/votes`` /
``GET /v1/sessions/{id}/ranking`` / ``GET /v1/sessions/{id}/suggest`` /
``DELETE /v1/sessions/{id}``
    Live incremental ranking sessions (:mod:`repro.streaming`): create
    a session, stream votes into it (each call re-infers the ranking
    incrementally and returns the updated view, including the
    stability verdict), read the current ranking, ask the acquisition
    engine which pairs to query next (``?k=N``, scored by the session's
    configured :mod:`repro.acquisition` scorer), and tear down.
    Session errors map onto HTTP: unknown/evicted id -> 404,
    early-stopped session refusing votes -> 409, votes inference cannot
    rank (a non-finite Step 3 matrix) -> 422, session cap -> 429,
    an update that lost its pool worker -> 503, one past
    ``max_timeout`` -> 504.

Graceful drain: :meth:`RankingServer.stop` (wired to SIGTERM/SIGINT by
``repro serve``) flips readiness, rejects new work with 503, waits for
in-flight requests to finish (bounded by ``drain_grace``), then closes
the listener.  Cache spill files are written synchronously on job
completion, so a drained server leaves a complete spill directory.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple
from urllib.parse import parse_qs, urlsplit

from .._version import __version__
from ..config import PipelineConfig
from ..diagnostics import get_logger
from ..exceptions import (
    ConfigurationError,
    DataFormatError,
    InferenceError,
    SessionLimitError,
    SessionNotFoundError,
    SessionStoppedError,
    TaskTimeoutError,
    WorkerCrashedError,
)
from ..inference import native
from ..streaming import (
    SessionManager,
    session_config_from_payload,
    votes_from_payload,
)
from ..io import decode_json, splice_json
from ..workers.backends import (
    BACKEND_CHOICES,
    BACKEND_ENV_VAR,
    ExecutionBackend,
    ProcessBackend,
    get_backend,
    usable_cpus,
)
from ..service import (
    BatchExecutor,
    BatchReport,
    JOB_SCHEMA,
    JobResult,
    JobStatus,
    MetricsRegistry,
    RankingJob,
    ResultCache,
    RetryPolicy,
    decode_job_json,
    encode_job_result,
    fingerprint_job,
    job_from_payload,
)
from ..service.cache import BoundedLRU, CacheEntry
from ..service.executor import serve_cache_hit
from .prometheus import PROMETHEUS_CONTENT_TYPE, render_prometheus

_log = get_logger("server")
_access_log = get_logger("server.access")

#: HTTP status for each terminal job state.
_STATUS_CODES = {
    JobStatus.SUCCEEDED: 200,
    JobStatus.FAILED: 422,
    JobStatus.TIMED_OUT: 504,
}


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`RankingServer`.

    Attributes
    ----------
    host / port:
        Bind address; port 0 picks an ephemeral port (read it back from
        :attr:`RankingServer.port`).
    workers:
        Execution slots — requests executing jobs at once (a request
        holds one slot, a ``/v1/batch`` included; cache hits take
        none).
    queue_depth:
        Admission capacity — requests in flight (running *or* waiting
        for a slot).  Beyond it new work is rejected with 429.
    max_body_bytes:
        Request bodies larger than this are rejected with 413 without
        being read.
    default_timeout:
        Per-request deadline applied when the request names none;
        ``None`` leaves such requests bounded only by ``max_timeout``'s
        slot-wait cap.
    max_timeout:
        Hard ceiling on any per-request deadline, on the time a
        request may wait for an execution slot, and on a session
        update's wait for a pool worker plus its run.
    max_batch_jobs:
        Upper bound on jobs per ``/v1/batch`` request (413 beyond).
    cache_dir:
        Spill directory for the result cache (``None`` keeps the cache
        memory-only).
    cache_entries:
        In-memory capacity of the result cache, and of the request memo
        of :meth:`RankingServer.answer`.
    no_cache:
        Disable result caching entirely (and with it the request memo).
    drain_grace:
        Seconds :meth:`RankingServer.stop` waits for in-flight requests
        before closing anyway.
    backend:
        Where job attempts run (``"process"``, ``"thread"`` or
        ``"serial"``); ``None`` defers to the ``REPRO_BACKEND``
        environment variable, then ``"process"``.  ``"process"`` is the
        server's own pool of ``min(workers, usable CPUs)`` worker
        processes: attempts use every core, a job past its deadline has
        its worker killed, and a job that kills its worker comes back as
        a failed result instead of taking the server down or wedging a
        slot.  ``"thread"`` runs
        attempts on the request threads under one GIL (a deadline
        abandons the thread); ``"serial"`` also runs a batch's jobs one
        after another.
    max_sessions:
        Cap on simultaneously live streaming sessions (429 beyond,
        after TTL eviction).
    session_ttl:
        Seconds a session may sit idle before becoming evictable;
        ``None`` disables TTL eviction.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 4
    queue_depth: int = 32
    max_body_bytes: int = 8 * 1024 * 1024
    default_timeout: Optional[float] = None
    max_timeout: float = 300.0
    max_batch_jobs: int = 256
    cache_dir: Optional[str] = None
    cache_entries: int = 256
    no_cache: bool = False
    drain_grace: float = 10.0
    backend: Optional[str] = None
    max_sessions: int = 64
    session_ttl: Optional[float] = 3600.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.max_body_bytes < 1:
            raise ConfigurationError("max_body_bytes must be >= 1")
        if self.default_timeout is not None and self.default_timeout <= 0:
            raise ConfigurationError("default_timeout must be positive or None")
        if self.max_timeout <= 0:
            raise ConfigurationError("max_timeout must be positive")
        if self.max_batch_jobs < 1:
            raise ConfigurationError("max_batch_jobs must be >= 1")
        if self.drain_grace <= 0:
            raise ConfigurationError("drain_grace must be positive")
        if self.backend is not None and self.backend not in BACKEND_CHOICES:
            raise ConfigurationError(
                f"backend must be one of {sorted(BACKEND_CHOICES)} or None, "
                f"got {self.backend!r}"
            )
        if self.max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1, got {self.max_sessions}"
            )
        if self.session_ttl is not None and self.session_ttl <= 0:
            raise ConfigurationError(
                "session_ttl must be positive or None, "
                f"got {self.session_ttl}"
            )


class AdmissionGate:
    """Bounded count of in-flight requests with an idle-wait for drains."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigurationError(f"capacity must be >= 1, got {capacity}")
        self._capacity = capacity
        self._cond = threading.Condition()
        self._inflight = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def inflight(self) -> int:
        with self._cond:
            return self._inflight

    def try_acquire(self) -> bool:
        """Admit one request; False (without blocking) when saturated."""
        with self._cond:
            if self._inflight >= self._capacity:
                return False
            self._inflight += 1
            return True

    def release(self) -> None:
        """Mark one admitted request finished."""
        with self._cond:
            if self._inflight <= 0:
                raise ConfigurationError("release() without matching acquire")
            self._inflight -= 1
            self._cond.notify_all()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is in flight; False on timeout."""
        with self._cond:
            return self._cond.wait_for(lambda: self._inflight == 0, timeout)


class _HttpError(Exception):
    """An error response to send; never escapes the request handler."""

    def __init__(
        self,
        status: int,
        message: str,
        *,
        headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers or {}
        self.close = close

    def __reduce__(self):
        # Raised by prepare_request on a pool worker, it crosses the
        # pipe back to the request thread whole.
        return (_HttpError, (self.status, self.message),
                {"headers": self.headers, "close": self.close})


def _reject_request_fanout(config: PipelineConfig, source: str) -> None:
    """400 unless the config leaves SAPS restarts serial on the
    default backend: a request-chosen restart pool would start workers
    that the execution slots do not count."""
    saps = config.saps
    if saps.backend is not None or saps.parallel_restarts != 1:
        raise _HttpError(
            400, f"{source}: config.saps.backend and "
                 "config.saps.parallel_restarts are set by the server "
                 "operator (--backend, --workers); omit them"
        )


def _decode_body(body: bytes, decode=decode_json) -> object:
    """A request body's JSON value; 400 when it does not decode."""
    try:
        return decode(body, "request body")
    except DataFormatError as error:
        raise _HttpError(400, str(error)) from None


def _timeout_from_json(requested: object,
                       config: ServerConfig) -> Optional[float]:
    """Validate/cap a request deadline; fall back to the default."""
    if requested is None:
        timeout = config.default_timeout
    else:
        if isinstance(requested, bool) or \
                not isinstance(requested, (int, float)):
            raise _HttpError(400, "timeout must be a number of seconds")
        timeout = float(requested)
        if timeout <= 0:
            raise _HttpError(400, "timeout must be positive")
    if timeout is None:
        return None
    return min(timeout, config.max_timeout)


def _decode_job(payload: object, source: str, job_id: str) -> RankingJob:
    """One job payload of a request body, ``schema`` and ``job_id``
    filled in when omitted."""
    if not isinstance(payload, dict):
        raise _HttpError(400, f"{source}: job must be a JSON object")
    payload = dict(payload)
    payload.pop("timeout", None)
    payload.setdefault("schema", JOB_SCHEMA)
    payload.setdefault("job_id", job_id)
    try:
        job = job_from_payload(payload, source=source)
    except DataFormatError as error:
        raise _HttpError(400, str(error)) from None
    _reject_request_fanout(job.config, source)
    return job


class CodecTask(NamedTuple):
    """One ``/v1/rank`` or ``/v1/batch`` body, as read off the socket.

    ``first_id`` numbers the jobs that name no ``job_id``
    (``req-<first_id + index>``); ``fingerprint`` is false when the
    server keeps no cache, so no key is computed.
    """

    route: str  # "rank" or "batch"
    body: bytes
    config: ServerConfig
    first_id: int
    fingerprint: bool


class PreparedRequest(NamedTuple):
    """A decoded request: its jobs, their cache keys (``None`` where
    the executor computes the key: no cache, or an unseeded job, whose
    key must be unique within the server process), its deadline and
    the ``job_id`` each job payload named (``None`` for ``req-<n>``)."""

    jobs: Tuple[RankingJob, ...]
    keys: Tuple[Optional[str], ...]
    timeout: Optional[float]
    named_ids: Tuple[Optional[str], ...]


def prepare_request(task: CodecTask) -> PreparedRequest:
    """Decode a ``/v1/rank`` or ``/v1/batch`` body into jobs and keys.

    The whole request codec short of the cache: JSON decode (vote rows
    lifted by :func:`~repro.service.jobs.decode_job_json`), the body
    shape checks, :func:`~repro.service.job_from_payload`, the request
    fan-out rule and :func:`~repro.service.fingerprint_job`.  It needs
    nothing of the server's state, so it runs on an idle pool worker or
    on the request thread with the same outcome.  Every rejection is an
    :class:`_HttpError`.
    """
    config = task.config
    payload = _decode_body(task.body, decode_job_json)
    if task.route == "rank":
        if not isinstance(payload, dict):
            raise _HttpError(400, "request body must be a JSON object")
        timeout = _timeout_from_json(payload.get("timeout"), config)
        items = [(payload, "request")]
    else:
        if isinstance(payload, dict):
            raw_jobs = payload.get("jobs")
            timeout = _timeout_from_json(payload.get("timeout"), config)
        else:
            raw_jobs = payload
            timeout = _timeout_from_json(None, config)
        if not isinstance(raw_jobs, list) or not raw_jobs:
            raise _HttpError(400, "batch body needs a non-empty "
                                  "\"jobs\" array")
        limit = config.max_batch_jobs
        if len(raw_jobs) > limit:
            raise _HttpError(
                413, f"batch of {len(raw_jobs)} jobs exceeds the "
                     f"limit of {limit}", close=True,
            )
        items = [(item, f"jobs[{index}]")
                 for index, item in enumerate(raw_jobs)]
    jobs = tuple(
        _decode_job(item, source, f"req-{task.first_id + index}")
        for index, (item, source) in enumerate(items)
    )
    keys = tuple(
        fingerprint_job(job) if task.fingerprint and job.seed is not None
        else None
        for job in jobs
    )
    named_ids = tuple(job.job_id if "job_id" in item else None
                      for job, (item, _) in zip(jobs, items))
    return PreparedRequest(jobs, keys, timeout, named_ids)


class _Memoised(NamedTuple):
    """What the request memo keeps of a body that succeeded: its jobs'
    cache keys and :attr:`PreparedRequest.named_ids`."""

    keys: Tuple[str, ...]
    named_ids: Tuple[Optional[str], ...]


def _body_digest(route: str, body: bytes) -> bytes:
    """The request memo's key for a ``/v1/rank`` or ``/v1/batch`` body:
    the SHA-256 of the route and the body's bytes, so only a
    byte-identical repeat matches and no body is ever kept."""
    digest = hashlib.sha256(route.encode("ascii") + b"\0")
    digest.update(body)
    return digest.digest()


class _Server(ThreadingHTTPServer):
    # Handler threads are daemons and never joined on close: the
    # admission gate is the real drain mechanism, and a request stuck
    # past drain_grace must not wedge shutdown.
    daemon_threads = True
    block_on_close = False
    allow_reuse_address = True

    ranking: "RankingServer"


class RankingServer:
    """The serving facade: owns the listener, executor plumbing, state.

    Parameters
    ----------
    config:
        Server tunables (defaults to :class:`ServerConfig`'s defaults).
    cache:
        Result cache override; built from ``config`` when omitted.
    metrics:
        Registry override (shared with any embedding application);
        a fresh one is created when omitted.
    retry:
        Retry schedule for transient job failures.
    """

    def __init__(
        self,
        config: Optional[ServerConfig] = None,
        *,
        cache: Optional[ResultCache] = None,
        metrics: Optional[MetricsRegistry] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        self._config = config or ServerConfig()
        self._metrics = metrics or MetricsRegistry()
        self._retry = retry or RetryPolicy()
        if cache is not None:
            self._cache: Optional[ResultCache] = cache
        elif self._config.no_cache:
            self._cache = None
        else:
            self._cache = ResultCache(
                max_entries=self._config.cache_entries,
                persist_dir=self._config.cache_dir,
            )
        # Byte-identical repeats of answered bodies; see answer().
        self._memo: Optional[BoundedLRU[bytes, _Memoised]] = \
            None if self._cache is None \
            else BoundedLRU(self._config.cache_entries)
        self._memo_lock = threading.Lock()
        self._gate = AdmissionGate(self._config.queue_depth)
        self._slots = threading.Semaphore(self._config.workers)
        self._draining = threading.Event()
        self._stopped = threading.Event()
        # Numbers for jobs that name no job_id; see _reserve_job_ids().
        self._next_job_id = 1
        self._job_id_lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        # Built or loaded before the pool forks, so the workers inherit
        # the native library and a host that cannot build it fails
        # here, not on every request.
        native.load()
        # Forked before the listener exists, so the workers do not hold
        # a copy of it.
        self._backend = _server_backend(self._config, self._metrics)
        self._sessions = SessionManager(
            max_sessions=self._config.max_sessions,
            ttl_seconds=self._config.session_ttl,
            metrics=self._metrics,
            backend=self._backend,
            timeout=self._config.max_timeout,
        )
        try:
            self._httpd = _Server(
                (self._config.host, self._config.port), _Handler
            )
        except BaseException:
            self._backend.close()
            raise
        self._httpd.ranking = self

    # -- introspection ------------------------------------------------------

    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def metrics(self) -> MetricsRegistry:
        return self._metrics

    @property
    def cache(self) -> Optional[ResultCache]:
        return self._cache

    @property
    def backend(self) -> ExecutionBackend:
        """Where job attempts run (the server's process pool by default)."""
        return self._backend

    @property
    def sessions(self) -> SessionManager:
        """The live streaming-session registry."""
        return self._sessions

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (the real one, even when configured as 0)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def ready(self) -> bool:
        """True while the server accepts new work."""
        return not self._draining.is_set() and not self._stopped.is_set()

    @property
    def inflight(self) -> int:
        return self._gate.inflight

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> None:
        """Serve on a background thread (idempotent once started)."""
        if self._stopped.is_set():
            raise ConfigurationError("server already stopped")
        if self._thread is not None:
            return
        if self._cache is not None:
            warmed = self._cache.warm()
            if warmed:
                _log.info("warmed %d spilled result(s) into the cache",
                          warmed)
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            daemon=True,
            name="repro-server",
        )
        self._thread.start()
        _log.info("serving on %s (workers=%d, queue_depth=%d)",
                  self.url, self._config.workers, self._config.queue_depth)

    def stop(self, drain_timeout: Optional[float] = None) -> bool:
        """Graceful drain, then close the listener and the worker pool.

        New work is rejected with 503 immediately; in-flight requests
        get up to ``drain_timeout`` (default ``config.drain_grace``)
        seconds to finish.  Cache spills are written synchronously as
        each job completes, so once drained the spill directory is
        complete — there is nothing left to flush.

        Returns True when everything in flight finished, False when the
        grace period expired with requests still running (the listener
        and pool close regardless; a straggler's attempt loses its
        worker and its job fails).
        """
        if self._stopped.is_set():
            return True
        self._draining.set()
        grace = drain_timeout if drain_timeout is not None \
            else self._config.drain_grace
        started = time.monotonic()
        drained = self._gate.wait_idle(timeout=grace)
        # Session updates run inside admission slots, so the gate wait
        # already covers them; the explicit manager drain additionally
        # covers updates driven by an embedding application that talks
        # to the manager directly.
        remaining = max(0.0, grace - (time.monotonic() - started))
        drained = self._sessions.drain(timeout=remaining) and drained
        if not drained:
            _log.warning("drain grace of %.1fs expired with %d request(s) "
                         "still in flight", grace, self._gate.inflight)
        self._stopped.set()
        if self._thread is not None:
            # shutdown() handshakes with serve_forever(); calling it on
            # a never-started server would wait forever on an event only
            # the serving loop sets.
            self._httpd.shutdown()
        self._httpd.server_close()
        self._backend.close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
        _log.info("server stopped (drained=%s)", drained)
        return drained

    def __enter__(self) -> "RankingServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- admission ----------------------------------------------------------

    def admit(self) -> None:
        """Claim an admission slot or raise the matching backpressure error."""
        if not self.ready:
            self._metrics.increment("http.rejected.draining")
            raise _HttpError(503, "server is draining",
                             headers={"Retry-After": "1"})
        if not self._gate.try_acquire():
            self._metrics.increment("http.rejected.saturated")
            raise _HttpError(
                429,
                f"admission queue full ({self._gate.capacity} in flight)",
                headers={"Retry-After": "1"},
            )

    def release(self) -> None:
        self._gate.release()

    # -- request decoding ---------------------------------------------------

    def resolve_timeout(self, requested: object) -> Optional[float]:
        """Validate/cap a request deadline; fall back to the default."""
        return _timeout_from_json(requested, self._config)

    def _reserve_job_ids(self, route: str) -> int:
        """The first of a block of fresh numbers for ``req-<n>`` job ids.

        A ``/v1/rank`` body reserves one number, a ``/v1/batch`` body
        ``max_batch_jobs`` (its job count is known only once decoded,
        possibly on a pool worker), so auto-named jobs stay unique
        across concurrent requests.
        """
        count = 1 if route == "rank" else self._config.max_batch_jobs
        with self._job_id_lock:
            first = self._next_job_id
            self._next_job_id += count
        return first

    def decode_job(self, payload: object, source: str = "request") -> RankingJob:
        """Decode one job payload, filling in ``schema`` / ``job_id``."""
        return _decode_job(payload, source,
                           f"req-{self._reserve_job_ids('rank')}")

    def prepare(self, route: str, body: bytes) -> PreparedRequest:
        """Run :func:`prepare_request` on ``body``: on a pool worker if
        one is idle right now, else on this thread.

        A cache hit therefore never waits behind inference, and the
        serial/thread backends (or a closed pool) always decode here.
        A worker lost mid-decode answers 503; the body is not decoded
        again.
        """
        task = CodecTask(route, body, self._config,
                         self._reserve_job_ids(route),
                         fingerprint=self._cache is not None)
        outcomes = None
        if isinstance(self._backend, ProcessBackend):
            outcomes = self._backend.map_if_idle(
                prepare_request, [task], max_workers=1,
                timeout=self._config.max_timeout, return_exceptions=True,
            )
        if outcomes is None:
            self._metrics.increment("server.decode.inline")
            return prepare_request(task)
        self._metrics.increment("server.decode.pooled")
        (outcome,) = outcomes
        if isinstance(outcome, (WorkerCrashedError, TaskTimeoutError)):
            raise _HttpError(503, f"request decode lost its pool worker "
                                  f"({type(outcome).__name__}: {outcome})",
                             headers={"Retry-After": "1"})
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    # -- execution ----------------------------------------------------------

    def answer(self, route: str, body: bytes) -> Tuple[int, bytes]:
        """The status and response body for a ``/v1/rank`` (``route``
        ``"rank"``) or ``/v1/batch`` (``"batch"``) request body.

        A request whose every job is in the memory tier of the cache is
        answered on the request thread without an execution slot, so a
        hit never waits behind cold jobs.  A byte-identical repeat of a
        body whose every job succeeded with a cache key is found through
        the request memo, without a pool round trip, decode or
        fingerprint.  Anything else (a memo miss, a key no longer in
        memory, an unseeded job, no cache, a body that failed) is
        decoded, and its jobs the cache does not hold are executed.
        """
        digest = None
        if self._memo is not None:
            digest = _body_digest(route, body)
            with self._memo_lock:
                memoised = self._memo.get(digest)
            if memoised is not None:
                start = time.perf_counter()
                entries = self._cache.get_entries(memoised.keys)
                if entries is not None:
                    first = self._reserve_job_ids(route)
                    job_ids = [
                        f"req-{first + index}" if job_id is None else job_id
                        for index, job_id in enumerate(memoised.named_ids)
                    ]
                    self._metrics.increment("server.request_memo.hits")
                    return self._respond(
                        route, self._serve_hits(job_ids, entries, start))
        prepared = self.prepare(route, body)
        start = time.perf_counter()
        entries = None if self._cache is None or None in prepared.keys \
            else self._cache.get_entries(prepared.keys)
        if entries is not None:
            results = self._serve_hits([job.job_id for job in prepared.jobs],
                                       entries, start)
        else:
            results = self.execute_batch(list(prepared.jobs),
                                         prepared.timeout, prepared.keys,
                                         snapshot=False).results
        if digest is not None and None not in prepared.keys and all(
                outcome.status is JobStatus.SUCCEEDED for outcome in results):
            with self._memo_lock:
                self._memo.put(digest, _Memoised(prepared.keys,
                                                 prepared.named_ids))
        return self._respond(route, results)

    def _serve_hits(self, job_ids: Sequence[str],
                    entries: Sequence[CacheEntry],
                    start: float) -> Tuple[JobResult, ...]:
        """Jobs ``job_ids`` answered by their cache ``entries``, counted
        as :class:`BatchExecutor` counts a run of hits (``start``: when
        the lookup began, a :func:`time.perf_counter` instant)."""
        results = tuple(serve_cache_hit(self._metrics, job_id, entry, start)
                        for job_id, entry in zip(job_ids, entries))
        self._metrics.observe("batch.seconds", time.perf_counter() - start)
        return results

    def _respond(self, route: str,
                 results: Sequence[JobResult]) -> Tuple[int, bytes]:
        """Encode ``results`` as the route's response; only a
        ``/v1/batch`` body carries a metrics snapshot."""
        if route == "rank":
            (outcome,) = results
            return _STATUS_CODES[outcome.status], encode_job_result(outcome)
        return 200, encode_batch_report(
            BatchReport(tuple(results), self._metrics.snapshot()))

    def execute_batch(self, jobs: List[RankingJob],
                      timeout: Optional[float],
                      keys: Optional[Sequence[Optional[str]]] = None,
                      *, snapshot: bool = True) -> BatchReport:
        """Run an admitted batch on one execution slot.

        The slot is acquired blocking, bounded by the request deadline
        (or ``max_timeout``), so total running requests never exceed
        ``config.workers``; a batch's jobs run one after another on one
        pool worker, and a batch's parallelism comes from concurrent
        requests.  The request deadline is enforced as an absolute
        instant across slot wait, every attempt, and retry backoff.
        ``snapshot``: see :meth:`BatchExecutor.run`.
        """
        wait_budget = timeout if timeout is not None \
            else self._config.max_timeout
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self._slots.acquire(timeout=wait_budget):
            self._metrics.increment("http.rejected.slot_timeout")
            raise _HttpError(503, "no execution slot within deadline",
                             headers={"Retry-After": "1"})
        try:
            if deadline is not None \
                    and deadline - time.monotonic() <= 1e-3:
                self._metrics.increment("http.rejected.slot_timeout")
                raise _HttpError(503, "deadline exhausted while queued",
                                 headers={"Retry-After": "1"})
            executor = BatchExecutor(
                1,
                cache=self._cache,
                retry=self._retry,
                deadline=deadline,
                metrics=self._metrics,
                backend=self._backend,
            )
            return executor.run(jobs, keys, snapshot=snapshot)
        finally:
            self._slots.release()

    # -- observability ------------------------------------------------------

    def render_metrics(self) -> str:
        """The Prometheus exposition for ``GET /metrics``."""
        gauges = {
            "server_inflight": float(self._gate.inflight),
            "server_queue_capacity": float(self._gate.capacity),
            "server_workers": float(self._config.workers),
            "server_pool_width": float(
                self._backend.width
                if isinstance(self._backend, ProcessBackend) else 0),
            "server_draining": 0.0 if self.ready else 1.0,
            **self._sessions.gauges(),
        }
        return render_prometheus(self._metrics.snapshot(), gauges=gauges)

    def record_http(self, route: str, status: int, seconds: float) -> None:
        self._metrics.increment("http.requests")
        self._metrics.increment(f"http.requests.{route}")
        self._metrics.increment(f"http.responses.{status}")
        self._metrics.observe("http.request.seconds", seconds)


def _server_backend(config: ServerConfig,
                    metrics: MetricsRegistry) -> ExecutionBackend:
    """The backend job attempts run on: ``config.backend``, then
    ``$REPRO_BACKEND``, then a started process pool whose respawns
    count as ``workers.respawned``.  The pool is ``workers`` wide, at
    most one worker per usable CPU.  Start-up does not wait for the
    forked workers to be ready."""
    name = config.backend or os.environ.get(BACKEND_ENV_VAR) or "process"
    if name != "process":
        return get_backend(name)
    pool = ProcessBackend(
        workers=min(config.workers, usable_cpus()),
        on_respawn=functools.partial(metrics.increment, "workers.respawned"),
    )
    pool.start()
    return pool


def encode_batch_report(report: BatchReport) -> bytes:
    """The ``/v1/batch`` response body for ``report``, in UTF-8 bytes.

    A results array of :func:`~repro.service.encode_job_result` lines
    plus per-status counts and the metrics snapshot, byte-identical to
    ``json.dumps`` of the equivalent dict with ``sort_keys=True``.
    """
    results = b", ".join(map(encode_job_result, report.results))
    return splice_json({
        "succeeded": len(report.succeeded),
        "failed": len(report.failed),
        "timed_out": len(report.timed_out),
        "metrics": report.metrics,
    }, {"results": b"[" + results + b"]"})


def freeze_startup_heap() -> None:
    """Move every object alive now out of the cyclic GC's reach.

    Called once by ``repro serve`` after the server is built and its
    cache warmed.  The modules, config and warmed entries
    allocated so far live as long as the process, yet without this
    every full collection — which a large request body's many vote
    lists trigger — walks all of them again.  No collection runs first:
    a default server holds a handful of unreachable objects at this
    point, not worth the full collection's tens of milliseconds of
    start-up.  Modules loaded on first use after this call (the sparse
    engines, acquisition; see the import-hygiene rule in
    ``docs/DEVELOPMENT.md``) are not frozen.  A :class:`RankingServer`
    embedded in an application never calls this: the GC state is the
    application's.
    """
    gc.freeze()


class _Handler(BaseHTTPRequestHandler):
    """Routes requests into the owning :class:`RankingServer`."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-server/{__version__}"
    # TCP_NODELAY: the handler sends headers and body in separate
    # writes, and with Nagle's algorithm a small body would wait for
    # the client's delayed ACK (40 ms on Linux) on keep-alive.
    disable_nagle_algorithm = True

    # set by _send_bytes for the access log
    _status = 0
    _sent_bytes = 0
    # set by _read_json_body once the request body left the socket
    _body_consumed = False

    @property
    def ranking(self) -> RankingServer:
        return self.server.ranking  # type: ignore[attr-defined]

    def do_GET(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("POST")

    def do_DELETE(self) -> None:  # noqa: N802 — http.server API
        self._dispatch("DELETE")

    def log_message(self, format: str, *args: object) -> None:
        # BaseHTTPRequestHandler writes to stderr by default; route its
        # chatter to diagnostics instead (the structured access line is
        # emitted separately by _dispatch).
        _access_log.debug(format, *args)

    # -- routing ------------------------------------------------------------

    _ROUTES = {
        ("GET", "/healthz"): "healthz",
        ("GET", "/readyz"): "readyz",
        ("GET", "/metrics"): "metrics",
        ("POST", "/v1/rank"): "rank",
        ("POST", "/v1/batch"): "batch",
    }

    @staticmethod
    def _session_route(method: str, path: str):
        """Resolve the path-parameterised ``/v1/sessions`` family.

        Returns ``(route_name, args)``; ``("unrouted", ())`` when the
        path does not belong to the family, and raises 405 when the
        path matches a session resource but the method does not.
        """
        if path == "/v1/sessions":
            if method == "POST":
                return "sessions_create", ()
            raise _HttpError(405, f"{method} not allowed for {path}",
                             close=True)
        prefix = "/v1/sessions/"
        if not path.startswith(prefix):
            return "unrouted", ()
        parts = path[len(prefix):].split("/")
        if len(parts) == 1 and parts[0]:
            if method == "DELETE":
                return "sessions_delete", (parts[0],)
            raise _HttpError(405, f"{method} not allowed for {path}",
                             close=True)
        if len(parts) == 2 and parts[0]:
            session_id, leaf = parts
            if leaf == "votes":
                if method == "POST":
                    return "sessions_votes", (session_id,)
                raise _HttpError(405, f"{method} not allowed for {path}",
                                 close=True)
            if leaf == "ranking":
                if method == "GET":
                    return "sessions_ranking", (session_id,)
                raise _HttpError(405, f"{method} not allowed for {path}",
                                 close=True)
            if leaf == "suggest":
                if method == "GET":
                    return "sessions_suggest", (session_id,)
                raise _HttpError(405, f"{method} not allowed for {path}",
                                 close=True)
        return "unrouted", ()

    def _dispatch(self, method: str) -> None:
        start = time.perf_counter()
        self._status = 0
        self._sent_bytes = 0
        self._body_consumed = False
        path = urlsplit(self.path).path
        route = self._ROUTES.get((method, path), "unrouted")
        route_args = ()
        try:
            if route == "unrouted":
                route, route_args = self._session_route(method, path)
            if route == "unrouted":
                known_paths = {p for _, p in self._ROUTES}
                if path in known_paths:
                    raise _HttpError(405, f"{method} not allowed for {path}",
                                     close=True)
                raise _HttpError(404, f"no such endpoint: {path}")
            getattr(self, f"_handle_{route}")(*route_args)
        except _HttpError as error:
            # Any error emitted while the request body is still on the
            # socket must close the connection: a keep-alive peer would
            # otherwise see its unread body parsed as the next request
            # line (e.g. 429/503 from admit(), 404 for a POST).
            self._send_json(
                error.status,
                {"error": error.message, "status": error.status},
                extra_headers=error.headers,
                close=error.close or self._body_pending(),
            )
        except Exception as error:  # noqa: BLE001 — isolation boundary
            _log.exception("unhandled error serving %s %s", method, path)
            self._send_json(
                500,
                {"error": f"{type(error).__name__}: {error}", "status": 500},
                close=True,
            )
        seconds = time.perf_counter() - start
        self.ranking.record_http(route, self._status, seconds)
        _access_log.info(
            '%s "%s %s" %d %d %.6f',
            self.client_address[0], method, self.path,
            self._status, self._sent_bytes, seconds,
        )

    # -- GET endpoints ------------------------------------------------------

    def _handle_healthz(self) -> None:
        self._send_json(200, {"status": "ok", "version": __version__})

    def _handle_readyz(self) -> None:
        if self.ranking.ready:
            self._send_json(200, {"status": "ready"})
        else:
            self._send_json(503, {"status": "draining"},
                            extra_headers={"Retry-After": "1"})

    def _handle_metrics(self) -> None:
        self._send_text(200, self.ranking.render_metrics(),
                        PROMETHEUS_CONTENT_TYPE)

    # -- POST endpoints -----------------------------------------------------

    def _handle_rank(self) -> None:
        self._answer_jobs("rank")

    def _handle_batch(self) -> None:
        self._answer_jobs("batch")

    def _answer_jobs(self, route: str) -> None:
        server = self.ranking
        server.admit()
        try:
            status, body = server.answer(route, self._read_body())
            self._send_bytes(status, body, "application/json")
        finally:
            server.release()

    # -- session endpoints --------------------------------------------------

    @staticmethod
    def _session_error(error: Exception) -> _HttpError:
        """Map session-layer exceptions, and the pool errors of a
        session update, onto HTTP statuses."""
        if isinstance(error, SessionNotFoundError):
            return _HttpError(404, str(error))
        if isinstance(error, SessionStoppedError):
            return _HttpError(409, str(error))
        if isinstance(error, SessionLimitError):
            return _HttpError(429, str(error),
                              headers={"Retry-After": "1"})
        if isinstance(error, WorkerCrashedError):
            return _HttpError(503, f"session update lost its pool worker "
                                   f"(WorkerCrashedError: {error})",
                              headers={"Retry-After": "1"})
        if isinstance(error, TaskTimeoutError):
            return _HttpError(504, f"session update timed out "
                                   f"(TaskTimeoutError: {error})")
        if isinstance(error, InferenceError):
            return _HttpError(422, str(error))
        return _HttpError(400, str(error))

    def _handle_sessions_create(self) -> None:
        server = self.ranking
        server.admit()
        try:
            payload = self._read_json_body()
            if not isinstance(payload, dict):
                raise _HttpError(400, "request body must be a JSON object")
            n_objects = payload.get("n_objects")
            if isinstance(n_objects, bool) or not isinstance(n_objects, int):
                raise _HttpError(400, "n_objects must be an integer")
            try:
                config = session_config_from_payload(
                    payload.get("config"), source="config"
                )
                _reject_request_fanout(config.pipeline, "config.pipeline")
                session = server.sessions.create(n_objects, config)
            except (DataFormatError, ConfigurationError,
                    SessionLimitError) as error:
                raise self._session_error(error) from None
            self._send_json(201, session.view())
        finally:
            server.release()

    def _handle_sessions_votes(self, session_id: str) -> None:
        server = self.ranking
        server.admit()
        try:
            payload = self._read_json_body()
            if isinstance(payload, dict):
                raw_votes = payload.get("votes")
            else:
                raw_votes = payload
            try:
                votes = votes_from_payload(raw_votes, source="request")
                view = server.sessions.ingest(session_id, votes)
            except (DataFormatError, ConfigurationError,
                    InferenceError, SessionNotFoundError,
                    SessionStoppedError, WorkerCrashedError,
                    TaskTimeoutError) as error:
                raise self._session_error(error) from None
            self._send_json(200, view)
        finally:
            server.release()

    def _handle_sessions_ranking(self, session_id: str) -> None:
        server = self.ranking
        server.admit()
        try:
            try:
                session = server.sessions.get(session_id)
            except SessionNotFoundError as error:
                raise self._session_error(error) from None
            self._send_json(200, session.view())
        finally:
            server.release()

    def _handle_sessions_suggest(self, session_id: str) -> None:
        server = self.ranking
        server.admit()
        try:
            query = parse_qs(urlsplit(self.path).query)
            raw_k = query.get("k", ["1"])[-1]
            try:
                k = int(raw_k)
            except ValueError:
                raise _HttpError(400, f"k must be an integer, got {raw_k!r}")
            if k < 1:
                raise _HttpError(400, f"k must be >= 1, got {k}")
            try:
                session = server.sessions.get(session_id)
                pairs = session.suggest(k)
            except (SessionNotFoundError, ConfigurationError) as error:
                raise self._session_error(error) from None
            self._send_json(200, {
                "session_id": session_id,
                "k": k,
                "scorer": session.config.scorer,
                "pairs": [[lo, hi] for lo, hi in pairs],
            })
        finally:
            server.release()

    def _handle_sessions_delete(self, session_id: str) -> None:
        server = self.ranking
        server.admit()
        try:
            try:
                server.sessions.delete(session_id)
            except SessionNotFoundError as error:
                raise self._session_error(error) from None
            self._send_json(200, {"deleted": session_id})
        finally:
            server.release()

    # -- plumbing -----------------------------------------------------------

    def _body_pending(self) -> bool:
        """True when the peer declared a request body not yet read off
        the socket — responding without closing would desynchronize a
        keep-alive connection."""
        if self._body_consumed:
            return False
        if "chunked" in self.headers.get("Transfer-Encoding", "").lower():
            return True
        try:
            return int(self.headers.get("Content-Length") or 0) > 0
        except ValueError:
            return True

    def _read_json_body(self) -> object:
        return _decode_body(self._read_body())

    def _read_body(self) -> bytes:
        """The request body's bytes, after the length and 413 checks."""
        length_text = self.headers.get("Content-Length")
        if length_text is None:
            raise _HttpError(411, "Content-Length header required", close=True)
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(400, "invalid Content-Length",
                             close=True) from None
        if length < 0:
            raise _HttpError(400, "invalid Content-Length", close=True)
        limit = self.ranking.config.max_body_bytes
        if length > limit:
            # Discard (a bounded amount of) the refused body so
            # well-behaved clients receive the 413 instead of a broken
            # pipe mid-upload; anything beyond the drain budget is cut
            # off by closing the connection.
            self._drain_body(length, budget=max(4 * limit, 1 << 20))
            raise _HttpError(
                413, f"request body of {length} bytes exceeds the limit "
                     f"of {limit} bytes", close=True,
            )
        raw = self.rfile.read(length)
        if len(raw) != length:
            raise _HttpError(400, "truncated request body", close=True)
        self._body_consumed = True
        return raw

    def _drain_body(self, length: int, *, budget: int) -> None:
        remaining = min(length, budget)
        while remaining > 0:
            chunk = self.rfile.read(min(65536, remaining))
            if not chunk:
                break
            remaining -= len(chunk)

    def _send_json(
        self,
        status: int,
        payload: object,
        *,
        extra_headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send_bytes(status, body, "application/json",
                         extra_headers=extra_headers, close=close)

    def _send_text(self, status: int, text: str, content_type: str) -> None:
        self._send_bytes(status, text.encode("utf-8"), content_type)

    def _send_bytes(
        self,
        status: int,
        body: bytes,
        content_type: str,
        *,
        extra_headers: Optional[Dict[str, str]] = None,
        close: bool = False,
    ) -> None:
        try:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            for name, value in (extra_headers or {}).items():
                self.send_header(name, value)
            if close:
                self.send_header("Connection", "close")
                self.close_connection = True
            self.end_headers()
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            # Client went away mid-response; nothing sensible to do.
            self.close_connection = True
        self._status = status
        self._sent_bytes = len(body)
