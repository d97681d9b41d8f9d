"""Live ranking sessions and their manager.

A :class:`RankingSession` owns one growing vote pool
(:class:`~repro.streaming.VoteBuffer`), an
:class:`~repro.streaming.IncrementalEngine` carrying warm state across
updates, and a :class:`~repro.streaming.StabilityMonitor` scoring how
much each update moved the ranking.  Ingesting votes re-infers the
ranking incrementally; once the rolling stability score clears the
threshold the session declares itself stable and (with ``early_stop``)
**stops** — further submissions are rejected with
:class:`~repro.exceptions.SessionStoppedError`, which is the signal to
stop paying for votes.

:class:`SessionManager` multiplexes many sessions behind the HTTP
server: bounded session count, TTL eviction of idle sessions,
per-session locks (concurrent ingests into one session serialise;
distinct sessions proceed in parallel), in-flight tracking so a
graceful drain can wait for running updates, and counters/gauges wired
into a :class:`~repro.service.MetricsRegistry`.  Given a process pool,
the manager runs each update (:func:`update_engine`) on a pool worker,
so updates of different sessions use different cores; the answers are
bit-identical to the inline path.

Sessions snapshot to a versioned JSON payload (votes, ranking,
stability state, counters) through :func:`session_to_payload` /
:func:`session_from_payload`; the file helpers in :mod:`repro.io`
persist them.  Restores are cheap: the warm inference state is *not*
serialised — the next ingest runs full Steps 1-3 and warm-starts only
the SAPS anneal from the stored ranking.
"""

from __future__ import annotations

import copy
import threading
import time
import uuid
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..config import PipelineConfig
from ..exceptions import (
    ConfigurationError,
    DataFormatError,
    SessionLimitError,
    SessionNotFoundError,
    SessionStoppedError,
)
from ..inference.pipeline import RankingPipeline
from ..rng import SeedLike, ensure_rng
from ..service.metrics import MetricsRegistry
from ..types import InferenceResult, Ranking, Vote, VoteArrays
from ..workers.backends import ExecutionBackend, ProcessBackend
from .buffer import VoteBuffer
from .incremental import IncrementalEngine, UpdateReport
from .stability import StabilityMonitor

#: Versioned schema tag of session snapshot payloads.
SESSION_SCHEMA = "repro.session_snapshot/1"


@dataclass(frozen=True)
class SessionConfig:
    """Per-session knobs (inference + stability + warm-start tuning).

    Attributes
    ----------
    pipeline:
        The Steps 1-4 configuration; sessions require the SAPS search
        (warm restarts are SAPS-specific).
    seed:
        Seed of the session's long-lived RNG; also the seed
        :meth:`RankingSession.recompute` hands the batch pipeline, so a
        session recompute is bit-comparable to an offline batch run.
    stability_window / stability_threshold:
        The rolling-Kendall stability criterion
        (:class:`~repro.streaming.StabilityMonitor`).
    min_votes:
        Updates observed before this many votes never count as stable —
        a floor against degenerate early agreement on tiny pools.
    early_stop:
        Whether a stable session transitions to ``stopped`` and rejects
        further votes.
    warm_iterations:
        SAPS iteration budget of warm (incremental) updates.
    quality_shift_threshold / truth_damping:
        The damped-restart guard of the incremental engine.
    full_rebuild_fraction:
        Dirty-pair fraction above which Step 2 rebuilds in full.
    scorer:
        Acquisition scorer (registry name, see
        :func:`repro.acquisition.make_scorer`) backing
        :meth:`RankingSession.suggest`.
    """

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    seed: SeedLike = 0
    stability_window: int = 5
    stability_threshold: float = 0.02
    min_votes: int = 0
    early_stop: bool = True
    warm_iterations: int = 1500
    quality_shift_threshold: float = 0.25
    truth_damping: float = 0.5
    full_rebuild_fraction: float = 0.5
    scorer: str = "bdp"

    def __post_init__(self) -> None:
        from ..acquisition.scorers import SCORER_CHOICES

        if self.scorer not in SCORER_CHOICES:
            raise ConfigurationError(
                f"scorer must be one of {sorted(SCORER_CHOICES)}, "
                f"got {self.scorer!r}"
            )
        if self.min_votes < 0:
            raise ConfigurationError(
                f"min_votes must be >= 0, got {self.min_votes}"
            )
        if self.warm_iterations < 1:
            raise ConfigurationError(
                f"warm_iterations must be >= 1, got {self.warm_iterations}"
            )
        if not 0.0 <= self.truth_damping <= 1.0:
            raise ConfigurationError(
                f"truth_damping must be in [0, 1], got {self.truth_damping}"
            )
        if not 0.0 <= self.full_rebuild_fraction <= 1.0:
            raise ConfigurationError(
                "full_rebuild_fraction must be in [0, 1], got "
                f"{self.full_rebuild_fraction}"
            )


#: What one update needs and gives back: the engine, the vote
#: snapshot and the session generator in; the updated engine and
#: generator and the update's report out.
UpdateTask = Tuple[IncrementalEngine, VoteArrays, np.random.Generator]
UpdateOutcome = Tuple[IncrementalEngine, np.random.Generator, UpdateReport]


def update_engine(task: UpdateTask) -> UpdateOutcome:
    """Run one session update: :meth:`IncrementalEngine.update` on the
    given engine and generator, which it advances and returns.

    A module-level function, so a pool worker can run it on unpickled
    copies; :func:`update_inline` runs it on copies here.
    """
    engine, arrays, rng = task
    report = engine.update(arrays, rng)
    return engine, rng, report


def update_inline(task: UpdateTask) -> UpdateOutcome:
    """:func:`update_engine` on this thread, on copies of the engine and
    generator, so a failed update leaves the caller's untouched.  The
    engine only rebinds its state, so a shallow copy suffices."""
    engine, arrays, rng = task
    return update_engine((copy.copy(engine), arrays, copy.deepcopy(rng)))


class RankingSession:
    """One live incremental ranking over a growing vote pool.

    All public methods take the session's lock; a session is safe to
    share between server handler threads (calls serialise).
    """

    def __init__(
        self,
        session_id: str,
        n_objects: int,
        config: Optional[SessionConfig] = None,
    ) -> None:
        self.session_id = session_id
        self.config = config if config is not None else SessionConfig()
        self.lock = threading.RLock()
        self.buffer = VoteBuffer(n_objects)
        self._engine = IncrementalEngine(
            self.config.pipeline,
            warm_iterations=self.config.warm_iterations,
            quality_shift_threshold=self.config.quality_shift_threshold,
            truth_damping=self.config.truth_damping,
            full_rebuild_fraction=self.config.full_rebuild_fraction,
        )
        self._monitor = StabilityMonitor(
            window=self.config.stability_window,
            threshold=self.config.stability_threshold,
        )
        self._rng = ensure_rng(self.config.seed)
        self._stopped = False
        self._last_report: Optional[UpdateReport] = None
        self.votes_ingested = 0
        self.updates_full = 0
        self.updates_incremental = 0
        self.damped_restarts = 0

    @property
    def n_objects(self) -> int:
        return self.buffer.n_objects

    @property
    def ranking(self) -> Optional[Ranking]:
        with self.lock:
            return self._engine.ranking

    @property
    def stopped(self) -> bool:
        with self.lock:
            return self._stopped

    @property
    def verdict(self) -> str:
        """``collecting`` / ``stable`` / ``stopped`` (see
        :mod:`repro.streaming.stability`)."""
        with self.lock:
            if self._stopped:
                return "stopped"
            if self._stable():
                return "stable"
            return "collecting"

    def _stable(self) -> bool:
        return (self._monitor.is_stable
                and self.votes_ingested >= self.config.min_votes)

    def ingest(
        self,
        votes: Iterable[Vote],
        run_update: Callable[[UpdateTask], UpdateOutcome] = update_inline,
    ) -> UpdateReport:
        """Append votes and incrementally re-infer the ranking.

        ``run_update`` runs the update (:func:`update_inline` by
        default; :class:`SessionManager` may hand it to a pool worker).
        The session takes the returned engine and generator only when
        it succeeds: an ingest that raises leaves the session exactly
        as it was, votes included.

        Raises
        ------
        SessionStoppedError
            If the session already early-stopped.
        ConfigurationError
            On votes outside ``[0, n_objects)``.
        """
        votes = list(votes)
        with self.lock:
            if self._stopped:
                raise SessionStoppedError(
                    f"session {self.session_id} has early-stopped; its "
                    "ranking is final"
                )
            before = len(self.buffer)
            self.buffer.extend(votes)
            try:
                self._engine, self._rng, report = run_update(
                    (self._engine, self.buffer.snapshot(), self._rng)
                )
            except BaseException:
                self.buffer.truncate(before)
                raise
            self.votes_ingested += len(votes)
            if report.mode == "full":
                self.updates_full += 1
            else:
                self.updates_incremental += 1
            if report.damped_restart:
                self.damped_restarts += 1
            self._monitor.observe(report.ranking)
            if self.config.early_stop and self._stable():
                self._stopped = True
            self._last_report = report
            return report

    def suggest(self, k: int = 1) -> List[tuple]:
        """The ``k`` pairs most worth querying next, best first.

        Builds the acquisition belief state from the session's votes —
        weighted by the engine's current worker-quality estimates and
        conditioned on the warm smoothed matrix's closure when one
        exists — and scores it with the configured scorer.  Purely a
        read: the session's warm state, stability window and lifecycle
        are untouched, and the result is deterministic for a fixed
        session state and seed (stable tie-break by pair id).

        Works on stopped sessions too (the suggestions are then moot,
        but harmless) and on empty ones (prior-only scores).
        """
        if k < 1:
            raise ConfigurationError(f"k must be >= 1, got {k}")
        from ..acquisition import AcquisitionPolicy
        from ..inference.propagation import propagate_matrix

        with self.lock:
            arrays = self.buffer.snapshot()
            engine = self._engine
            quality = None
            if (engine._reported_quality is not None
                    and engine._worker_ids is not None):
                quality = {
                    int(worker): float(q)
                    for worker, q in zip(engine._worker_ids,
                                         engine._reported_quality)
                }
            closure = None
            if engine._smoothed is not None:
                closure = propagate_matrix(
                    engine._smoothed, self.config.pipeline.propagation
                )
            seed = (self.config.seed
                    if isinstance(self.config.seed, int) else 0)
            policy = AcquisitionPolicy(
                self.n_objects, scorer=self.config.scorer, seed=seed
            )
            if arrays.n_votes:
                policy.observe_votes(arrays, quality)
            policy.attach_closure(closure)
            return policy.suggest(k)

    def recompute(self, rng: SeedLike = None) -> InferenceResult:
        """Full batch (non-warm) inference over the frozen vote pool.

        Runs the standard :class:`~repro.inference.pipeline.RankingPipeline`
        on ``buffer.to_vote_set()`` — the exact code path an offline
        batch run would take on the same votes, seeded (by default) with
        the session seed, so the result is bit-identical to that batch
        run.  Does not touch the session's warm state.
        """
        with self.lock:
            vote_set = self.buffer.to_vote_set()
        seed = self.config.seed if rng is None else rng
        return RankingPipeline(self.config.pipeline).run(
            vote_set, ensure_rng(seed)
        )

    def view(self) -> Dict[str, object]:
        """JSON-ready status payload (the ranking endpoint's body)."""
        with self.lock:
            ranking = self._engine.ranking
            report = self._last_report
            score = self._monitor.score
            return {
                "session_id": self.session_id,
                "n_objects": self.n_objects,
                "verdict": self.verdict,
                "votes_ingested": self.votes_ingested,
                "ranking": (list(ranking.order)
                            if ranking is not None else None),
                "log_preference": (report.log_preference
                                   if report is not None else None),
                "stability_score": score,
                "stability_window": self.config.stability_window,
                "stability_threshold": self.config.stability_threshold,
                "updates": {
                    "full": self.updates_full,
                    "incremental": self.updates_incremental,
                    "damped_restarts": self.damped_restarts,
                },
            }


def session_config_from_payload(
    payload: object, source: str = "<payload>"
) -> SessionConfig:
    """Decode a (possibly partial) session-config dict.

    The JSON shape the create endpoint and the CLI accept: an optional
    ``"pipeline"`` sub-dict (same partial-config codec as batch jobs,
    :func:`repro.service.jobs.config_from_payload`) plus any of the flat
    :class:`SessionConfig` knobs; omitted keys fall back to defaults.
    """
    from ..service.jobs import (
        _check_json_fields,
        _seed_from_json,
        config_from_payload,
    )

    if payload is None:
        return SessionConfig()
    if not isinstance(payload, dict):
        raise DataFormatError(
            f"{source}: session config must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    knobs = dict(payload)
    pipeline = config_from_payload(knobs.pop("pipeline", None),
                                   source=f"{source}.pipeline")
    seed = _seed_from_json(knobs.pop("seed", 0), source, f"{source}.seed")
    _check_json_fields(SessionConfig, knobs, source, source)
    try:
        return SessionConfig(pipeline=pipeline, seed=seed, **knobs)
    except ConfigurationError as error:
        raise DataFormatError(
            f"{source}: malformed session config ({error})"
        ) from None


_INT64_MIN, _INT64_MAX = -(2 ** 63), 2 ** 63 - 1


def votes_from_payload(
    payload: object, source: str = "<payload>"
) -> List[Vote]:
    """Decode a votes array: ``[worker, winner, loser]`` triples (or
    equivalent objects with those keys).

    Every id must be a JSON integer within int64 (no floats, bools or
    strings) and no vote may compare an object with itself; anything
    else is a :class:`DataFormatError`, never a silent ``int()``
    truncation.  Object ids are checked against the session's
    ``n_objects`` on ingest.
    """
    if not isinstance(payload, list):
        raise DataFormatError(
            f"{source}: votes must be a JSON array"
        )
    votes: List[Vote] = []
    for index, item in enumerate(payload):
        try:
            if isinstance(item, dict):
                fields = (item["worker"], item["winner"], item["loser"])
            else:
                worker, winner, loser = item
                fields = (worker, winner, loser)
        except (KeyError, ValueError, TypeError) as error:
            raise DataFormatError(
                f"{source}: votes[{index}] malformed ({error})"
            ) from None
        for value in fields:
            # An exact type check: bool is an int subclass.
            if type(value) is not int or \
                    not _INT64_MIN <= value <= _INT64_MAX:
                raise DataFormatError(
                    f"{source}: votes[{index}] ids must be integers "
                    f"within int64, got {value!r}"
                )
        try:
            votes.append(Vote(*fields))
        except ConfigurationError as error:
            raise DataFormatError(
                f"{source}: votes[{index}] malformed ({error})"
            ) from None
    return votes


# ---------------------------------------------------------------------------
# Snapshot / restore codec
# ---------------------------------------------------------------------------

#: The lifecycle counters a snapshot carries, by attribute name.
_COUNTERS = ("votes_ingested", "updates_full", "updates_incremental",
             "damped_restarts")


def session_to_payload(session: RankingSession) -> Dict[str, object]:
    """Encode a session as a versioned JSON-ready payload.

    Captures everything needed to resume collecting: the vote pool, the
    stability state, the counters and the last ranking.  The engine's
    warm inference state is intentionally *not* captured — it is cheap
    to rebuild (the first post-restore ingest runs full Steps 1-3 and
    warm-starts SAPS from the stored ranking) and heavy to serialise
    (dense matrices).
    """
    from ..service.jobs import config_to_payload

    with session.lock:
        ranking = session._engine.ranking
        return {
            "schema": SESSION_SCHEMA,
            "session_id": session.session_id,
            "n_objects": session.n_objects,
            "config": {
                **config_to_payload(session.config.pipeline),
            },
            "session_config": {
                knob.name: getattr(session.config, knob.name)
                for knob in fields(SessionConfig) if knob.name != "pipeline"
            },
            "votes": [
                [vote.worker, vote.winner, vote.loser]
                for vote in session.buffer.votes()
            ],
            "ranking": (list(ranking.order)
                        if ranking is not None else None),
            "stability": session._monitor.state(),
            "counters": {name: getattr(session, name) for name in _COUNTERS},
            "stopped": session._stopped,
        }


def session_from_payload(
    payload: object, source: str = "<payload>"
) -> RankingSession:
    """Rebuild a session from :func:`session_to_payload` output.

    The restored session resumes exactly where the snapshot left off in
    lifecycle terms (verdict, counters, stability window); its next
    ingest performs a full Steps 1-3 pass with a SAPS anneal
    warm-started from the stored ranking.  Every field is decoded with
    its exact JSON type (the session config through
    :func:`session_config_from_payload`, the votes through
    :func:`votes_from_payload`); a forged or truncated field raises
    :class:`DataFormatError` here rather than failing a later ingest.
    """
    if not isinstance(payload, dict) or payload.get("schema") != SESSION_SCHEMA:
        raise DataFormatError(
            f"{source}: expected schema {SESSION_SCHEMA!r}, got "
            f"{payload.get('schema') if isinstance(payload, dict) else type(payload)!r}"
        )
    knobs = payload.get("session_config", {})
    if not isinstance(knobs, dict):
        raise DataFormatError(f"{source}: session_config must be an object")
    config = session_config_from_payload(
        {**knobs, "pipeline": payload.get("config")},
        source=f"{source}.session_config",
    )
    n_objects = payload.get("n_objects")
    if type(n_objects) is not int or n_objects < 2:
        raise DataFormatError(
            f"{source}: n_objects must be an integer >= 2, got {n_objects!r}"
        )
    votes = votes_from_payload(payload.get("votes", []), f"{source}.votes")
    ranking = payload.get("ranking")
    if ranking is not None and (
            not isinstance(ranking, list)
            or any(type(v) is not int for v in ranking)
            or sorted(ranking) != list(range(n_objects))):
        raise DataFormatError(
            f"{source}: ranking must be a permutation of range({n_objects})"
        )
    counters = payload.get("counters", {})
    if not isinstance(counters, dict) or any(
            type(counters.get(name, 0)) is not int or counters.get(name, 0) < 0
            for name in _COUNTERS):
        raise DataFormatError(
            f"{source}: counters must be integers >= 0, got {counters!r}"
        )
    stopped = payload.get("stopped", False)
    if type(stopped) is not bool:
        raise DataFormatError(
            f"{source}: stopped must be a boolean, got {stopped!r}"
        )
    try:
        session = RankingSession(
            session_id=str(payload["session_id"]),
            n_objects=n_objects,
            config=config,
        )
        session.buffer.extend(votes)
        if ranking is not None:
            session._engine.seed_ranking(Ranking(ranking))
        session._monitor = StabilityMonitor.from_state(
            payload["stability"]
        )
    except (KeyError, ValueError, TypeError, ConfigurationError) as error:
        raise DataFormatError(
            f"{source}: malformed field ({error})"
        ) from None
    for name in _COUNTERS:
        setattr(session, name, counters.get(name, 0))
    session._stopped = stopped
    return session


# ---------------------------------------------------------------------------
# Manager
# ---------------------------------------------------------------------------

class SessionManager:
    """Bounded, TTL-evicting registry of live sessions.

    Parameters
    ----------
    max_sessions:
        Hard cap on simultaneously live sessions; creation beyond it
        (after evicting whatever the TTL allows) raises
        :class:`~repro.exceptions.SessionLimitError`.
    ttl_seconds:
        Idle time (since last touch) after which a session is evictable.
        ``None`` disables TTL eviction.
    metrics:
        Optional registry; the manager counts creations, ingested
        votes, update modes, early stops and evictions on it.
    clock:
        Injectable monotonic clock (tests drive eviction without
        sleeping).
    backend:
        Where updates run.  On an open :class:`ProcessBackend` each
        update runs on a pool worker (waiting for a free one) and
        counts as ``server.session_update.pooled``; a lost worker
        raises :class:`~repro.exceptions.WorkerCrashedError`, a wait
        plus run past ``timeout`` raises
        :class:`~repro.exceptions.TaskTimeoutError`, and the session is
        left as it was.  Any other backend, ``None`` or a closed pool
        runs the update inline (``server.session_update.inline``).
    timeout:
        Seconds a pooled update may spend waiting for a worker and
        running; ``None`` is unbounded.
    """

    def __init__(
        self,
        max_sessions: int = 64,
        ttl_seconds: Optional[float] = 3600.0,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
        backend: Optional[ExecutionBackend] = None,
        timeout: Optional[float] = None,
    ) -> None:
        if max_sessions < 1:
            raise ConfigurationError(
                f"max_sessions must be >= 1, got {max_sessions}"
            )
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ConfigurationError(
                f"ttl_seconds must be positive or None, got {ttl_seconds}"
            )
        self.max_sessions = int(max_sessions)
        self.ttl_seconds = ttl_seconds
        self.metrics = metrics
        self.backend = backend
        self.timeout = timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._sessions: Dict[str, RankingSession] = {}
        self._last_touch: Dict[str, float] = {}
        self._in_flight = 0
        self._idle = threading.Condition(self._lock)
        self.early_stops = 0
        self.evictions = 0

    # -- lifecycle ------------------------------------------------------------
    def create(
        self,
        n_objects: int,
        config: Optional[SessionConfig] = None,
        session_id: Optional[str] = None,
    ) -> RankingSession:
        """Create (or adopt, on restore) a session; cap-checked."""
        session = RankingSession(
            session_id=session_id or uuid.uuid4().hex[:16],
            n_objects=n_objects,
            config=config,
        )
        return self.adopt(session)

    def adopt(self, session: RankingSession) -> RankingSession:
        """Register an existing session (snapshot restore path)."""
        with self._lock:
            self._evict_expired_locked()
            if session.session_id in self._sessions:
                raise ConfigurationError(
                    f"session id {session.session_id!r} already exists"
                )
            if len(self._sessions) >= self.max_sessions:
                raise SessionLimitError(
                    f"session cap {self.max_sessions} reached and no "
                    "session is idle past its TTL"
                )
            self._sessions[session.session_id] = session
            self._last_touch[session.session_id] = self._clock()
        self._count("sessions_created")
        return session

    def get(self, session_id: str) -> RankingSession:
        """Look up a live session and refresh its TTL clock."""
        with self._lock:
            self._evict_expired_locked()
            session = self._sessions.get(session_id)
            if session is None:
                raise SessionNotFoundError(
                    f"no live session {session_id!r} (unknown or evicted)"
                )
            self._last_touch[session_id] = self._clock()
            return session

    def delete(self, session_id: str) -> None:
        """Drop a session; unknown ids raise
        :class:`~repro.exceptions.SessionNotFoundError`."""
        with self._lock:
            if self._sessions.pop(session_id, None) is None:
                raise SessionNotFoundError(
                    f"no live session {session_id!r} (unknown or evicted)"
                )
            self._last_touch.pop(session_id, None)
        self._count("sessions_deleted")

    def session_ids(self) -> List[str]:
        with self._lock:
            return sorted(self._sessions)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # -- eviction -------------------------------------------------------------
    def evict_expired(self) -> int:
        """Evict every session idle past the TTL; returns the count."""
        with self._lock:
            return self._evict_expired_locked()

    def _evict_expired_locked(self) -> int:
        if self.ttl_seconds is None:
            return 0
        now = self._clock()
        expired = [
            sid for sid, touched in self._last_touch.items()
            if now - touched > self.ttl_seconds
        ]
        for sid in expired:
            del self._sessions[sid]
            del self._last_touch[sid]
        if expired:
            self.evictions += len(expired)
            self._count("sessions_evicted", len(expired))
        return len(expired)

    # -- the hot path ---------------------------------------------------------
    def ingest(self, session_id: str, votes: Sequence[Vote]
               ) -> Dict[str, object]:
        """Append votes to a session and return its updated view.

        Tracked as in-flight for :meth:`drain`; per-session locking
        means concurrent ingests into *different* sessions run in
        parallel while ingests into the same session serialise.
        """
        session = self.get(session_id)
        with self._track():
            was_stopped = session.stopped
            report = session.ingest(votes, self._run_update)
            self._count("session_votes_ingested", len(votes))
            self._count(f"session_updates_{report.mode}")
            if report.damped_restart:
                self._count("session_damped_restarts")
            if session.stopped and not was_stopped:
                with self._lock:
                    self.early_stops += 1
                self._count("session_early_stops")
            view = session.view()
            view["update_mode"] = report.mode
            return view

    def _run_update(self, task: UpdateTask) -> UpdateOutcome:
        """One session update: on a pool worker when the backend is an
        open process pool, else inline."""
        if isinstance(self.backend, ProcessBackend):
            outcomes = self.backend.map_if_open(
                update_engine, [task], max_workers=1,
                timeout=self.timeout, return_exceptions=True,
            )
            if outcomes is not None:
                self._count("server.session_update.pooled")
                (outcome,) = outcomes
                if isinstance(outcome, BaseException):
                    raise outcome
                return outcome
        self._count("server.session_update.inline")
        return update_inline(task)

    def _track(self):
        manager = self

        class _InFlight:
            def __enter__(self):
                with manager._lock:
                    manager._in_flight += 1

            def __exit__(self, *exc):
                with manager._idle:
                    manager._in_flight -= 1
                    manager._idle.notify_all()

        return _InFlight()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Wait until no session update is in flight (graceful stop).

        Returns ``False`` if ``timeout`` elapsed first.
        """
        with self._idle:
            return self._idle.wait_for(
                lambda: self._in_flight == 0, timeout=timeout
            )

    # -- metrics --------------------------------------------------------------
    def _count(self, name: str, value: float = 1) -> None:
        if self.metrics is not None:
            self.metrics.increment(name, value)

    def gauges(self) -> Dict[str, float]:
        """Instantaneous values for the Prometheus endpoint."""
        with self._lock:
            sessions = list(self._sessions.values())
            in_flight = self._in_flight
        stopped = sum(1 for s in sessions if s.stopped)
        return {
            "sessions_active": float(len(sessions)),
            "sessions_stopped": float(stopped),
            "session_updates_in_flight": float(in_flight),
            "session_votes_buffered": float(
                sum(len(s.buffer) for s in sessions)
            ),
        }
