"""Live incremental ranking sessions (non-interactive crowd, streaming).

The batch pipeline answers "given this round's votes, what is the
ranking?".  A live deployment asks a harder question: votes arrive one
submission at a time, and every dollar spent on another vote should buy
information.  This package turns the Steps 1-4 machinery into a
*session*: an append-only vote pool with warm-started incremental
re-inference and a stability-based early-stopping verdict, so
collection can stop as soon as the ranking has converged.

* :class:`VoteBuffer` — mutable columnar vote accumulator whose
  snapshots are bit-identical to the frozen batch arrays;
* :class:`IncrementalEngine` — Steps 1-4 rerun per update, with
  warm-started CRH/EM and a cold-tail SAPS anneal from the closure's
  degree order;
* :class:`StabilityMonitor` — rolling Kendall distance between
  successive rankings, driving ``collecting``/``stable``/``stopped``;
* :class:`RankingSession` / :class:`SessionManager` — the stateful
  objects the HTTP server (:mod:`repro.server`) and the CLI's
  ``repro stream`` expose.
"""

from .buffer import VoteBuffer
from .incremental import IncrementalEngine, UpdateReport
from .session import (
    SESSION_SCHEMA,
    RankingSession,
    SessionConfig,
    SessionManager,
    session_config_from_payload,
    session_from_payload,
    session_to_payload,
    votes_from_payload,
)
from .stability import VERDICTS, StabilityMonitor

__all__ = [
    "VoteBuffer",
    "IncrementalEngine",
    "UpdateReport",
    "StabilityMonitor",
    "VERDICTS",
    "RankingSession",
    "SessionConfig",
    "SessionManager",
    "SESSION_SCHEMA",
    "session_config_from_payload",
    "session_from_payload",
    "session_to_payload",
    "votes_from_payload",
]
