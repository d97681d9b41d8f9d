"""Shared fixtures: small, deterministic scenarios used across the suite."""

from __future__ import annotations

import faulthandler
import os
import signal
import sys

import numpy as np
import pytest

from repro.config import (
    PipelineConfig,
    PropagationConfig,
    SAPSConfig,
)
from repro.datasets import hostile_votes, make_scenario
from repro.experiments.runner import collect_votes
from repro.types import Ranking, Vote, VoteSet
from repro.workers import QualityLevel, WorkerPool, gaussian_preset


def pytest_sessionfinish(session):
    """Watch the end of the run as ``faulthandler_timeout`` watches a test.

    pytest's own dump timer covers each test only.  Re-armed here, it
    also covers session teardown and interpreter exit, where pool
    workers and executor threads are joined: if those stall for
    ``faulthandler_timeout`` seconds, every thread's stack goes to
    stderr (nothing is killed).  A normal exit cancels the timer.  The
    stream is a private copy of stderr's descriptor, since pytest
    closes its own copy at unconfigure.
    """
    timeout = float(session.config.getini("faulthandler_timeout") or 0)
    if timeout > 0:
        faulthandler.dump_traceback_later(
            timeout, exit=False, file=os.dup(sys.__stderr__.fileno()))


@pytest.fixture
def hang_guard():
    """Turn a deadlock into a failure instead of a hung test run.

    The fault-injection tests kill worker processes mid-task; the one
    failure mode they must never exhibit is an infinite wait on a dead
    pipe.  ``pytest-timeout`` is not a baked-in dependency of this
    image, so this fixture provides the same safety net with a plain
    ``SIGALRM`` (POSIX-only, like the fault tests themselves).
    """

    def _expired(signum, frame):
        raise TimeoutError(
            "hang guard expired (120s) — a backend wait deadlocked"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(120)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    """A deterministic generator; tests share the seed for stability."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_truth():
    """Ground truth over 8 objects."""
    return Ranking([3, 1, 4, 0, 5, 2, 7, 6])


@pytest.fixture
def good_pool():
    """A pool of 12 high-quality workers."""
    return WorkerPool.from_distribution(
        12, gaussian_preset(QualityLevel.HIGH), rng=11
    )


@pytest.fixture
def medium_scenario():
    """A 20-object medium-quality scenario (fast but non-trivial)."""
    return make_scenario(20, 0.5, n_workers=15, workers_per_task=5, rng=21)


@pytest.fixture
def medium_votes(medium_scenario):
    """Votes collected once for the medium scenario."""
    return collect_votes(medium_scenario, rng=21)


@pytest.fixture
def tiny_votes():
    """A hand-built vote set over 4 objects, 3 workers.

    Ground truth intent: 0 < 1 < 2 < 3 (0 most preferred).  Worker 2 is
    adversarial on pair (0, 1).
    """
    votes = [
        Vote(worker=0, winner=0, loser=1),
        Vote(worker=1, winner=0, loser=1),
        Vote(worker=2, winner=1, loser=0),
        Vote(worker=0, winner=1, loser=2),
        Vote(worker=1, winner=1, loser=2),
        Vote(worker=2, winner=1, loser=2),
        Vote(worker=0, winner=2, loser=3),
        Vote(worker=1, winner=2, loser=3),
        Vote(worker=2, winner=2, loser=3),
        Vote(worker=0, winner=0, loser=3),
        Vote(worker=1, winner=0, loser=3),
        Vote(worker=2, winner=0, loser=3),
    ]
    return VoteSet.from_votes(4, votes)


@pytest.fixture(scope="session")
def hostile_vote_stream():
    """Factory: seeded ``(scenario, votes)`` for an adversarial family.

    The canonical way to feed *hostile* crowds (spammers, cliques,
    correlated errors, ...) into streaming and acquisition tests —
    results are cached per family so repeated tests share one
    collection round.
    """
    cache = {}

    def _build(family: str, n_objects: int = 12):
        key = (family, n_objects)
        if key not in cache:
            cache[key] = hostile_votes(
                family, n_objects, 0.6, n_workers=10, workers_per_task=3,
                scenario_seed=31, vote_seed=32,
            )
        return cache[key]

    return _build


@pytest.fixture
def fast_config():
    """A fast pipeline configuration for integration tests."""
    return PipelineConfig(
        saps=SAPSConfig(iterations=2000, restarts=1),
        propagation=PropagationConfig(max_hops=6, method="walks"),
    )
