"""Concurrency and lifecycle tests for :class:`SessionManager`:
parallel ingest, same-session serialisation, TTL eviction under load,
the session cap, and graceful drain."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.config import PipelineConfig, PropagationConfig, SAPSConfig
from repro.datasets import make_scenario
from repro.exceptions import (
    ConfigurationError,
    SessionLimitError,
    SessionNotFoundError,
)
from repro.experiments.runner import collect_votes
from repro.service import MetricsRegistry
from repro.streaming import SessionConfig, SessionManager
from repro.workers.backends import ProcessBackend, ThreadBackend

from tests.result_invariants import assert_view_invariants

FAST = SessionConfig(
    pipeline=PipelineConfig(
        saps=SAPSConfig(iterations=1000, restarts=1),
        propagation=PropagationConfig(max_hops=4, method="walks"),
    ),
    warm_iterations=300,
    early_stop=False,
)


@pytest.fixture
def votes():
    scenario = make_scenario(10, 0.6, n_workers=8, rng=5)
    return list(collect_votes(scenario, rng=5).votes)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


class TestParallelIngest:
    def test_distinct_sessions_ingest_in_parallel(self, votes, hang_guard):
        metrics = MetricsRegistry()
        manager = SessionManager(max_sessions=8, metrics=metrics)
        ids = [manager.create(10, FAST).session_id for _ in range(4)]

        def feed(session_id):
            for start in range(0, len(votes), 20):
                manager.ingest(session_id, votes[start:start + 20])
            return manager.get(session_id).votes_ingested

        with ThreadPoolExecutor(max_workers=4) as pool:
            counts = list(pool.map(feed, ids))
        assert counts == [len(votes)] * 4
        # All four sessions saw identical votes with identical seeds —
        # concurrency must not leak state between them.
        orders = {tuple(manager.get(i).ranking.order) for i in ids}
        assert len(orders) == 1
        snapshot = metrics.snapshot()["counters"]
        assert snapshot["session_votes_ingested"] == 4 * len(votes)

    def test_same_session_ingests_serialise(self, votes, hang_guard):
        manager = SessionManager(max_sessions=2)
        session = manager.create(10, FAST)
        chunks = [votes[i:i + 10] for i in range(0, len(votes), 10)]

        def feed(chunk):
            manager.ingest(session.session_id, chunk)

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(feed, chunks))
        assert session.votes_ingested == len(votes)
        assert (session.updates_full + session.updates_incremental
                == len(chunks))


class TestPooledUpdates:
    def test_pool_thread_and_closed_pool_give_equal_views(
            self, votes, hang_guard):
        """Updates run on the pool when it is open and inline otherwise,
        with the same answers."""
        pool = ProcessBackend(workers=2)
        views, counts = {}, {}
        try:
            for name, backend in (("pooled", pool), ("thread", ThreadBackend()),
                                  ("closed", pool)):
                if name == "closed":
                    pool.close()
                metrics = MetricsRegistry()
                manager = SessionManager(metrics=metrics, backend=backend,
                                         timeout=60.0)
                manager.create(10, FAST, session_id="s")
                views[name] = [manager.ingest("s", votes[i:i + 20])
                               for i in range(0, len(votes), 20)]
                counters = metrics.snapshot()["counters"]
                counts[name] = (
                    counters.get("server.session_update.pooled", 0),
                    counters.get("server.session_update.inline", 0))
        finally:
            pool.close()
        assert views["pooled"] == views["thread"] == views["closed"]
        for view in views["pooled"]:
            assert_view_invariants(view)
        updates = len(views["pooled"])
        assert counts == {"pooled": (updates, 0), "thread": (0, updates),
                          "closed": (0, updates)}


    def test_pooled_ingests_lose_no_update(self, votes, hang_guard):
        """More ingesting threads than cores, over two sessions, with
        the session lock released to the pool's waits: every chunk
        lands once."""
        chunks = [votes[i:i + 10] for i in range(0, len(votes), 10)]
        pool = ProcessBackend(workers=2)
        manager = SessionManager(backend=pool, timeout=60.0)
        sessions = [manager.create(10, FAST) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as threads:
                list(threads.map(
                    lambda job: manager.ingest(*job),
                    [(s.session_id, chunk) for s in sessions
                     for chunk in chunks]))
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        for session in sessions:
            assert session.votes_ingested == len(session.buffer) \
                == len(votes)
            assert session.updates_full + session.updates_incremental \
                == len(chunks)


class TestEviction:
    def test_ttl_eviction_under_load(self, votes):
        clock = FakeClock()
        metrics = MetricsRegistry()
        manager = SessionManager(max_sessions=16, ttl_seconds=60.0,
                                 metrics=metrics, clock=clock)
        old = manager.create(10, FAST)
        manager.ingest(old.session_id, votes[:10])
        clock.advance(50.0)
        fresh = manager.create(10, FAST)
        manager.ingest(fresh.session_id, votes[:10])  # touches fresh
        clock.advance(20.0)  # old idle 70s, fresh idle 20s
        # Any traffic sweeps expired sessions as a side effect.
        manager.ingest(fresh.session_id, votes[10:20])
        assert manager.session_ids() == [fresh.session_id]
        with pytest.raises(SessionNotFoundError):
            manager.get(old.session_id)
        assert manager.evictions == 1
        assert metrics.snapshot()["counters"]["sessions_evicted"] == 1

    def test_touch_refreshes_ttl(self, votes):
        clock = FakeClock()
        manager = SessionManager(ttl_seconds=60.0, clock=clock)
        session = manager.create(10, FAST)
        for _ in range(5):
            clock.advance(50.0)
            manager.get(session.session_id)  # keep-alive
        assert len(manager) == 1

    def test_cap_evicts_idle_then_rejects(self, votes):
        clock = FakeClock()
        manager = SessionManager(max_sessions=2, ttl_seconds=60.0,
                                 clock=clock)
        manager.create(10, FAST)
        manager.create(10, FAST)
        with pytest.raises(SessionLimitError):
            manager.create(10, FAST)  # both live, cap hit
        clock.advance(120.0)  # both now idle past TTL
        survivor = manager.create(10, FAST)
        assert manager.session_ids() == [survivor.session_id]

    def test_duplicate_id_rejected(self):
        manager = SessionManager()
        manager.create(10, FAST, session_id="dup")
        with pytest.raises(ConfigurationError):
            manager.create(10, FAST, session_id="dup")

    def test_delete_unknown_raises(self):
        manager = SessionManager()
        with pytest.raises(SessionNotFoundError):
            manager.delete("ghost")


class TestDrain:
    def test_drain_waits_for_in_flight_updates(self, votes, hang_guard):
        manager = SessionManager(max_sessions=4)
        session = manager.create(10, FAST)
        started = threading.Barrier(3)

        def feed():
            started.wait(timeout=30)
            for start in range(0, len(votes), 30):
                manager.ingest(session.session_id, votes[start:start + 30])

        threads = [threading.Thread(target=feed) for _ in range(2)]
        for thread in threads:
            thread.start()
        started.wait(timeout=30)
        assert manager.drain(timeout=60.0)
        # Drain returning True means no update is mid-flight; whatever
        # was admitted before the drain completed in full.
        assert manager.gauges()["session_updates_in_flight"] == 0.0
        for thread in threads:
            thread.join(timeout=30)
        assert session.votes_ingested == 2 * len(votes)

    def test_gauges_shape(self, votes):
        manager = SessionManager()
        manager.create(10, FAST)
        gauges = manager.gauges()
        assert gauges["sessions_active"] == 1.0
        assert gauges["sessions_stopped"] == 0.0
        assert gauges["session_votes_buffered"] == 0.0
        assert gauges["session_updates_in_flight"] == 0.0
