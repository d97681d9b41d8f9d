"""Tests for the urllib-based ranking client (against a live server)."""

import socket
import threading

import pytest

from repro.client import RankingClient, ServerError, ServerUnavailableError
from repro.server import RankingServer, ServerConfig
from repro.service import (
    BatchExecutor,
    RankingJob,
    RetryPolicy,
    ScenarioSpec,
)
from repro.types import InferenceResult, Ranking


@pytest.fixture
def server():
    ranking_server = RankingServer(ServerConfig(
        port=0, workers=2, queue_depth=4, default_timeout=60.0,
        no_cache=True,
    ))
    ranking_server.start()
    yield ranking_server
    ranking_server.stop(drain_timeout=5.0)


@pytest.fixture
def client(server):
    return RankingClient(server.url, timeout=30.0)


@pytest.fixture
def thread_client():
    """A client of a server that runs attempts on its request threads,
    for tests that monkeypatch ``BatchExecutor._attempt`` here."""
    ranking_server = RankingServer(ServerConfig(
        port=0, workers=2, queue_depth=4, default_timeout=60.0,
        no_cache=True, backend="thread",
    ))
    ranking_server.start()
    yield RankingClient(ranking_server.url, timeout=30.0)
    ranking_server.stop(drain_timeout=5.0)


class TestProbes:
    def test_health_and_ready(self, client):
        assert client.health() is True
        assert client.ready() is True

    def test_metrics_text(self, client):
        client.rank(scenario={"n_objects": 8, "selection_ratio": 0.5,
                              "n_workers": 6}, seed=1)
        text = client.metrics_text()
        assert "repro_jobs_succeeded_total 1" in text


class TestRank:
    def test_scenario_dict_round_trip(self, client):
        outcome = client.rank(
            scenario={"n_objects": 10, "selection_ratio": 0.5,
                      "n_workers": 8},
            seed=3,
        )
        assert outcome.ok
        assert sorted(outcome.result.ranking.order) == list(range(10))
        assert 0.0 <= outcome.extras["accuracy"] <= 1.0

    def test_config_dict_fills_defaults(self, client):
        outcome = client.rank(
            scenario={"n_objects": 8, "selection_ratio": 0.5, "n_workers": 6},
            config={"saps": {"iterations": 500, "restarts": 1}},
            seed=4,
        )
        assert outcome.ok
        assert sorted(outcome.result.ranking.order) == list(range(8))

    def test_votes_round_trip(self, client, tiny_votes):
        outcome = client.rank(votes=tiny_votes, seed=5)
        assert outcome.ok
        assert sorted(outcome.result.ranking.order) == [0, 1, 2, 3]

    def test_prepared_job(self, client):
        job = RankingJob(job_id="prep", scenario=ScenarioSpec(8, 0.5,
                                                              n_workers=6),
                         seed=2)
        outcome = client.rank_job(job)
        assert outcome.job_id == "prep"
        assert outcome.ok

    def test_failed_job_returns_result_not_raise(self, thread_client,
                                                 monkeypatch):
        def explode(self, job):
            raise ValueError("poisoned")

        monkeypatch.setattr(BatchExecutor, "_attempt", explode)
        outcome = thread_client.rank(scenario={"n_objects": 8,
                                               "selection_ratio": 0.5},
                                     seed=1)
        assert not outcome.ok
        assert "poisoned" in outcome.error

    def test_bad_request_raises_server_error(self, client):
        with pytest.raises(ServerError) as excinfo:
            client.rank(scenario={"n_objects": 8, "selection_ratio": 0.5},
                        seed=1, timeout=-2)
        assert excinfo.value.status == 400

    def test_batch(self, client):
        jobs = [RankingJob(job_id=f"c{i}",
                           scenario=ScenarioSpec(8, 0.5, n_workers=6),
                           seed=i)
                for i in range(3)]
        results = client.batch(jobs)
        assert [r.job_id for r in results] == ["c0", "c1", "c2"]
        assert all(r.ok for r in results)

    def test_empty_batch_never_touches_the_network(self):
        client = RankingClient("http://127.0.0.1:9")  # discard port
        assert client.batch([]) == []


class TestRetries:
    def test_unreachable_server_raises_after_retries(self):
        # Grab a port that nothing listens on.
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = RankingClient(
            f"http://127.0.0.1:{port}",
            retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0),
        )
        with pytest.raises(ServerUnavailableError):
            client.rank(scenario={"n_objects": 8, "selection_ratio": 0.5},
                        seed=1)

    def test_backpressure_is_retried_until_capacity_frees(self, server,
                                                          monkeypatch):
        release = threading.Event()
        started = threading.Event()

        def blocked(self, job):
            started.set()
            assert release.wait(timeout=30)
            return (
                InferenceResult(ranking=Ranking([0, 1]), log_preference=0.0),
                {},
            )

        monkeypatch.setattr(BatchExecutor, "_attempt", blocked)
        saturating = RankingServer(ServerConfig(port=0, workers=1,
                                                queue_depth=1,
                                                no_cache=True,
                                                backend="thread"))
        saturating.start()
        try:
            hog = RankingClient(saturating.url, timeout=30.0)
            hog_outcome = {}
            hog_thread = threading.Thread(target=lambda: hog_outcome.update(
                result=hog.rank_job(RankingJob(
                    job_id="hog",
                    scenario=ScenarioSpec(8, 0.5, n_workers=6), seed=1,
                ))
            ))
            hog_thread.start()
            assert started.wait(timeout=10)

            # While the gate is full the client sees 429s; once the hog
            # finishes, a retry lands and succeeds.
            retrying = RankingClient(
                saturating.url, timeout=30.0,
                retry=RetryPolicy(max_attempts=8, base_delay=0.05,
                                  max_delay=0.2),
            )
            release_timer = threading.Timer(0.3, release.set)
            release_timer.start()
            outcome = retrying.rank_job(RankingJob(
                job_id="patient",
                scenario=ScenarioSpec(8, 0.5, n_workers=6), seed=2,
            ))
            assert outcome.ok
            hog_thread.join(timeout=30)
            assert hog_outcome["result"].ok
            assert saturating.metrics.counter("http.rejected.saturated") >= 1
        finally:
            release.set()
            saturating.stop(drain_timeout=5.0)
