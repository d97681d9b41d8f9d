"""End-to-end tests for the session endpoints of the HTTP service and
the matching :class:`RankingClient` methods."""

import json
import urllib.request

import pytest

from repro.client import RankingClient, ServerError
from repro.config import PipelineConfig, PropagationConfig, SAPSConfig
from repro.datasets import make_scenario
from repro.experiments.runner import collect_votes
from repro.server import RankingServer, ServerConfig
from repro.service.retry import NO_RETRY

from tests.result_invariants import assert_view_invariants

FAST_SESSION_CONFIG = {
    "pipeline": {
        "saps": {"iterations": 1000, "restarts": 1},
        "propagation": {"max_hops": 4, "method": "walks"},
    },
    "warm_iterations": 300,
    "early_stop": False,
}


@pytest.fixture(scope="module")
def votes():
    scenario = make_scenario(10, 0.6, n_workers=8, rng=5)
    return [[v.worker, v.winner, v.loser]
            for v in collect_votes(scenario, rng=5).votes]


@pytest.fixture
def server():
    ranking_server = RankingServer(ServerConfig(
        port=0, workers=2, queue_depth=8, no_cache=True,
    ))
    ranking_server.start()
    yield ranking_server
    ranking_server.stop(drain_timeout=5.0)


@pytest.fixture
def client(server):
    return RankingClient(server.url, retry=NO_RETRY)


def _request(url, method, body=None):
    data = None if body is None else json.dumps(body).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestSessionLifecycle:
    def test_create_ingest_rank_delete(self, client, votes):
        view = client.create_session(10, config=FAST_SESSION_CONFIG)
        session_id = view["session_id"]
        assert view["verdict"] == "collecting"
        assert view["ranking"] is None
        assert_view_invariants(view)

        for start in range(0, len(votes), 40):
            view = client.submit_votes(session_id,
                                       votes[start:start + 40])
            assert_view_invariants(view)
        assert view["votes_ingested"] == len(votes)
        assert view["update_mode"] in ("full", "incremental")
        assert sorted(view["ranking"]) == list(range(10))

        ranking = client.session_ranking(session_id)
        assert_view_invariants(ranking)
        assert ranking["ranking"] == view["ranking"]
        assert ranking["updates"]["full"] >= 1

        deleted = client.delete_session(session_id)
        assert deleted["deleted"] == session_id
        with pytest.raises(ServerError) as excinfo:
            client.session_ranking(session_id)
        assert excinfo.value.status == 404

    def test_early_stop_answers_409(self, client, votes):
        view = client.create_session(10, config={
            **FAST_SESSION_CONFIG,
            "early_stop": True,
            "warm_iterations": 1000,
            "stability_window": 3,
            "stability_threshold": 0.1,
            "min_votes": 40,
        })
        session_id = view["session_id"]
        stopped = False
        for start in range(0, len(votes), 10):
            view = client.submit_votes(session_id,
                                       votes[start:start + 10])
            if view["verdict"] == "stopped":
                stopped = True
                break
        assert stopped, "session never early-stopped"
        with pytest.raises(ServerError) as excinfo:
            client.submit_votes(session_id, votes[:1])
        assert excinfo.value.status == 409

    def test_metrics_expose_session_gauges(self, server, client, votes):
        view = client.create_session(10, config=FAST_SESSION_CONFIG)
        client.submit_votes(view["session_id"], votes[:20])
        text = client.metrics_text()
        assert "repro_sessions_active 1" in text
        assert "repro_session_votes_ingested_total 20" in text
        assert "repro_session_updates_full_total 1" in text
        assert "repro_session_votes_buffered 20" in text


class TestSessionErrors:
    def test_unknown_session_404(self, server):
        status, body = _request(
            server.url + "/v1/sessions/nope/ranking", "GET"
        )
        assert status == 404
        assert "nope" in body["error"]

    def test_session_cap_429(self, votes):
        capped = RankingServer(ServerConfig(
            port=0, workers=1, no_cache=True, max_sessions=1,
        ))
        capped.start()
        try:
            client = RankingClient(capped.url, retry=NO_RETRY)
            client.create_session(5)
            with pytest.raises(ServerError) as excinfo:
                client.create_session(5)
            assert excinfo.value.status == 429
        finally:
            capped.stop(drain_timeout=5.0)

    def test_wrong_method_405(self, server):
        status, _ = _request(server.url + "/v1/sessions", "GET")
        assert status == 405
        status, _ = _request(
            server.url + "/v1/sessions/abc/ranking", "POST", {}
        )
        assert status == 405

    @pytest.mark.parametrize("body", [
        {},                                   # missing n_objects
        {"n_objects": "ten"},                 # wrong type
        {"n_objects": True},                  # bool is not an int here
        {"n_objects": 0},                     # out of range
        {"n_objects": 5, "config": {"bogus": 1}},
        {"n_objects": 5, "config": {"truth_damping": 0.5}},  # retired
    ])
    def test_bad_create_400(self, server, body):
        status, decoded = _request(
            server.url + "/v1/sessions", "POST", body
        )
        assert status == 400
        assert "error" in decoded

    @pytest.mark.parametrize("n_objects", [2**63, 10**30])
    def test_n_objects_beyond_int64_is_400(self, server, n_objects):
        # Accepted once, such a session answered 500 to every ingest
        # and suggest.
        status, decoded = _request(
            server.url + "/v1/sessions", "POST", {"n_objects": n_objects}
        )
        assert status == 400
        assert "within int64" in decoded["error"]
        assert len(server.sessions) == 0

    @pytest.mark.parametrize("n_objects", [2**62, 2**32])
    def test_n_objects_past_the_addressable_matrix_is_400(self, server,
                                                          n_objects):
        # Within int64, such a session was created (201) and its first
        # ingest answered 500 (numpy: "array is too big").
        status, decoded = _request(
            server.url + "/v1/sessions", "POST", {"n_objects": n_objects}
        )
        assert status == 400
        assert "addressable size" in decoded["error"]
        assert len(server.sessions) == 0

    def test_bad_votes_400(self, server, client):
        view = client.create_session(5)
        url = f"{server.url}/v1/sessions/{view['session_id']}/votes"
        status, _ = _request(url, "POST", {"votes": [[1, 0]]})
        assert status == 400
        status, _ = _request(url, "POST", {"votes": [[0, 0, 9]]})
        assert status == 400

    def test_rejected_ingest_buffers_none_of_its_votes(self, server, client):
        # The first two votes of a batch refused for its third used to
        # stay buffered and drive every later ranking.
        view = client.create_session(5, config=FAST_SESSION_CONFIG)
        url = f"{server.url}/v1/sessions/{view['session_id']}/votes"
        status, _ = _request(url, "POST",
                             {"votes": [[1, 0, 1], [1, 2, 3], [1, 0, 9]]})
        assert status == 400
        status, view = _request(url, "POST", {"votes": [[1, 0, 1]]})
        assert status == 200 and view["votes_ingested"] == 1
        assert "\nrepro_session_votes_buffered 1.0\n" in client.metrics_text()

    def test_unrankable_ingest_422(self, monkeypatch, votes):
        """An update whose Step 3 matrix is not finite answers 422 with
        the inference error, and the session keeps its votes as they
        were."""
        from repro.exceptions import InferenceError
        from repro.streaming import incremental

        def overflowing(*args, **kwargs):
            raise InferenceError("Step 3: the propagated preference "
                                 "matrix is not finite")

        monkeypatch.setattr(incremental, "propagate_matrix", overflowing)
        with RankingServer(ServerConfig(port=0, no_cache=True,
                                        backend="thread")) as server:
            client = RankingClient(server.url, retry=NO_RETRY)
            view = client.create_session(10, config=FAST_SESSION_CONFIG)
            url = f"{server.url}/v1/sessions/{view['session_id']}/votes"
            status, decoded = _request(url, "POST", {"votes": votes})
            assert status == 422
            assert "not finite" in decoded["error"]
            assert client.session_ranking(view["session_id"]) == view

    @pytest.mark.parametrize("votes", [
        [[0, 1.7, 2]],
        [["3", True, 0.2]],
        [{"worker": 1e0, "winner": "4", "loser": False}],
        [[0, 1, 1]],
    ])
    def test_non_integer_vote_ids_400(self, server, client, votes):
        """Floats, bools and strings are rejected, not truncated into
        a vote on the wrong objects, and nothing is ingested."""
        view = client.create_session(5)
        url = f"{server.url}/v1/sessions/{view['session_id']}/votes"
        status, decoded = _request(url, "POST", {"votes": votes})
        assert status == 400
        assert "error" in decoded
        status, ranking = _request(
            f"{server.url}/v1/sessions/{view['session_id']}/ranking", "GET")
        assert status == 200
        assert ranking == view


    @pytest.mark.parametrize("config", [
        {"seed": "abc"},              # was a 500 from ensure_rng
        {"seed": 1.5},                # was a 500
        {"seed": -1},                 # was a 500
        {"seed": True},               # was accepted as seed 1
        {"early_stop": "false"},      # was read as True
        {"stability_window": 2.7},    # was truncated to 2
    ])
    def test_mistyped_config_400(self, server, config):
        """Session knobs and seeds decode with their exact JSON types;
        the server stays ready."""
        status, decoded = _request(
            server.url + "/v1/sessions", "POST",
            {"n_objects": 5, "config": config},
        )
        assert status == 400
        assert "error" in decoded
        status, _ = _request(server.url + "/readyz", "GET")
        assert status == 200

    def test_seed_null_and_zero_accepted(self, server):
        for seed in (None, 0):
            status, _ = _request(
                server.url + "/v1/sessions", "POST",
                {"n_objects": 5, "config": {"seed": seed}},
            )
            assert status == 201


class TestDrainWaitsForSessions:
    def test_stop_reports_clean_drain(self, votes):
        server = RankingServer(ServerConfig(
            port=0, workers=2, no_cache=True,
        ))
        server.start()
        client = RankingClient(server.url, retry=NO_RETRY)
        view = client.create_session(10, config=FAST_SESSION_CONFIG)
        client.submit_votes(view["session_id"], votes[:30])
        assert server.stop(drain_timeout=10.0)
