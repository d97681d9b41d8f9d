"""End-to-end tests for the HTTP ranking service (ephemeral ports)."""

import gc
import http.client
import json
import multiprocessing
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.config import PipelineConfig
from repro.datasets import make_scenario
from repro.exceptions import ConfigurationError
from repro.server import AdmissionGate, RankingServer, ServerConfig
from repro.service import BatchExecutor, BatchReport, JobStatus
from repro.session import rank_with_crowd
from repro.types import InferenceResult, Ranking
from repro.workers import QualityLevel

from tests.test_service_jobs import HOSTILE_VOTE_ROWS


def _get(url):
    """GET returning (status, parsed-or-text body)."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            raw = response.read()
            status = response.status
    except urllib.error.HTTPError as error:
        raw = error.read()
        status = error.code
    try:
        return status, json.loads(raw)
    except json.JSONDecodeError:
        return status, raw.decode("utf-8")


def _post(url, body, timeout=30):
    """POST raw bytes (or a JSON-able object); returns (status, body)."""
    if not isinstance(body, (bytes, bytearray)):
        body = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


SCENARIO_REQUEST = {
    "job_id": "e2e-scenario",
    "seed": 7,
    "scenario": {"n_objects": 12, "selection_ratio": 0.5,
                 "n_workers": 10, "workers_per_task": 5},
}


@pytest.fixture
def server(tmp_path):
    ranking_server = RankingServer(ServerConfig(
        port=0, workers=2, queue_depth=4, default_timeout=60.0,
        cache_dir=str(tmp_path / "cache"),
    ))
    ranking_server.start()
    yield ranking_server
    ranking_server.stop(drain_timeout=5.0)


@pytest.fixture
def thread_server(tmp_path):
    """The ``server`` fixture with attempts on the request threads, for
    tests that monkeypatch ``BatchExecutor._attempt`` in this process."""
    ranking_server = RankingServer(ServerConfig(
        port=0, workers=2, queue_depth=4, default_timeout=60.0,
        cache_dir=str(tmp_path / "cache"), backend="thread",
    ))
    ranking_server.start()
    yield ranking_server
    ranking_server.stop(drain_timeout=5.0)


class TestProbes:
    def test_healthz(self, server):
        status, body = _get(server.url + "/healthz")
        assert status == 200
        assert body["status"] == "ok"

    def test_readyz_while_serving(self, server):
        status, body = _get(server.url + "/readyz")
        assert status == 200
        assert body["status"] == "ready"

    def test_unknown_path_404(self, server):
        status, body = _get(server.url + "/nope")
        assert status == 404

    def test_wrong_method_405(self, server):
        status, body = _get(server.url + "/v1/rank")
        assert status == 405


class TestRank:
    def test_resync_interval_beyond_int64_is_served(self, thread_server):
        """A ``resync_every`` past int64 reaches the native kernel on the
        request thread and is answered like any interval that never
        resyncs, not wrapped to a modulus of zero (a crash of the
        whole process)."""
        answers = []
        for resync_every in (2**64, 10**9):
            request = dict(SCENARIO_REQUEST, config={
                "saps": {"resync_every": resync_every}})
            status, body = _post(thread_server.url + "/v1/rank", request)
            assert status == 200 and body["status"] == "succeeded", body
            assert body["result"]["metadata"]["search_algorithm"] == "saps"
            answers.append((body["ranking"],
                            body["result"]["log_preference"]))
        assert answers[0] == answers[1]

    def test_scenario_round_trip_matches_rank_with_crowd(self, server):
        status, body = _post(server.url + "/v1/rank", SCENARIO_REQUEST)
        assert status == 200
        assert body["status"] == "succeeded"

        # Mirror BatchExecutor._run_scenario exactly: one generator,
        # seeded with the job's seed, threads scenario + session.
        spec = SCENARIO_REQUEST["scenario"]
        rng = np.random.default_rng(SCENARIO_REQUEST["seed"])
        scenario = make_scenario(
            spec["n_objects"], spec["selection_ratio"],
            n_workers=spec["n_workers"],
            workers_per_task=spec["workers_per_task"],
            quality="gaussian", level=QualityLevel("medium"), rng=rng,
        )
        outcome = rank_with_crowd(
            scenario.ground_truth, scenario.pool,
            selection_ratio=spec["selection_ratio"],
            workers_per_task=spec["workers_per_task"],
            config=PipelineConfig(), rng=rng,
        )
        assert body["ranking"] == list(outcome.result.ranking.order)
        assert body["extras"]["accuracy"] == pytest.approx(outcome.accuracy)

    def test_votes_round_trip_is_deterministic(self, server):
        request = {
            "job_id": "e2e-votes",
            "seed": 3,
            "votes": {
                "n_objects": 4,
                "votes": [[0, 0, 1], [1, 0, 1], [0, 1, 2], [1, 1, 2],
                          [0, 2, 3], [1, 2, 3], [0, 0, 3], [1, 0, 3]],
            },
        }
        first_status, first = _post(server.url + "/v1/rank", request)
        assert first_status == 200
        assert sorted(first["ranking"]) == [0, 1, 2, 3]

        # The same work resubmitted under another id hits the cache and
        # returns the identical ranking.
        again = dict(request, job_id="other-id")
        second_status, second = _post(server.url + "/v1/rank", again)
        assert second_status == 200
        assert second["ranking"] == first["ranking"]
        assert second["from_cache"] is True
        assert second["attempts"] == 0

    def test_schema_and_job_id_are_optional(self, server):
        request = dict(SCENARIO_REQUEST)
        request.pop("job_id")
        status, body = _post(server.url + "/v1/rank", request)
        assert status == 200
        assert body["job_id"].startswith("req-")

    def test_malformed_json_is_400(self, server):
        status, body = _post(server.url + "/v1/rank", b"{not json")
        assert status == 400
        assert "invalid JSON" in body["error"]

    def test_deeply_nested_json_is_400(self, server):
        # Nesting past the decoder's recursion limit is a client error,
        # and the worker thread that hit it stays usable.
        nested = b"[" * 100_000 + b"]" * 100_000
        status, created = _post(server.url + "/v1/sessions",
                                {"n_objects": 5})
        assert status == 201
        paths = ["/v1/rank", "/v1/batch", "/v1/sessions",
                 f"/v1/sessions/{created['session_id']}/votes"]
        for path in paths:
            status, body = _post(server.url + path, nested)
            assert status == 400, path
            assert "invalid JSON" in body["error"]
            assert _get(server.url + "/readyz")[0] == 200

    def test_oversized_integer_is_400(self, server):
        # An integer literal past Python's int-to-string digit limit
        # (4,300 digits) fails to decode with a plain ValueError.
        huge = b'{"n_objects": ' + b"1" * 5000 + b"}"
        status, created = _post(server.url + "/v1/sessions",
                                {"n_objects": 5})
        assert status == 201
        paths = ["/v1/rank", "/v1/batch", "/v1/sessions",
                 f"/v1/sessions/{created['session_id']}/votes"]
        for path in paths:
            status, body = _post(server.url + path, huge)
            assert status == 400, path
            assert "invalid JSON" in body["error"]

    @pytest.mark.parametrize("seed", [True, -1])
    def test_bad_seed_is_400_before_admission(self, server, seed):
        """One seed rule for jobs and sessions: a JSON integer >= 0 or
        null.  A bad seed is refused at decode, never run."""
        request = dict(SCENARIO_REQUEST, seed=seed)
        status, body = _post(server.url + "/v1/rank", request)
        assert status == 400
        assert "seed" in body["error"]
        assert _get(server.url + "/readyz")[0] == 200

    def test_bad_job_payload_is_400(self, server):
        status, body = _post(server.url + "/v1/rank",
                             {"job_id": "x", "seed": 1,
                              "config": {"unknown_knob": 1},
                              "scenario": {"n_objects": 5,
                                           "selection_ratio": 0.5}})
        assert status == 400
        assert "unknown config field" in body["error"]

    def test_non_object_body_is_400(self, server):
        status, body = _post(server.url + "/v1/rank", [1, 2, 3])
        assert status == 400

    def test_invalid_timeout_is_400(self, server):
        status, body = _post(server.url + "/v1/rank",
                             dict(SCENARIO_REQUEST, timeout=-1))
        assert status == 400
        assert "timeout" in body["error"]

    def test_failed_job_is_422(self, thread_server, monkeypatch):
        def explode(self, job):
            raise ValueError("poisoned")

        monkeypatch.setattr(BatchExecutor, "_attempt", explode)
        status, body = _post(thread_server.url + "/v1/rank",
                             SCENARIO_REQUEST)
        assert status == 422
        assert body["status"] == "failed"
        assert "poisoned" in body["error"]

    @pytest.mark.parametrize("case", sorted(HOSTILE_VOTE_ROWS))
    def test_hostile_votes_are_400(self, server, case):
        rows, words = HOSTILE_VOTE_ROWS[case]
        status, body = _post(server.url + "/v1/rank", {
            "seed": 1, "votes": {"n_objects": 4, "votes": rows}})
        assert status == 400
        assert words in body["error"]

    def test_n_objects_beyond_int64_is_400(self, server):
        # Decoded once, such a job failed at inference with a 422
        # carrying a raw OverflowError.
        status, body = _post(server.url + "/v1/rank", {
            "seed": 1, "votes": {"n_objects": 2**63, "votes": [[0, 1, 0]]}})
        assert status == 400
        assert "votes.n_objects must be an integer within int64" \
            in body["error"]

    def test_zero_votes_are_422(self, server):
        status, body = _post(server.url + "/v1/rank", {
            "seed": 1, "votes": {"n_objects": 4, "votes": []}})
        assert status == 422
        assert body["error"].startswith("InferenceError")

    def test_deadline_maps_to_504(self, thread_server, monkeypatch):
        def crawl(self, job):
            time.sleep(5.0)

        monkeypatch.setattr(BatchExecutor, "_attempt", crawl)
        status, body = _post(thread_server.url + "/v1/rank",
                             dict(SCENARIO_REQUEST, timeout=0.1))
        assert status == 504
        assert body["status"] == "timed_out"


VOTES_REQUEST = {
    "job_id": "cached",
    "seed": 5,
    "votes": {"n_objects": 5, "votes": [
        [w, i, j] for w in range(4)
        for i in range(5) for j in range(i + 1, 5)
        if (i + j + w) % 3
    ]},
}


class TestCachedResponses:
    def test_hit_repeats_the_cold_ranking_and_result(self, server):
        status, cold = _post(server.url + "/v1/rank", VOTES_REQUEST)
        assert status == 200 and not cold["from_cache"]
        status, hit = _post(server.url + "/v1/rank", VOTES_REQUEST)
        assert status == 200 and hit["from_cache"]
        assert hit["ranking"] == cold["ranking"]
        assert hit["result"] == cold["result"]

    def test_indented_spill_file_warms_and_is_served(self, tmp_path):
        from repro.io import result_to_payload, save_result
        from repro.service import fingerprint_job, job_from_payload

        job = job_from_payload({"schema": "repro.job/1", **VOTES_REQUEST})
        (outcome,) = BatchExecutor().run([job]).results
        cache_dir = tmp_path / "cache"
        cache_dir.mkdir()
        # save_result writes indent=2, the spill layout of older versions.
        save_result(outcome.result, cache_dir / f"{fingerprint_job(job)}.json")
        ranking_server = RankingServer(ServerConfig(
            port=0, workers=1, cache_dir=str(cache_dir)))
        ranking_server.start()
        try:
            assert ranking_server.cache.stats()["size"] == 1
            status, body = _post(ranking_server.url + "/v1/rank",
                                 VOTES_REQUEST)
            stats = ranking_server.cache.stats()
        finally:
            ranking_server.stop(drain_timeout=5.0)
        assert status == 200 and body["from_cache"]
        assert stats["hits"] == 1 and stats["disk_loads"] == 0
        assert body["ranking"] == list(outcome.result.ranking.order)
        assert body["result"] == json.loads(
            json.dumps(result_to_payload(outcome.result)))


@pytest.mark.slow
class TestStepThreeOverflow:
    def test_lollipop_body_gets_a_4xx(self, server):
        """A fully compared 120-clique with a 380-chain off its last
        member, each pair won by the lower id 3 votes to 0: Step 3's
        walk sums overflow to inf and NaN, and the request is refused
        instead of ranked from pairs silently set to 0.5."""
        clique, n = 120, 500
        pairs = [(i, j) for i in range(clique) for j in range(i + 1, clique)]
        pairs += [(k, k + 1) for k in range(clique - 1, n - 1)]
        status, body = _post(server.url + "/v1/rank", {
            "seed": 1,
            "votes": {"n_objects": n,
                      "votes": [[w, i, j] for i, j in pairs
                                for w in range(3)]},
        }, timeout=120)
        assert 400 <= status < 500
        assert "not finite" in body["error"]


class TestBatch:
    def test_batch_round_trip(self, server):
        jobs = [
            {"job_id": f"b{i}", "seed": i,
             "scenario": {"n_objects": 10, "selection_ratio": 0.5,
                          "n_workers": 8, "workers_per_task": 5}}
            for i in range(3)
        ]
        status, body = _post(server.url + "/v1/batch", {"jobs": jobs})
        assert status == 200
        assert body["succeeded"] == 3
        assert [r["job_id"] for r in body["results"]] == ["b0", "b1", "b2"]
        assert all(r["status"] == "succeeded" for r in body["results"])
        assert "timers" in body["metrics"]

    def test_bare_list_body_is_accepted(self, server):
        status, body = _post(server.url + "/v1/batch", [SCENARIO_REQUEST])
        assert status == 200
        assert body["succeeded"] == 1

    def test_empty_batch_is_400(self, server):
        status, body = _post(server.url + "/v1/batch", {"jobs": []})
        assert status == 400

    def test_bad_job_names_its_index(self, server):
        status, body = _post(server.url + "/v1/batch",
                             {"jobs": [SCENARIO_REQUEST, {"job_id": ""}]})
        assert status == 400
        assert "jobs[1]" in body["error"]


#: A request that would pick its own fan-out: one SAPS restart per
#: object, 16 of them at once on the process backend.
FANOUT_SAPS = {"restarts": None, "parallel_restarts": 16,
               "backend": "process"}


@pytest.fixture
def process_starts(monkeypatch):
    """Records every child process started in this (server) process."""
    started = []
    original = multiprocessing.process.BaseProcess.start

    def start(self):
        started.append(self)
        return original(self)

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", start)
    return started


class TestRequestFanout:
    """Where work runs is the operator's choice: a request body may not
    set ``saps.backend`` or widen ``saps.parallel_restarts``."""

    def test_rank_rejects_request_fanout(self, server, process_starts):
        request = dict(SCENARIO_REQUEST, config={"saps": FANOUT_SAPS})
        status, body = _post(server.url + "/v1/rank", request)
        assert status == 400
        assert "config.saps.parallel_restarts" in body["error"]
        assert process_starts == []

    @pytest.mark.parametrize("saps", [{"backend": "serial"},
                                      {"parallel_restarts": 2}],
                             ids=["backend", "parallel_restarts"])
    def test_batch_rejects_request_fanout(self, server, process_starts,
                                          saps):
        jobs = [SCENARIO_REQUEST,
                dict(SCENARIO_REQUEST, config={"saps": saps})]
        status, body = _post(server.url + "/v1/batch", {"jobs": jobs})
        assert status == 400
        assert "jobs[1]" in body["error"]
        assert process_starts == []

    def test_session_create_rejects_request_fanout(self, server,
                                                   process_starts):
        status, body = _post(server.url + "/v1/sessions", {
            "n_objects": 30,
            "config": {"pipeline": {"saps": FANOUT_SAPS}},
        })
        assert status == 400
        assert "config.saps.backend" in body["error"]
        assert process_starts == []

    def test_default_fanout_values_are_accepted(self, server):
        request = dict(SCENARIO_REQUEST, config={
            "saps": {"backend": None, "parallel_restarts": 1,
                     "iterations": 300}})
        status, body = _post(server.url + "/v1/rank", request)
        assert status == 200


class TestConfigFieldTypes:
    def test_rank_rejects_float_iterations(self, server):
        request = dict(SCENARIO_REQUEST,
                       config={"saps": {"iterations": 1.5}})
        status, body = _post(server.url + "/v1/rank", request)
        assert status == 400
        assert "config.saps.iterations" in body["error"]

    def test_session_create_rejects_bool_iterations(self, server):
        status, body = _post(server.url + "/v1/sessions", {
            "n_objects": 8,
            "config": {"pipeline": {"saps": {"iterations": True}}},
        })
        assert status == 400
        assert "config.saps.iterations" in body["error"]


class TestLimits:
    def test_oversized_body_is_413(self, tmp_path):
        with RankingServer(ServerConfig(port=0, max_body_bytes=512,
                                        no_cache=True)) as server:
            status, body = _post(server.url + "/v1/rank",
                                 b"x" * 2048)
            assert status == 413
            assert "exceeds the limit" in body["error"]

    def test_oversized_batch_is_413(self, tmp_path):
        with RankingServer(ServerConfig(port=0, max_batch_jobs=2,
                                        no_cache=True)) as server:
            status, body = _post(server.url + "/v1/batch",
                                 {"jobs": [SCENARIO_REQUEST] * 3})
            assert status == 413
            assert "exceeds the limit" in body["error"]


def _raw_post(server, path, body, *, conn=None):
    """POST on a persistent connection; returns (connection, response,
    decoded body).  The response is fully read so the connection could
    be reused — whether it *may* be is what the tests assert via the
    ``Connection`` response header."""
    if conn is None:
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=30)
    conn.request("POST", path, body=body,
                 headers={"Content-Type": "application/json"})
    response = conn.getresponse()
    payload = json.loads(response.read())
    return conn, response, payload


class TestKeepAlive:
    """Errors sent before the body is read must close the connection,
    or the unread body desynchronizes keep-alive clients."""

    def test_post_to_unknown_path_closes_connection(self, server):
        body = json.dumps(SCENARIO_REQUEST).encode("utf-8")
        conn, response, payload = _raw_post(server, "/v1/nope", body)
        try:
            assert response.status == 404
            assert response.getheader("Connection") == "close"
        finally:
            conn.close()

    def test_saturated_rejection_closes_connection(self, monkeypatch):
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
        with RankingServer(ServerConfig(port=0, workers=1, queue_depth=1,
                                        no_cache=True,
                                        backend="thread")) as server:
            background = threading.Thread(target=_post, args=(
                server.url + "/v1/rank",
                {"job_id": "slow", "seed": 1,
                 "votes": {"n_objects": 2, "votes": [[0, 0, 1]]}},
            ))
            background.start()
            try:
                assert started.wait(timeout=10)
                body = json.dumps(SCENARIO_REQUEST).encode("utf-8")
                conn, response, payload = _raw_post(server, "/v1/rank", body)
                try:
                    assert response.status == 429
                    assert response.getheader("Connection") == "close"
                finally:
                    conn.close()
            finally:
                release.set()
                background.join(timeout=30)

    def test_successful_posts_reuse_one_connection(self, server):
        body = json.dumps(SCENARIO_REQUEST).encode("utf-8")
        conn = None
        try:
            for _ in range(2):
                conn, response, payload = _raw_post(
                    server, "/v1/rank", body, conn=conn)
                assert response.status == 200
                assert response.getheader("Connection") != "close"
                assert payload["status"] == "succeeded"
        finally:
            if conn is not None:
                conn.close()

    def test_small_responses_do_not_wait_for_delayed_ack(self, server):
        """Headers and body go out in separate writes; with Nagle's
        algorithm on, each small keep-alive response would wait ~40 ms
        for the client's delayed ACK."""
        conn = http.client.HTTPConnection(server.host, server.port,
                                          timeout=10)
        try:
            conn.request("GET", "/healthz")  # connect outside the timing
            conn.getresponse().read()
            start = time.perf_counter()
            for _ in range(5):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                assert response.status == 200
            assert time.perf_counter() - start < 0.150
        finally:
            conn.close()

    def test_consumed_body_error_keeps_connection(self, server):
        # 400 for malformed JSON happens after the body left the
        # socket, so keep-alive is safe and must be preserved.
        conn, response, payload = _raw_post(server, "/v1/rank", b"{not json")
        try:
            assert response.status == 400
            assert response.getheader("Connection") != "close"
        finally:
            conn.close()


#: An attempt's outcome for tests that replace ``BatchExecutor._attempt``.
_TINY = (InferenceResult(ranking=Ranking([0, 1]), log_preference=0.0), {})


def _free_slots(server):
    """How many of ``server``'s execution slots are free right now (all
    are taken and given straight back)."""
    taken = 0
    while server._slots.acquire(blocking=False):
        taken += 1
    for _ in range(taken):
        server._slots.release()
    return taken


def _run_batches(server, batches):
    """``server.execute_batch`` on each batch, all from threads at once."""
    reports = [None] * len(batches)

    def run(index):
        reports[index] = server.execute_batch(batches[index], timeout=30.0)

    threads = [threading.Thread(target=run, args=(index,))
               for index in range(len(batches))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    return reports


class TestExecutionSlots:
    """A request, a batch included, holds exactly one execution slot, so
    concurrent requests can never run more than ``config.workers`` jobs
    in total."""

    @staticmethod
    def _recording_executor(recorded):
        class Recorder:
            def __init__(self, workers, **kwargs):
                recorded["workers"] = workers
                recorded["deadline"] = kwargs.get("deadline")

            def run(self, jobs, keys=None, **options):
                if "server" in recorded:
                    recorded["free_slots"] = _free_slots(recorded["server"])
                return BatchReport(results=())

        return Recorder

    def _jobs(self, server, count):
        return [server.decode_job(dict(SCENARIO_REQUEST, job_id=f"s{i}"))
                for i in range(count)]

    def test_batch_holds_one_slot_and_releases_it(self, monkeypatch):
        from repro.server import app as app_module

        server = RankingServer(ServerConfig(workers=3, no_cache=True))
        recorded = {"server": server}
        monkeypatch.setattr(app_module, "BatchExecutor",
                            self._recording_executor(recorded))
        server.execute_batch(self._jobs(server, 5), timeout=None)
        assert recorded["workers"] == 1
        assert recorded["free_slots"] == 2
        assert _free_slots(server) == 3

    def test_concurrent_batches_run_side_by_side(self, monkeypatch):
        # Each batch's first job waits for the other batch's: both
        # pass only if the two batches run at once.
        barrier = threading.Barrier(2, timeout=10)
        monkeypatch.setattr(BatchExecutor, "_attempt",
                            lambda self, job: (barrier.wait(), _TINY)[1])
        server = RankingServer(ServerConfig(workers=2, no_cache=True,
                                            backend="thread"))
        reports = _run_batches(server, [self._jobs(server, 2)
                                        for _ in range(2)])
        assert [[r.status for r in report.results] for report in reports] \
            == [[JobStatus.SUCCEEDED] * 2] * 2

    def test_running_jobs_never_exceed_workers(self, monkeypatch):
        lock = threading.Lock()
        running = [0, 0]  # now, most ever

        def attempt(self, job):
            with lock:
                running[0] += 1
                running[1] = max(running)
            time.sleep(0.02)
            with lock:
                running[0] -= 1
            return _TINY

        monkeypatch.setattr(BatchExecutor, "_attempt", attempt)
        server = RankingServer(ServerConfig(workers=2, no_cache=True,
                                            backend="thread"))
        reports = _run_batches(server, [self._jobs(server, 3)
                                        for _ in range(4)])
        assert all(report.ok for report in reports)
        assert running == [0, 2]

    def test_request_timeout_becomes_absolute_deadline(self, monkeypatch):
        from repro.server import app as app_module

        recorded = {}
        monkeypatch.setattr(app_module, "BatchExecutor",
                            self._recording_executor(recorded))
        server = RankingServer(ServerConfig(workers=2, no_cache=True))
        before = time.monotonic()
        server.execute_batch(self._jobs(server, 1), timeout=30.0)
        assert before + 29.0 < recorded["deadline"] <= \
            time.monotonic() + 30.0
        server.execute_batch(self._jobs(server, 1), timeout=None)
        assert recorded["deadline"] is None


class TestBackpressure:
    def test_saturated_queue_yields_429_never_a_hang(self, monkeypatch):
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
        with RankingServer(ServerConfig(port=0, workers=1, queue_depth=1,
                                        no_cache=True,
                                        backend="thread")) as server:
            slow_result = {}

            def slow_request():
                slow_result["response"] = _post(
                    server.url + "/v1/rank",
                    {"job_id": "slow", "seed": 1,
                     "votes": {"n_objects": 2, "votes": [[0, 0, 1]]}},
                )

            thread = threading.Thread(target=slow_request)
            thread.start()
            assert started.wait(timeout=10)

            # The gate (capacity 1) is now full: the next request must
            # be rejected immediately with 429 + Retry-After.
            begin = time.monotonic()
            status, body = _post(server.url + "/v1/rank", SCENARIO_REQUEST)
            assert status == 429
            assert time.monotonic() - begin < 5.0
            assert "queue full" in body["error"]
            assert server.metrics.counter("http.rejected.saturated") == 1

            release.set()
            thread.join(timeout=30)
            status, body = slow_result["response"]
            assert status == 200

    def test_slot_wait_past_deadline_yields_503(self, monkeypatch):
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
        try:
            # workers=1 but queue_depth=2: the second request is admitted
            # yet cannot get an execution slot before its deadline.
            with RankingServer(ServerConfig(port=0, workers=1, queue_depth=2,
                                            no_cache=True,
                                            backend="thread")) as server:
                background = threading.Thread(target=_post, args=(
                    server.url + "/v1/rank",
                    {"job_id": "slow", "seed": 1,
                     "votes": {"n_objects": 2, "votes": [[0, 0, 1]]}},
                ))
                background.start()
                assert started.wait(timeout=10)
                status, body = _post(server.url + "/v1/rank",
                                     dict(SCENARIO_REQUEST, timeout=0.2))
                assert status == 503
                release.set()
                background.join(timeout=30)
        finally:
            release.set()


class TestGracefulDrain:
    def test_stop_finishes_inflight_and_rejects_new_work(self, monkeypatch):
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
        server = RankingServer(ServerConfig(port=0, workers=1, queue_depth=4,
                                            no_cache=True, backend="thread"))
        server.start()
        inflight = {}

        def slow_request():
            inflight["response"] = _post(
                server.url + "/v1/rank",
                {"job_id": "slow", "seed": 1,
                 "votes": {"n_objects": 2, "votes": [[0, 0, 1]]}},
            )

        request_thread = threading.Thread(target=slow_request)
        request_thread.start()
        assert started.wait(timeout=10)

        stop_outcome = {}
        stop_thread = threading.Thread(
            target=lambda: stop_outcome.update(
                drained=server.stop(drain_timeout=30)
            )
        )
        stop_thread.start()

        # Draining: readiness flips and new work is refused with 503.
        deadline = time.monotonic() + 10
        while server.ready and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not server.ready
        status, body = _get(server.url + "/readyz")
        assert status == 503
        status, body = _post(server.url + "/v1/rank", SCENARIO_REQUEST)
        assert status == 503
        assert "draining" in body["error"]

        # The in-flight request still completes, then stop() returns.
        release.set()
        request_thread.join(timeout=30)
        stop_thread.join(timeout=30)
        assert stop_outcome["drained"] is True
        assert inflight["response"][0] == 200

    def test_stop_is_idempotent(self):
        server = RankingServer(ServerConfig(port=0, no_cache=True))
        server.start()
        assert server.stop() is True
        assert server.stop() is True

    def test_embedded_server_leaves_gc_state_alone(self):
        # Only the `repro serve` entry points freeze the startup heap.
        frozen = gc.get_freeze_count()
        server = RankingServer(ServerConfig(port=0, no_cache=True))
        server.start()
        server.stop()
        assert gc.get_freeze_count() == frozen

    def test_stop_before_start_returns_promptly(self):
        # shutdown() handshakes with serve_forever(); a never-started
        # server must not wait on that handshake forever.
        server = RankingServer(ServerConfig(port=0, no_cache=True))
        assert server.stop(drain_timeout=0.1) is True
        assert server.stop() is True  # and stays idempotent


def _metrics_containing(server, needle, deadline=5.0):
    """Scrape /metrics until ``needle`` appears (or the deadline passes).

    A request's counters/timer are observed *after* its response bytes
    leave the socket, so an immediate scrape can race the tail of the
    handler — normal eventual-visibility for a Prometheus endpoint, but
    a flake for an exact assertion on a loaded box.
    """
    end = time.monotonic() + deadline
    while True:
        status, text = _get(server.url + "/metrics")
        assert status == 200
        if needle in text or time.monotonic() >= end:
            return text
        time.sleep(0.02)


class TestMetricsEndpoint:
    def test_prometheus_exposition(self, server):
        _post(server.url + "/v1/rank", SCENARIO_REQUEST)
        text = _metrics_containing(
            server, 'repro_http_request_seconds{quantile="0.95"}'
        )
        assert isinstance(text, str)
        assert "# TYPE repro_jobs_succeeded_total counter" in text
        assert "repro_jobs_succeeded_total 1" in text
        # p95 latency present as a summary quantile.
        assert 'repro_job_seconds{quantile="0.95"}' in text
        assert 'repro_http_request_seconds{quantile="0.95"}' in text
        assert "repro_job_seconds_count" in text
        # Server gauges.
        assert "repro_server_queue_capacity 4.0" in text
        assert "repro_server_draining 0.0" in text

    def test_http_counters_accumulate(self, server):
        for _ in range(3):
            _get(server.url + "/healthz")
        text = _metrics_containing(server, "repro_http_requests_healthz_total 3")
        assert "repro_http_requests_healthz_total 3" in text


class TestAdmissionGate:
    def test_capacity_enforced(self):
        gate = AdmissionGate(2)
        assert gate.try_acquire()
        assert gate.try_acquire()
        assert not gate.try_acquire()
        gate.release()
        assert gate.try_acquire()

    def test_release_without_acquire_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionGate(1).release()

    def test_wait_idle(self):
        gate = AdmissionGate(1)
        assert gate.wait_idle(timeout=0.1)
        gate.try_acquire()
        assert not gate.wait_idle(timeout=0.05)
        gate.release()
        assert gate.wait_idle(timeout=1.0)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            AdmissionGate(0)


class TestServerConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"workers": 0},
        {"queue_depth": 0},
        {"max_body_bytes": 0},
        {"default_timeout": -1.0},
        {"max_timeout": 0.0},
        {"max_batch_jobs": 0},
        {"drain_grace": 0.0},
    ])
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ServerConfig(**kwargs)

    def test_status_enum_covers_http_mapping(self):
        from repro.server.app import _STATUS_CODES

        assert set(_STATUS_CODES) == set(JobStatus)


class TestSharedCacheAcrossServers:
    def test_second_generation_serves_from_spill(self, tmp_path):
        # A restarted server answers from the spill its predecessor
        # left in the same cache directory.
        config = ServerConfig(port=0, workers=1, cache_dir=str(tmp_path))
        with RankingServer(config) as first:
            status, cold = _post(first.url + "/v1/rank", SCENARIO_REQUEST)
        assert status == 200
        assert cold["from_cache"] is False

        with RankingServer(ServerConfig(
            port=0, workers=1, cache_dir=str(tmp_path)
        )) as second:
            status, warm = _post(second.url + "/v1/rank", SCENARIO_REQUEST)
        assert status == 200
        assert warm["from_cache"] is True
        assert warm["ranking"] == cold["ranking"]


class TestPortBinding:
    def test_two_servers_cannot_share_a_port(self):
        first = RankingServer(ServerConfig(port=0, workers=1))
        try:
            first.start()
            with pytest.raises(OSError):
                RankingServer(
                    ServerConfig(port=first.port, workers=1)
                )
        finally:
            first.stop()
