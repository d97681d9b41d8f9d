"""The fault contract of ``repro serve``'s default execution path.

By default a server runs job attempts, and the request codec when a
worker is idle, on its own persistent process pool.  These tests drive
a live server on that path: a job past its deadline has its worker
killed and replaced, a job that finds no free worker in time times out
saying so, a job that kills its worker fails without taking readiness
down, cache hits and sessions are answered without the pool once it
is closed, a graceful drain lets an in-flight job finish on its
worker, and a SIGKILLed ``repro serve`` takes its workers with it.
The codec contract: a hostile body gets the same answer whether it
was decoded on a worker or on the request thread, a cache hit never
waits behind a busy pool, and a worker lost mid-decode costs that
request only.  Session updates run on the pool with the answers of
the inline path, and one that loses its worker or overruns leaves the
session as it was.  A result crosses the pool hop as arrays: neither
side builds a per-pair dict of its direct preferences.  Faults are
injected by swapping the module-level attempt body,
:func:`~repro.server.app.prepare_request` or
:func:`~repro.streaming.session.update_engine`, which the parent
pickles by reference to the workers.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.client import RankingClient
from repro.inference import RankingPipeline
from repro.io import result_to_payload
from repro.server import RankingServer, ServerConfig
from repro.server import app as app_module
from repro.service import executor as executor_module
from repro.service import job_from_payload
from repro.service.executor import _attempt_job
from repro.service.retry import NO_RETRY
from repro.streaming import session as session_module
from repro.streaming import session_to_payload
from repro.types import PairValues
from repro.workers.backends import usable_cpus

from tests.test_server_http import SCENARIO_REQUEST, VOTES_REQUEST, _post
from tests.test_server_sessions import FAST_SESSION_CONFIG
from tests.test_service_jobs import HOSTILE_VOTE_ROWS

pytestmark = pytest.mark.usefixtures("hang_guard")

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _fault_attempt(job):
    """The attempt body, with a fault picked by the job id."""
    if job.job_id == "hang":
        time.sleep(60.0)
    if job.job_id == "crash":
        os._exit(3)
    if job.job_id.startswith("slow:"):
        # "slow:<dir>": announce the start in <dir>, then await release.
        handshake = Path(job.job_id[len("slow:"):])
        (handshake / "started").touch()
        deadline = time.monotonic() + 30.0
        while not (handshake / "release").exists():
            assert time.monotonic() < deadline
            time.sleep(0.01)
    return _attempt_job(job)


_prepare_request = app_module.prepare_request


def _fault_prepare(task):
    """The request codec, losing its worker on a marked body; it
    refuses to run the marked body anywhere but on a pool worker."""
    if b"crash-decode" in task.body:
        if multiprocessing.parent_process() is None:
            raise AssertionError("a lost decode was re-run inline")
        os._exit(3)
    return _prepare_request(task)


_update_engine = session_module.update_engine


def _crash_update(task):
    """A session update that loses its worker; it refuses to run
    anywhere but on a pool worker."""
    if multiprocessing.parent_process() is None:
        raise AssertionError("a lost session update was re-run inline")
    os._exit(3)


def _hang_update(task):
    time.sleep(60.0)
    return _update_engine(task)


def _clean_update(task):
    """The real update under a name of this module.  Restoring the
    library's own name would not do: a worker forked while a fault was
    patched in holds the fault under that name."""
    return _update_engine(task)


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read().decode("utf-8")


def _gone(pid):
    """True once ``pid`` has exited (a zombie counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except (FileNotFoundError, ProcessLookupError):
        # Reaped before the open, or between the open and the read.
        return True


@pytest.fixture
def pool_server(monkeypatch):
    monkeypatch.setattr(executor_module, "_attempt_job", _fault_attempt)
    server = RankingServer(ServerConfig(port=0, workers=2, queue_depth=4,
                                        no_cache=True))
    server.start()
    yield server
    server.stop(drain_timeout=5.0)


def _request(job_id, **extra):
    return dict(VOTES_REQUEST, job_id=job_id, **extra)


def _respelled(payload):
    """``payload`` as other bytes than ``_post`` sends for it, so the
    server decodes it instead of answering from its request memo."""
    return json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")


class TestDefaultBackend:
    def test_server_defaults_to_its_own_process_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        server = RankingServer(ServerConfig(port=0, workers=8))
        try:
            assert server.backend.name == "process"
            assert server.backend.width == min(8, usable_cpus())
            assert len(server.backend.pids) == server.backend.width
        finally:
            server.stop()
        assert server.backend.pids == []

    def test_pool_width_is_workers_capped_by_the_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        monkeypatch.setattr(app_module, "usable_cpus", lambda: 3)
        for workers, width in ((8, 3), (3, 3), (2, 2), (1, 1)):
            server = RankingServer(ServerConfig(port=0, workers=workers))
            try:
                assert server.backend.width == width
            finally:
                server.stop()

    def test_flag_then_env_var_choose_another_backend(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "thread")
        server = RankingServer(ServerConfig(port=0))
        assert server.backend.name == "thread"
        server.stop()
        monkeypatch.setenv("REPRO_BACKEND", "process")
        server = RankingServer(ServerConfig(port=0, backend="serial"))
        assert server.backend.name == "serial"
        server.stop()

    def test_pool_width_gauge(self, pool_server):
        status, text = _get(pool_server.url + "/metrics")
        assert status == 200
        width = float(pool_server.backend.width)
        assert f"\nrepro_server_pool_width {width}\n" in text
        assert "\nrepro_server_workers 2.0\n" in text


class TestFaultContract:
    def test_deadline_kills_and_replaces_the_worker(self, pool_server):
        before = set(pool_server.backend.pids)
        status, body = _post(pool_server.url + "/v1/rank",
                             _request("hang", timeout=0.5))
        assert status == 504
        assert body["status"] == "timed_out"
        assert "worker killed" in body["error"]
        after = set(pool_server.backend.pids)
        assert len(after) == len(before)
        (killed,) = before - after
        assert _gone(killed)
        assert pool_server.metrics.counter("workers.respawned") == 1
        status, body = _post(pool_server.url + "/v1/rank", _request("ok"))
        assert status == 200
        assert body["status"] == "succeeded"

    def test_no_free_worker_within_the_deadline_says_so(self, monkeypatch):
        monkeypatch.setattr(executor_module, "_attempt_job", _fault_attempt)
        monkeypatch.setattr(app_module, "usable_cpus", lambda: 1)
        server = RankingServer(ServerConfig(port=0, workers=2,
                                            queue_depth=4, no_cache=True))
        server.start()
        hung = {}
        holder = threading.Thread(target=lambda: hung.update(
            response=_post(server.url + "/v1/rank",
                           _request("hang", timeout=2.0))))
        try:
            assert server.backend.width == 1
            holder.start()
            time.sleep(0.3)  # the hang holds the only worker
            status, body = _post(server.url + "/v1/rank",
                                 _request("ok", timeout=0.5))
            assert status == 504
            assert "no pool worker free" in body["error"]
            assert "killed" not in body["error"]
            holder.join(timeout=30)
            assert hung["response"][0] == 504
            assert "worker killed" in hung["response"][1]["error"]
        finally:
            holder.join(timeout=30)
            server.stop()

    def test_worker_crash_fails_the_job_not_the_server(self, pool_server):
        status, body = _post(pool_server.url + "/v1/rank",
                             _request("crash"))
        assert status == 422
        assert body["status"] == "failed"
        assert "WorkerCrashedError" in body["error"]
        # Every attempt (the crash is retried as transient) lost and
        # replaced its worker.
        assert pool_server.metrics.counter("workers.respawned") \
            == body["attempts"] >= 1
        assert _get(pool_server.url + "/readyz")[0] == 200
        assert len(pool_server.backend.pids) == pool_server.backend.width
        status, body = _post(pool_server.url + "/v1/rank", _request("ok"))
        assert status == 200
        status, text = _get(pool_server.url + "/metrics")
        assert "repro_workers_respawned_total" in text

    def test_cache_hits_and_sessions_need_no_pool(self):
        server = RankingServer(ServerConfig(port=0, workers=2))
        server.start()
        try:
            status, cold = _post(server.url + "/v1/rank", VOTES_REQUEST)
            assert status == 200 and not cold["from_cache"]
            server.backend.close()  # any use of the pool now fails
            status, hit = _post(server.url + "/v1/rank",
                                _respelled(VOTES_REQUEST))
            assert status == 200 and hit["from_cache"]
            # A closed pool has no idle worker: the body decoded here.
            assert server.metrics.counter("server.decode.inline") == 1
            assert hit["result"]["ranking"] == cold["result"]["ranking"]
            # The cold body's exact bytes again: the memo answers.
            status, memo = _post(server.url + "/v1/rank", VOTES_REQUEST)
            assert status == 200 and memo["from_cache"]
            assert memo["result"] == hit["result"]
            assert server.metrics.counter("server.request_memo.hits") == 1
            assert server.metrics.counter("server.decode.inline") == 1
            status, view = _post(server.url + "/v1/sessions", {
                "n_objects": 5, "config": {"min_votes": 1}})
            assert status == 201
            status, view = _post(
                f"{server.url}/v1/sessions/{view['session_id']}/votes",
                {"votes": VOTES_REQUEST["votes"]["votes"]})
            assert status == 200
            assert sorted(view["ranking"]) == list(range(5))
        finally:
            server.stop()


def _hostile_requests():
    """(route, body) pairs every server must refuse before running."""
    def votes(rows):
        return {"seed": 1, "votes": {"n_objects": 4, "votes": rows}}

    huge = b'{"n_objects": ' + b"1" * 5000 + b"}"
    nested = b"[" * 100_000 + b"]" * 100_000
    fanout = dict(SCENARIO_REQUEST, config={"saps": {
        "parallel_restarts": 16, "backend": "process"}})
    requests = [("/v1/rank", votes(rows))
                for rows, _ in map(HOSTILE_VOTE_ROWS.get,
                                   sorted(HOSTILE_VOTE_ROWS))]
    requests += [(path, body) for path in ("/v1/rank", "/v1/batch")
                 for body in (huge, nested, b"{not json")]
    requests += [
        ("/v1/rank", dict(SCENARIO_REQUEST, seed=True)),
        ("/v1/rank", dict(SCENARIO_REQUEST, seed=-1)),
        ("/v1/rank", dict(SCENARIO_REQUEST, timeout=-1)),
        ("/v1/rank", {"seed": 1}),  # auto-named job, neither votes nor scenario
        ("/v1/rank", {"seed": 1, "votes": {"n_objects": 2**63, "votes": []}}),
        ("/v1/rank", fanout),
        ("/v1/batch", {"jobs": [SCENARIO_REQUEST, fanout]}),
        ("/v1/batch", {"jobs": [SCENARIO_REQUEST, {"job_id": ""}]}),
        ("/v1/rank", [1, 2, 3]),
        ("/v1/batch", "jobs"),
        ("/v1/batch", {"jobs": []}),
        ("/v1/batch", {"jobs": [SCENARIO_REQUEST] * 3}),
    ]
    return requests


class TestRequestCodec:
    """``/v1/rank`` and ``/v1/batch`` bodies are decoded by one
    function, on an idle pool worker or on the request thread."""

    def test_hostile_bodies_get_the_same_answer_pooled_or_inline(self):
        answers = {}
        for backend in ("process", "thread"):
            server = RankingServer(ServerConfig(
                port=0, workers=2, max_batch_jobs=2, backend=backend))
            server.start()
            try:
                answers[backend] = [
                    _post(server.url + path, body)
                    for path, body in _hostile_requests()
                ]
                counters = (server.metrics.counter("server.decode.pooled"),
                            server.metrics.counter("server.decode.inline"))
                metrics = _get(server.url + "/metrics")[1]
            finally:
                server.stop()
            count = len(answers[backend])
            if backend == "process":
                assert counters == (count, 0)
                assert f"repro_server_decode_pooled_total {count}" \
                    in metrics
            else:
                assert counters == (0, count)
                assert f"repro_server_decode_inline_total {count}" \
                    in metrics
        assert answers["process"] == answers["thread"]
        statuses = {status for status, _ in answers["process"]}
        assert statuses == {400, 413}

    def test_cache_hit_does_not_wait_for_a_busy_pool(self, monkeypatch,
                                                     tmp_path):
        monkeypatch.setattr(executor_module, "_attempt_job", _fault_attempt)
        monkeypatch.setattr(app_module, "usable_cpus", lambda: 1)
        server = RankingServer(ServerConfig(port=0, workers=2,
                                            queue_depth=4))
        server.start()
        held = {}
        holder = threading.Thread(target=lambda: held.update(
            response=_post(server.url + "/v1/rank",
                           _request(f"slow:{tmp_path}", seed=6))))
        try:
            assert server.backend.width == 1
            status, cold = _post(server.url + "/v1/rank", VOTES_REQUEST)
            assert status == 200 and not cold["from_cache"]
            holder.start()
            deadline = time.monotonic() + 10
            while not (tmp_path / "started").exists():
                assert time.monotonic() < deadline
                time.sleep(0.01)
            inline = server.metrics.counter("server.decode.inline")
            asked = time.monotonic()
            status, hit = _post(server.url + "/v1/rank",
                                _respelled(VOTES_REQUEST), timeout=5)
            assert time.monotonic() - asked < 1.0
            assert status == 200 and hit["from_cache"]
            assert hit["result"] == cold["result"]
            assert server.metrics.counter("server.decode.inline") \
                == inline + 1
            # A byte-identical repeat needs no decode at all.
            asked = time.monotonic()
            status, memo = _post(server.url + "/v1/rank", VOTES_REQUEST,
                                 timeout=5)
            assert time.monotonic() - asked < 1.0
            assert status == 200 and memo["from_cache"]
            assert memo["result"] == cold["result"]
            assert server.metrics.counter("server.request_memo.hits") == 1
            assert server.metrics.counter("server.decode.inline") \
                == inline + 1
        finally:
            (tmp_path / "release").touch()
            holder.join(timeout=30)
            server.stop()
        assert held["response"][0] == 200

    def test_decoded_cache_hit_does_not_wait_for_a_slot(self, monkeypatch,
                                                        tmp_path):
        # One execution slot, held by a cold job: a hit in other bytes
        # (decoded, found by its fingerprint) is answered without one.
        monkeypatch.setattr(executor_module, "_attempt_job", _fault_attempt)
        monkeypatch.setattr(app_module, "usable_cpus", lambda: 1)
        server = RankingServer(ServerConfig(port=0, workers=1,
                                            queue_depth=4))
        server.start()
        held = {}
        holder = threading.Thread(target=lambda: held.update(
            response=_post(server.url + "/v1/rank",
                           _request(f"slow:{tmp_path}", seed=7))))
        try:
            status, cold = _post(server.url + "/v1/rank", VOTES_REQUEST)
            assert status == 200 and not cold["from_cache"]
            holder.start()
            deadline = time.monotonic() + 10
            while not (tmp_path / "started").exists():
                assert time.monotonic() < deadline
                time.sleep(0.01)
            for body in (_respelled(VOTES_REQUEST),
                         {"jobs": [VOTES_REQUEST, VOTES_REQUEST]}):
                path = "/v1/rank" if isinstance(body, bytes) \
                    else "/v1/batch"
                asked = time.monotonic()
                status, hit = _post(server.url + path, body, timeout=5)
                assert time.monotonic() - asked < 1.0
                assert status == 200
                for result in hit.get("results", [hit]):
                    assert result["from_cache"]
                    assert result["result"] == cold["result"]
            assert server.metrics.counter("server.request_memo.hits") == 0
            assert server.metrics.counter("http.rejected.slot_timeout") == 0
        finally:
            (tmp_path / "release").touch()
            holder.join(timeout=30)
            server.stop()
        assert held["response"][0] == 200

    def test_worker_lost_mid_decode_costs_only_that_request(
            self, monkeypatch):
        monkeypatch.setattr(app_module, "prepare_request", _fault_prepare)
        server = RankingServer(ServerConfig(port=0, workers=2,
                                            no_cache=True))
        server.start()
        try:
            for path, body in (
                    ("/v1/rank", _request("crash-decode")),
                    ("/v1/batch", {"jobs": [_request("crash-decode")]})):
                status, body = _post(server.url + path, body)
                assert status == 503, body
                assert "request decode lost its pool worker" \
                    in body["error"]
                assert "WorkerCrashedError" in body["error"]
                assert _get(server.url + "/readyz")[0] == 200
            assert server.metrics.counter("server.decode.inline") == 0
            assert server.metrics.counter("workers.respawned") == 2
            assert len(server.backend.pids) == server.backend.width
            status, body = _post(server.url + "/v1/rank", _request("ok"))
            assert status == 200 and body["status"] == "succeeded"
            assert server.metrics.counter("server.decode.pooled") == 3
        finally:
            server.stop()


def _session_votes():
    # Votes of tests.test_server_sessions' votes fixture, in chunks.
    from repro.datasets import make_scenario
    from repro.experiments.runner import collect_votes

    votes = [[v.worker, v.winner, v.loser] for v in collect_votes(
        make_scenario(10, 0.6, n_workers=8, rng=5), rng=5).votes]
    return [votes[start:start + 30] for start in range(0, len(votes), 30)]


def _without_id(view):
    return {key: value for key, value in view.items()
            if key != "session_id"}


def _session_state(server, session_id):
    session = server.sessions.get(session_id)
    return (session_to_payload(session), session._engine,
            session._rng.bit_generator.state, session.view())


class TestSessionUpdates:
    """Session ingests run :func:`update_engine` on the pool."""

    def test_pool_and_thread_servers_give_equal_views(self):
        chunks = _session_votes()
        views = {}
        for backend in ("process", "thread"):
            server = RankingServer(ServerConfig(
                port=0, workers=2, no_cache=True, backend=backend))
            server.start()
            try:
                client = RankingClient(server.url, retry=NO_RETRY)
                session_id = client.create_session(
                    10, config=FAST_SESSION_CONFIG)["session_id"]
                views[backend] = [
                    _without_id(client.submit_votes(session_id, chunk))
                    for chunk in chunks]
                counters = (
                    server.metrics.counter("server.session_update.pooled"),
                    server.metrics.counter("server.session_update.inline"))
                metrics = client.metrics_text()
            finally:
                server.stop()
            count = len(chunks)
            if backend == "process":
                assert counters == (count, 0)
                assert f"repro_server_session_update_pooled_total {count}" \
                    in metrics
            else:
                assert counters == (0, count)
                assert f"repro_server_session_update_inline_total {count}" \
                    in metrics
        assert views["process"] == views["thread"]

    def test_worker_lost_mid_update_leaves_the_session_as_it_was(
            self, monkeypatch):
        first, second = _session_votes()[:2]
        server = RankingServer(ServerConfig(port=0, workers=2,
                                            no_cache=True))
        server.start()
        try:
            client = RankingClient(server.url, retry=NO_RETRY)
            hit, twin = (client.create_session(
                10, config=FAST_SESSION_CONFIG)["session_id"]
                for _ in range(2))
            client.submit_votes(hit, first)
            client.submit_votes(twin, first)
            before = _session_state(server, hit)
            monkeypatch.setattr(session_module, "update_engine",
                                _crash_update)
            status, body = _post(f"{server.url}/v1/sessions/{hit}/votes",
                                 {"votes": second})
            assert status == 503, body
            assert "session update lost its pool worker" in body["error"]
            assert "WorkerCrashedError" in body["error"]
            assert _get(server.url + "/readyz")[0] == 200
            assert _session_state(server, hit) == before
            assert server.metrics.counter("workers.respawned") == 1
            monkeypatch.setattr(session_module, "update_engine",
                                _clean_update)
            assert _without_id(client.submit_votes(hit, second)) \
                == _without_id(client.submit_votes(twin, second))
            assert server.metrics.counter("server.session_update.inline") \
                == 0
        finally:
            server.stop()

    def test_update_past_max_timeout_is_504(self, monkeypatch):
        first, second = _session_votes()[:2]
        server = RankingServer(ServerConfig(port=0, workers=2,
                                            no_cache=True, max_timeout=2.0))
        server.start()
        try:
            client = RankingClient(server.url, retry=NO_RETRY)
            session_id = client.create_session(
                10, config=FAST_SESSION_CONFIG)["session_id"]
            client.submit_votes(session_id, first)
            before = _session_state(server, session_id)
            monkeypatch.setattr(session_module, "update_engine",
                                _hang_update)
            status, body = _post(
                f"{server.url}/v1/sessions/{session_id}/votes",
                {"votes": second})
            assert status == 504, body
            assert "session update timed out" in body["error"]
            assert "worker killed" in body["error"]
            assert _session_state(server, session_id) == before
            assert _get(server.url + "/readyz")[0] == 200
        finally:
            server.stop()


class TestGracefulDrain:
    def test_stop_finishes_inflight_and_rejects_new_work(
            self, monkeypatch, tmp_path):
        monkeypatch.setattr(executor_module, "_attempt_job", _fault_attempt)
        server = RankingServer(ServerConfig(port=0, workers=2,
                                            queue_depth=4, no_cache=True))
        server.start()
        assert server.backend.name == "process"
        inflight, stop_outcome = {}, {}
        slow = _request(f"slow:{tmp_path}")
        request_thread = threading.Thread(target=lambda: inflight.update(
            response=_post(server.url + "/v1/rank", slow)))
        stop_thread = threading.Thread(target=lambda: stop_outcome.update(
            drained=server.stop(drain_timeout=30)))
        try:
            request_thread.start()
            deadline = time.monotonic() + 10
            while not (tmp_path / "started").exists():
                assert time.monotonic() < deadline
                time.sleep(0.01)
            stop_thread.start()

            # Draining: readiness flips and new work is refused with 503.
            deadline = time.monotonic() + 10
            while server.ready and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not server.ready
            assert _get_status(server.url + "/readyz") == 503
            status, body = _post(server.url + "/v1/rank", _request("ok"))
            assert status == 503
            assert "draining" in body["error"]

            # The in-flight job finishes on its worker, then stop()
            # returns and closes the pool.
            (tmp_path / "release").touch()
            request_thread.join(timeout=30)
            stop_thread.join(timeout=30)
            assert stop_outcome["drained"] is True
            status, body = inflight["response"]
            assert status == 200 and body["status"] == "succeeded"
            assert server.backend.pids == []
        finally:
            (tmp_path / "release").touch()
            request_thread.join(timeout=30)
            if stop_thread.is_alive():
                stop_thread.join(timeout=30)
            server.stop()


def _get_status(url):
    try:
        return _get(url)[0]
    except urllib.error.HTTPError as error:
        return error.code


def _children(pid):
    """Child pids of ``pid`` (Linux ``/proc``)."""
    found = set()
    for task in os.listdir(f"/proc/{pid}/task"):
        with open(f"/proc/{pid}/task/{task}/children") as handle:
            found.update(int(child) for child in handle.read().split())
    return found


def _refuse_pair_dict(self):
    raise AssertionError("the serve path built a {pair: value} dict")


class TestColumnarResults:
    """A large-``n`` result crosses the serve path as arrays: Step 1,
    the sparse engine, the pickle to the parent, the cache and the
    response encoder never build a per-pair dict."""

    @pytest.mark.parametrize("engine", ["hodge", "lsq", "crh_saps"])
    def test_serve_path_never_builds_the_pair_dict(self, monkeypatch,
                                                    tmp_path, engine):
        config = {"engine": engine,
                  "saps": {"iterations": 300, "restarts": 1}}
        request = {
            "job_id": f"columnar-{engine}", "seed": 3, "config": config,
            "votes": {"n_objects": 30, "votes": [
                [w, i, j] if (i * 7 + j + w) % 5 else [w, j, i]
                for w in range(3) for i in range(30)
                for j in range(i + 1, 30) if (i + 2 * j + w) % 4 == 0
            ]},
        }
        # Patched before the server forks its workers, so both sides of
        # the pool hop refuse.
        monkeypatch.setattr(PairValues, "_as_dict", _refuse_pair_dict)
        server = RankingServer(ServerConfig(
            port=0, workers=2, cache_dir=str(tmp_path / "cache")))
        server.start()
        try:
            cold = _post(server.url + "/v1/rank", request)
            hit = _post(server.url + "/v1/rank", _respelled(request))
        finally:
            server.stop()
        monkeypatch.undo()
        assert cold[0] == 200, cold
        assert hit[0] == 200 and hit[1]["from_cache"], hit
        job = job_from_payload(dict(request, schema="repro.job/1"))
        expected = RankingPipeline(job.config).run(
            job.votes, np.random.default_rng(job.seed))
        for body in (cold[1], hit[1]):
            assert body["result"]["direct_preferences"] == \
                result_to_payload(expected)["direct_preferences"]
            assert body["ranking"] == list(expected.ranking.order)


@pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/task"),
                    reason="needs Linux /proc and its parent-death signal")
def test_sigkilled_server_takes_its_workers_along():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_BACKEND", None)
    env.pop("REPRO_MP_START", None)  # spawn would add a resource tracker
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", "2"],
        env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )
    eof = threading.Event()

    def drain():
        proc.stderr.read()
        eof.set()

    reader = threading.Thread(target=drain, daemon=True)
    workers = set()
    try:
        line = proc.stderr.readline()
        assert b"serving on" in line, line
        workers = _children(proc.pid)
        assert len(workers) == min(2, usable_cpus())
        proc.kill()
        reader.start()
        assert eof.wait(1.0), "a worker kept the server's stderr open"
        deadline = time.monotonic() + 1.0
        while not all(map(_gone, workers)) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert [pid for pid in workers if not _gone(pid)] == []
    finally:
        proc.kill()
        proc.wait(timeout=10)
        for pid in workers:  # survivors of a failed check
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        if reader.is_alive():
            reader.join(timeout=5.0)
        proc.stderr.close()
