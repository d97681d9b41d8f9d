"""The fault contract of ``repro serve``'s default execution path.

By default a server runs job attempts on its own persistent process
pool.  These tests drive a live server on that path: a job past its
deadline has its worker killed and replaced, a job that finds no free
worker in time times out saying so, a job that kills its worker fails
without taking readiness down, cache hits and sessions never reach the
pool, a graceful drain lets an in-flight job finish on its worker, and
a SIGKILLed ``repro serve`` takes its workers with it.  Faults are
injected by swapping the module-level attempt body, which the parent
pickles by reference to the workers.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro.server import RankingServer, ServerConfig
from repro.server import app as app_module
from repro.service import executor as executor_module
from repro.service.executor import _attempt_job
from repro.workers.backends import usable_cpus

from tests.test_server_http import VOTES_REQUEST, _post

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


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, response.read().decode("utf-8")


def _gone(pid):
    """True once ``pid`` has exited (a zombie counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except FileNotFoundError:
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

    def test_cache_hits_and_sessions_never_reach_the_pool(self):
        server = RankingServer(ServerConfig(port=0, workers=2))
        server.start()
        try:
            status, cold = _post(server.url + "/v1/rank", VOTES_REQUEST)
            assert status == 200 and not cold["from_cache"]
            server.backend.close()  # any use of the pool now fails
            status, hit = _post(server.url + "/v1/rank", VOTES_REQUEST)
            assert status == 200 and hit["from_cache"]
            assert hit["result"]["ranking"] == cold["result"]["ranking"]
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
