"""Fault injection for the execution backends and the executor on top.

These tests kill worker processes mid-task (``os._exit``, ``SIGKILL``)
and hang tasks past their deadlines, then assert the failure surfaces
as the right *typed* error in the right slot while everything else
completes — never a hang, never a lost task.  The ``hang_guard``
fixture converts any deadlock these faults might expose into a test
failure instead of a wedged run.

POSIX-only by nature (signals, ``fork``); the suite already assumes as
much elsewhere.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.exceptions import (
    ConfigurationError,
    ExecutionBackendError,
    TaskTimeoutError,
    WorkerCrashedError,
)
from repro.service import executor as executor_module
from repro.service.executor import BatchExecutor, _attempt_job
from repro.service.jobs import RankingJob, ScenarioSpec
from repro.types import Vote, VoteSet
from repro.service.retry import NO_RETRY, RetryPolicy, default_is_transient
from repro.workers.backends import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)
from repro.workers.pool import parallel_map

pytestmark = pytest.mark.usefixtures("hang_guard")

_FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()

# Communicates a tmp flag path into `_crash_once_attempt`; forked
# workers inherit the value set by the test.
_CRASH_FLAG = ""


# -- module-level task functions (picklable into worker processes) ----------

def _identity(x):
    return x


def _die_on_three(x):
    if x == 3:
        os._exit(42)
    return x * x


def _die_on_multiples_of_three(x):
    if x % 3 == 0:
        os._exit(9)
    return x * x


def _sigkill_self(x):
    if x == 0:
        os.kill(os.getpid(), signal.SIGKILL)
    return x


def _always_exit(x):
    os._exit(7)


def _sleep_if_negative(x):
    if x < 0:
        time.sleep(60.0)
    return x


def _square(x):
    return x * x


def _pid(_):
    return os.getpid()


def _hold(seconds):
    time.sleep(seconds)
    return os.getpid()


def _frozen_objects(_):
    return gc.get_freeze_count()


def _blas_helper_ticks(_):
    """CPU clock ticks that threads other than the main one spend while
    this process runs 40 BLAS matrix products."""
    import numpy as np

    def helpers():
        total = 0
        for tid in os.listdir("/proc/self/task"):
            if int(tid) != os.getpid():
                with open(f"/proc/self/task/{tid}/stat") as stat:
                    fields = stat.read().rsplit(")", 1)[1].split()
                total += int(fields[11]) + int(fields[12])
        return total

    matrix = np.random.default_rng(0).random((400, 400))
    matrix @ matrix
    time.sleep(0.3)  # past any start-up spin of BLAS threads
    before = helpers()
    for _ in range(40):
        matrix @ matrix
    return helpers() - before


def _crash_once_attempt(job):
    """First call kills its worker; later calls run the real attempt."""
    if not os.path.exists(_CRASH_FLAG):
        with open(_CRASH_FLAG, "w"):
            pass
        os._exit(3)
    return _attempt_job(job)


class _SlowToLoad:
    """An item whose unpickling sleeps a minute: a fresh worker loading
    it never reports ready."""

    def __init__(self):
        self.seconds = 60.0

    def __setstate__(self, state):
        time.sleep(state["seconds"])


def _touch_then_hold(item):
    """Create the file ``item[0]``, then sleep ``item[1]`` seconds: the
    file shows the item started."""
    path, seconds = item
    with open(path, "w"):
        pass
    time.sleep(seconds)
    return os.getpid()


def _crash_once_if_marked(job):
    """The real attempt, but a job whose id is a path ending ``.crash``
    kills its worker the first time (the file records that it did).
    Everything it needs travels with the job, so it behaves the same in
    a worker forked from a fork server."""
    if job.job_id.endswith(".crash") and not os.path.exists(job.job_id):
        with open(job.job_id, "w"):
            pass
        os._exit(3)
    return _attempt_job(job)


def _slow_attempt(job):
    """The real attempt after marking its start (the job id is a path)
    and sleeping half a second."""
    with open(job.job_id, "w"):
        pass
    time.sleep(0.5)
    return _attempt_job(job)


# -- backend-level crash isolation ------------------------------------------

class TestProcessCrashIsolation:
    def test_crash_is_typed_and_others_complete(self):
        outcomes = ProcessBackend().map(
            _die_on_three, list(range(6)), max_workers=2,
            return_exceptions=True,
        )
        assert isinstance(outcomes[3], WorkerCrashedError)
        assert "exit code 42" in str(outcomes[3])
        assert "task 3" in str(outcomes[3])
        for index in (0, 1, 2, 4, 5):
            # Tasks after the crash completing proves the dead worker
            # was respawned rather than its slot going dark.
            assert outcomes[index] == index * index

    def test_sigkill_mid_task(self):
        outcomes = ProcessBackend().map(
            _sigkill_self, [0, 1, 2], max_workers=2,
            return_exceptions=True,
        )
        assert isinstance(outcomes[0], WorkerCrashedError)
        assert outcomes[1:] == [1, 2]

    def test_raising_mode_raises_the_crash(self):
        with pytest.raises(WorkerCrashedError, match="task 3"):
            ProcessBackend().map(_die_on_three, list(range(6)),
                                 max_workers=2)

    def test_every_task_crashing_never_hangs(self):
        outcomes = ProcessBackend().map(
            _always_exit, list(range(4)), max_workers=2,
            return_exceptions=True,
        )
        assert all(isinstance(o, WorkerCrashedError) for o in outcomes)

    def test_crash_is_transient_for_the_retry_loop(self):
        assert default_is_transient(WorkerCrashedError("died")) is True
        # A timeout is not: the same job would time out again.
        assert default_is_transient(TaskTimeoutError("late")) is False


# -- deadlines ---------------------------------------------------------------

class TestDeadlines:
    def test_process_hung_task_is_killed_at_deadline(self):
        start = time.monotonic()
        outcomes = ProcessBackend().map(
            _sleep_if_negative, [1, -1, 2], max_workers=3, timeout=0.5,
            return_exceptions=True,
        )
        elapsed = time.monotonic() - start
        assert outcomes[0] == 1 and outcomes[2] == 2
        assert isinstance(outcomes[1], TaskTimeoutError)
        assert "worker killed" in str(outcomes[1])
        assert elapsed < 10.0  # nowhere near the 60s sleep

    def test_thread_hung_task_is_abandoned_at_deadline(self):
        outcomes = ThreadBackend().map(
            _sleep_if_negative, [1, -1, 2], max_workers=3, timeout=0.3,
            return_exceptions=True,
        )
        assert outcomes[0] == 1 and outcomes[2] == 2
        assert isinstance(outcomes[1], TaskTimeoutError)
        assert "abandoned" in str(outcomes[1])

    def test_serial_accepts_but_cannot_enforce_timeouts(self):
        assert SerialBackend().map(
            _identity, [1, 2], max_workers=1, timeout=5.0,
        ) == [1, 2]

    @pytest.mark.parametrize("backend", [ThreadBackend(), ProcessBackend()])
    def test_non_positive_timeout_rejected(self, backend):
        with pytest.raises(ConfigurationError):
            backend.map(_identity, [1], max_workers=1, timeout=0.0)


# -- the persistent pool -----------------------------------------------------

def _gone(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    return False


def _exited(pid):
    """True once ``pid`` has exited (a zombie counts as exited)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] in "ZX"
    except (FileNotFoundError, ProcessLookupError):
        # Reaped before the open, or between the open and the read.
        return True


class TestPersistentPool:
    def test_workers_are_reused_across_maps(self):
        backend = ProcessBackend()
        try:
            first = set(backend.map(_pid, range(4), max_workers=2))
            second = set(backend.map(_pid, range(4), max_workers=2))
            assert first == second == set(backend.pids)
            assert len(first) == 2 and os.getpid() not in first
        finally:
            backend.close()

    def test_crash_respawn_is_reported_and_keeps_the_width(self):
        respawns = []
        backend = ProcessBackend(workers=2,
                                 on_respawn=lambda: respawns.append(1))
        try:
            backend.start()
            before = set(backend.pids)
            outcomes = backend.map(_die_on_three, list(range(6)),
                                   max_workers=2, return_exceptions=True)
            assert isinstance(outcomes[3], WorkerCrashedError)
            assert respawns == [1]
            after = set(backend.pids)
            assert len(after) == 2 and len(before & after) == 1
        finally:
            backend.close()

    def test_map_if_idle_runs_only_on_an_idle_worker(self):
        backend = ProcessBackend(workers=1)
        held = threading.Thread(target=backend.map, args=(_hold, [1.0]),
                                kwargs={"max_workers": 1})
        try:
            backend.start()
            assert backend.map_if_idle(_pid, [0], max_workers=1) \
                == backend.pids
            assert backend.map_if_idle(_pid, [], max_workers=1) == []
            held.start()
            deadline = time.monotonic() + 10
            while backend.map_if_idle(_pid, [0], max_workers=1) is not None:
                assert time.monotonic() < deadline
            held.join(timeout=30)
            assert not held.is_alive()
            assert backend.map_if_idle(_square, [3], max_workers=1) == [9]
            backend.close()
            assert backend.map_if_idle(_pid, [0], max_workers=1) is None
        finally:
            if held.is_alive():
                held.join(timeout=30)
            backend.close()

    def test_task_that_does_not_unpickle_fails_alone(self, monkeypatch):
        """A function the workers cannot import fails its own task with
        the unpickling error; the worker lives on and serves the next."""
        respawns = []
        backend = ProcessBackend(workers=1,
                                 on_respawn=lambda: respawns.append(1))
        try:
            backend.start()
            before = backend.pids
            # A module-level name bound after the fork: the workers'
            # copy of this module lacks it.
            def late_task(x):
                return x * x

            late_task.__qualname__ = "_late_task"
            monkeypatch.setattr(sys.modules[__name__], "_late_task",
                                late_task, raising=False)
            outcomes = backend.map(late_task, [2, 3], max_workers=1,
                                   return_exceptions=True)
            assert all(isinstance(outcome, AttributeError)
                       for outcome in outcomes), outcomes
            assert "_late_task" in str(outcomes[0])
            assert backend.pids == before and respawns == []
            assert backend.map(_square, [4], max_workers=1) == [16]
        finally:
            backend.close()

    def test_workers_freeze_the_heap_they_start_with(self):
        backend = ProcessBackend(workers=1)
        try:
            (frozen,) = backend.map(_frozen_objects, [0], max_workers=1)
            assert frozen > 0
        finally:
            backend.close()

    def test_concurrent_maps_share_a_narrow_pool(self):
        backend = ProcessBackend(workers=1)
        results = {}

        def call(name):
            results[name] = backend.map(_hold, [0.2, 0.2], max_workers=2)

        threads = [threading.Thread(target=call, args=(n,)) for n in "ab"]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            (pid,) = backend.pids
            assert results == {"a": [pid, pid], "b": [pid, pid]}
        finally:
            backend.close()

    def test_many_threads_share_a_pool_narrower_than_the_host(self):
        backend = ProcessBackend(workers=2)
        results = {}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def call(name):
            results[name] = backend.map(_square, range(name, name + 6),
                                        max_workers=3)

        threads = [threading.Thread(target=call, args=(n,))
                   for n in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == {n: [x * x for x in range(n, n + 6)]
                               for n in range(8)}
            assert len(backend.pids) == 2
        finally:
            sys.setswitchinterval(interval)
            backend.close()

    def test_waiting_for_a_busy_pool_counts_against_the_deadline(self):
        backend = ProcessBackend(workers=1)
        holder = threading.Thread(
            target=backend.map, args=(_hold, [1.5]), kwargs={"max_workers": 1})
        try:
            backend.start()
            holder.start()
            time.sleep(0.2)
            outcomes = backend.map(_identity, [1, 2], max_workers=1,
                                   timeout=0.3, return_exceptions=True)
            assert all(isinstance(o, TaskTimeoutError) for o in outcomes)
            assert "no pool worker free" in str(outcomes[0])
        finally:
            holder.join(timeout=30)
            backend.close()

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="needs the forkserver start method")
    def test_forkserver_workers_run_tasks(self):
        # The fork server, not this process, is the workers' parent.
        backend = ProcessBackend(workers=2, start_method="forkserver")
        try:
            assert backend.map(_square, range(4), max_workers=2) \
                == [0, 1, 4, 9]
            assert backend.map(_square, range(4), max_workers=2,
                               return_exceptions=True) == [0, 1, 4, 9]
        finally:
            backend.close()

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods()
        or not os.path.exists(f"/proc/{os.getpid()}/stat"),
        reason="needs forkserver and Linux /proc")
    def test_forkserver_workers_die_with_a_sigkilled_owner(self):
        code = (
            "import time\n"
            "from repro.workers.backends import ProcessBackend\n"
            "backend = ProcessBackend(workers=2, "
            "start_method='forkserver')\n"
            "backend.start()\n"
            "print(*backend.pids, flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        owner = subprocess.Popen([sys.executable, "-c", code], env=env,
                                 stdout=subprocess.PIPE)
        pids = []
        try:
            pids = [int(pid) for pid in owner.stdout.readline().split()]
            assert len(pids) == 2
            owner.kill()
            deadline = time.monotonic() + 5.0
            while not all(map(_exited, pids)) \
                    and time.monotonic() < deadline:
                time.sleep(0.01)
            assert [pid for pid in pids if not _exited(pid)] == []
        finally:
            owner.kill()
            owner.wait(timeout=10)
            owner.stdout.close()
            for pid in pids:  # survivors of a failed check
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

    def test_close_and_collection_stop_the_workers(self):
        backend = ProcessBackend()
        pids = set(backend.map(_pid, range(2), max_workers=2))
        backend.close()
        assert backend.pids == [] and all(map(_gone, pids))
        with pytest.raises(ExecutionBackendError, match="closed"):
            backend.map(_identity, [1, 2], max_workers=2)
        backend = ProcessBackend()
        pids = set(backend.map(_pid, range(2), max_workers=2))
        del backend
        gc.collect()
        assert all(map(_gone, pids))

    @pytest.mark.skipif(not os.path.exists("/proc/self/task"),
                        reason="reads per-thread CPU time from /proc")
    def test_workers_run_blas_on_one_thread(self):
        """A worker is one core's share: its BLAS products run on its
        own thread (with OpenBLAS's default, a helper thread took 5-8
        ticks here on 2 vCPUs, and spun on after each product)."""
        backend = ProcessBackend(workers=1)
        try:
            (ticks,) = backend.map(_blas_helper_ticks, [0], max_workers=1)
            assert ticks <= 1
        finally:
            backend.close()

    @pytest.mark.skipif(not hasattr(threading, "_shutdown_locks_lock"),
                        reason="CPython < 3.13 thread-shutdown internals")
    def test_collection_inside_a_thread_start_does_not_deadlock(self):
        """A collection can run a dropped pool's finalizer inside a new
        thread's bootstrap, which holds threading's shutdown-locks lock;
        joining the spawner thread there took that lock again and hung
        a tier-1 run.  In a child process, so a regression times out
        instead of wedging the suite."""
        code = (
            "import threading\n"
            "from repro.workers.backends import ProcessBackend\n"
            "backend = ProcessBackend(workers=1)\n"
            "backend.start()\n"
            "with threading._shutdown_locks_lock:\n"
            "    backend.close()\n"
            "print('closed')\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        completed = subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   timeout=60)
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "closed"


class TestInlineFanout:
    """A map with nothing to fan out runs on the calling thread, whatever
    the backend: a pool worker running one cannot start children."""

    @pytest.mark.parametrize("backend", ["process", ProcessBackend()])
    def test_width_one_or_one_item_runs_inline(self, backend):
        assert parallel_map(_pid, [1, 2], max_workers=1,
                            backend=backend) == [os.getpid()] * 2
        assert parallel_map(_pid, [1], max_workers=4,
                            backend=backend) == [os.getpid()]

    def test_env_process_backend_inside_process_attempts(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "process")
        votes = VoteSet.from_votes(12, [
            Vote(worker=w, winner=i, loser=j) for w in range(4)
            for i in range(12) for j in range(i + 1, 12) if (i + j + w) % 3
        ])
        executor = BatchExecutor(1, backend="process", retry=NO_RETRY)
        report = executor.run([RankingJob(job_id="v", votes=votes, seed=1)])
        (result,) = report.results
        assert result.status.value == "succeeded", result.error


# -- streamed runs: one message per worker, one reply per item --------------

class TestStreamedRuns:
    """A map hands each borrowed worker one contiguous run of its items
    in one message; the worker answers each item as it finishes."""

    def test_a_run_stays_on_one_worker(self):
        backend = ProcessBackend(workers=2)
        try:
            pids = backend.map(_pid, range(6), max_workers=2)
            assert len(set(pids[:3])) == len(set(pids[3:])) == 1
            assert pids[0] != pids[3]
        finally:
            backend.close()

    def test_crash_at_item_k_hands_the_rest_to_the_replacement(self):
        respawns = []
        backend = ProcessBackend(workers=1,
                                 on_respawn=lambda: respawns.append(1))
        try:
            outcomes = backend.map(_die_on_three, list(range(6)),
                                   max_workers=1, return_exceptions=True)
            assert outcomes[:3] == [0, 1, 4] and outcomes[4:] == [16, 25]
            assert isinstance(outcomes[3], WorkerCrashedError)
            assert "task 3" in str(outcomes[3])
            assert respawns == [1] and len(backend.pids) == 1
        finally:
            backend.close()

    def test_hang_at_item_k_is_killed_at_its_deadline(self):
        respawns = []
        backend = ProcessBackend(workers=1,
                                 on_respawn=lambda: respawns.append(1))
        try:
            _warm(backend)
            start = time.monotonic()
            # Generous: item 3's timeout also covers its replacement
            # worker's start, a fraction of a second under forkserver.
            outcomes = backend.map(_sleep_if_negative, [1, 2, -1, 3],
                                   max_workers=1, timeout=2.0,
                                   return_exceptions=True)
            assert time.monotonic() - start < 10.0
            assert [outcomes[i] for i in (0, 1, 3)] == [1, 2, 3]
            assert isinstance(outcomes[2], TaskTimeoutError)
            assert "task 2" in str(outcomes[2])
            assert "worker killed" in str(outcomes[2])
            assert respawns == [1]
        finally:
            backend.close()

    def test_each_item_timeout_runs_from_its_own_start(self, tmp_path):
        backend = ProcessBackend(workers=1)
        try:
            _warm(backend)
            items = [(str(tmp_path / f"i{i}"), 0.3) for i in range(4)]
            pids = backend.map(_touch_then_hold, items, max_workers=1,
                               timeout=0.9)
            assert len(set(pids)) == 1  # 1.2 s in all, on one worker
        finally:
            backend.close()

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="needs the forkserver start method")
    def test_a_fresh_workers_start_up_is_not_charged_to_its_item(self):
        """A forkserver worker takes a fraction of a second to start;
        its first item's timeout runs from when it reports ready.  The
        task is ``time.sleep``, so loading the run imports nothing."""
        backend = ProcessBackend(workers=2, start_method="forkserver")
        try:
            outcomes = backend.map(time.sleep, [0.4] * 4, max_workers=2,
                                   timeout=0.5, return_exceptions=True)
            assert outcomes == [None] * 4
        finally:
            backend.close()

    def test_a_worker_never_ready_is_killed_at_its_timeout(self):
        backend = ProcessBackend(workers=1)
        try:
            start = time.monotonic()
            (outcome,) = backend.map(_identity, [_SlowToLoad()],
                                     max_workers=1, timeout=0.5,
                                     return_exceptions=True)
            assert time.monotonic() - start < 10.0
            assert isinstance(outcome, TaskTimeoutError)
            assert "worker killed" in str(outcome)
        finally:
            backend.close()

    def test_items_past_the_deadline_do_not_start(self, tmp_path):
        respawns = []
        backend = ProcessBackend(workers=1,
                                 on_respawn=lambda: respawns.append(1))
        try:
            _warm(backend)
            (pid,) = backend.pids
            items = [(str(tmp_path / f"i{i}"), 0.5) for i in range(4)]
            outcomes = backend.map(_touch_then_hold, items, max_workers=1,
                                   deadline=time.monotonic() + 0.8,
                                   return_exceptions=True)
            assert outcomes[0] == pid
            assert isinstance(outcomes[1], TaskTimeoutError)
            assert "worker killed" in str(outcomes[1])
            for index in (2, 3):
                assert isinstance(outcomes[index], TaskTimeoutError)
                assert "not started" in str(outcomes[index])
                assert "deadline" in str(outcomes[index])
            assert [os.path.exists(path) for path, _ in items] \
                == [True, True, False, False]
            assert respawns == [1]  # the worker killed in item 1
        finally:
            backend.close()

    def test_closing_mid_run_keeps_the_finished_items(self, tmp_path):
        """A pool closed under a run (a server stopping past its drain
        grace) kills the worker: the finished item keeps its result and
        the rest fail as closed, instead of the whole map raising."""
        backend = ProcessBackend(workers=1)
        _warm(backend)
        items = [(str(tmp_path / f"i{i}"), seconds)
                 for i, seconds in enumerate([0.0, 60.0, 0.0])]
        closer = threading.Timer(1.0, backend.close)
        closer.start()
        try:
            outcomes = backend.map(_touch_then_hold, items, max_workers=1,
                                   return_exceptions=True)
        finally:
            closer.join(timeout=30)
        assert isinstance(outcomes[0], int)
        assert isinstance(outcomes[1], WorkerCrashedError)
        assert isinstance(outcomes[2], ExecutionBackendError)
        assert "closed" in str(outcomes[2])
        assert not os.path.exists(items[2][0])

    def test_a_passed_deadline_starts_nothing(self, tmp_path):
        backend = ProcessBackend(workers=1)
        try:
            items = [(str(tmp_path / f"i{i}"), 0.0) for i in range(2)]
            outcomes = backend.map(_touch_then_hold, items, max_workers=1,
                                   deadline=time.monotonic() - 0.1,
                                   return_exceptions=True)
            assert all("not started" in str(o) for o in outcomes)
            assert not any(os.path.exists(path) for path, _ in items)
            assert backend.pids == []  # no worker was even forked
        finally:
            backend.close()


def _warm(backend):
    """Start ``backend``'s workers and wait until they serve a task
    from this module, so no timed item pays for a worker's start."""
    backend.map(_identity, range(backend.width), max_workers=backend.width)


def _marked_jobs(tmp_path, count, crash=()):
    """Scenario jobs whose ids are paths under ``tmp_path`` (``.crash``
    for the indices in ``crash``)."""
    return [
        RankingJob(
            job_id=str(tmp_path / (f"j{i}.crash" if i in crash
                                   else f"j{i}")),
            scenario=ScenarioSpec(n_objects=10, selection_ratio=0.5,
                                  n_workers=8),
            seed=90 + i,
        )
        for i in range(count)
    ]


class TestStreamedBatches:
    """The executor sends a batch's misses as one run per worker; a
    job's status, error kind and ``attempts`` stay what one task per
    job gave."""

    def test_crashed_job_is_retried_and_the_rest_of_the_run_completes(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(executor_module, "_attempt_job",
                            _crash_once_if_marked)
        from repro.server import RankingServer, ServerConfig

        server = RankingServer(ServerConfig(workers=1, no_cache=True))
        try:
            jobs = _marked_jobs(tmp_path, 6, crash=(2, 4))
            report = server.execute_batch(jobs, timeout=None)
            assert [r.status.value for r in report.results] \
                == ["succeeded"] * 6
            assert [r.attempts for r in report.results] \
                == [1, 1, 2, 1, 2, 1]
            # One respawn per crash, counted where the server counts it.
            assert server.metrics.counter("workers.respawned") == 2
            assert server.metrics.counter("retry.recovered") == 2
        finally:
            server.stop(drain_timeout=5.0)

    def test_deadline_times_out_the_running_job_and_skips_the_rest(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(executor_module, "_attempt_job", _slow_attempt)
        backend = ProcessBackend(workers=1)
        try:
            _warm(backend)
            executor = BatchExecutor(
                1, backend=backend, retry=NO_RETRY,
                deadline=time.monotonic() + 0.8,
            )
            jobs = _marked_jobs(tmp_path, 4)
            report = executor.run(jobs)
            statuses = [r.status.value for r in report.results]
            assert statuses == ["succeeded"] + ["timed_out"] * 3
            assert all(r.attempts == 1 for r in report.results)
            assert "worker killed" in report.results[1].error
            assert all("JobTimeoutError" in r.error and "deadline" in r.error
                       for r in report.results[1:])
            assert [os.path.exists(job.job_id) for job in jobs] \
                == [True, True, False, False]
        finally:
            backend.close()


# -- the executor built on top ----------------------------------------------

def _scenario_jobs(count, n_objects=10):
    return [
        RankingJob(
            job_id=f"f{i}",
            scenario=ScenarioSpec(n_objects=n_objects, selection_ratio=0.5,
                                  n_workers=8),
            seed=70 + i,
        )
        for i in range(count)
    ]


class TestExecutorFaults:
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_exhausted_deadline_times_out_on_every_backend(self, backend):
        executor = BatchExecutor(
            workers=2, backend=backend, retry=NO_RETRY,
            deadline=time.monotonic() - 0.1,
        )
        report = executor.run(_scenario_jobs(3))
        assert [r.status.value for r in report.results] == ["timed_out"] * 3
        assert all("deadline" in r.error for r in report.results)

    def test_process_timeout_kills_the_worker(self):
        executor = BatchExecutor(
            workers=1, backend="process", retry=NO_RETRY, timeout=0.01,
        )
        report = executor.run(_scenario_jobs(1, n_objects=60))
        (result,) = report.results
        assert result.status.value == "timed_out"
        assert "worker killed" in result.error

    @pytest.mark.skipif(not _FORK_AVAILABLE,
                        reason="crash-retry injection relies on fork "
                               "inheriting the patched attempt body")
    def test_crashed_attempt_is_retried_on_a_fresh_worker(
            self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys.modules[__name__], "_CRASH_FLAG",
                            str(tmp_path / "crashed-once"))
        monkeypatch.setattr(executor_module, "_attempt_job",
                            _crash_once_attempt)
        executor = BatchExecutor(
            workers=1, backend="process",
            retry=RetryPolicy(max_attempts=2, base_delay=0.01,
                              max_delay=0.01),
        )
        report = executor.run(_scenario_jobs(1))
        (result,) = report.results
        assert result.status.value == "succeeded"
        assert result.attempts == 2

    @pytest.mark.skipif(not _FORK_AVAILABLE,
                        reason="crash-retry injection relies on fork "
                               "inheriting the patched attempt body")
    def test_unrecoverable_crash_fails_the_job_not_the_batch(
            self, monkeypatch):
        monkeypatch.setattr(executor_module, "_attempt_job", _always_exit)
        executor = BatchExecutor(workers=2, backend="process",
                                 retry=NO_RETRY)
        report = executor.run(_scenario_jobs(2))
        assert [r.status.value for r in report.results] == ["failed"] * 2
        assert all("WorkerCrashedError" in r.error for r in report.results)


@pytest.mark.slow
class TestCrashSoak:
    """Many crash/respawn cycles in one map call — exercises the pool's
    replacement path far past what the tier-1 tests need."""

    def test_interleaved_crashes_over_many_tasks(self):
        items = list(range(60))  # every third task kills its worker
        outcomes = ProcessBackend().map(
            _die_on_multiples_of_three, items, max_workers=4,
            return_exceptions=True,
        )
        for index, outcome in enumerate(outcomes):
            if index % 3 == 0:
                assert isinstance(outcome, WorkerCrashedError)
            else:
                assert outcome == index * index

    def test_repeated_maps_reuse_nothing_poisoned(self):
        backend = ProcessBackend()
        for round_number in range(5):
            outcomes = backend.map(
                _die_on_three, list(range(5)), max_workers=2,
                return_exceptions=True,
            )
            assert isinstance(outcomes[3], WorkerCrashedError)
            assert [outcomes[i] for i in (0, 1, 2, 4)] == [0, 1, 4, 16]
