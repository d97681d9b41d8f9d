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
