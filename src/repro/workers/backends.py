"""Pluggable execution backends for the library's compute fan-out.

Every parallel path in the repo — SAPS restarts, the batch executor
behind ``repro batch`` and ``repro serve`` — funnels through one
order-preserving map primitive.  This module provides three
interchangeable implementations of it:

``serial``
    An inline loop on the calling thread.  Zero overhead, trivially
    deterministic — the oracle the other two are tested against.
    Cannot enforce per-task deadlines (nothing to interrupt).
``thread``
    A bounded thread pool.  Cheap to start and shares memory, but the
    GIL serialises pure-Python work, so CPU-bound tasks (the SAPS
    annealing kernel, the CRH truth-discovery loop) gain little beyond
    overlap of their numpy sections.  Per-task deadlines *abandon* the
    worker thread (Python cannot kill threads): the task's slot raises
    :class:`~repro.exceptions.TaskTimeoutError` while the stray thread
    runs to completion in the background.
``process``
    A persistent ``multiprocessing`` pool with pickle-safe dispatch,
    per-task deadlines and crash isolation.  Workers are forked once
    and reused by every later ``map`` call, from any thread; each call
    borrows idle workers and returns them when done.  Each borrowed
    worker takes one contiguous run of the call's tasks in one message
    over a dedicated pipe and answers each task as it finishes; a
    worker that dies mid-task (signal, ``os._exit``, OOM kill) surfaces
    a typed :class:`~repro.exceptions.WorkerCrashedError` for that task
    and is **respawned**, and the replacement takes the rest of the
    run, so the remaining tasks still complete and the pool never
    hangs.  A task that outlives its deadline has its worker killed (a
    real cancellation, unlike threads) and replaced, and raises
    :class:`~repro.exceptions.TaskTimeoutError`.  Tasks, their
    arguments and their results must be picklable; the task function
    must be importable from the worker (module-level, or a
    ``functools.partial`` over one).  On Linux the workers die with
    their parent process, SIGKILL included.

Determinism: all three backends return results in **input order**
regardless of completion order, so a deterministic reduction over the
results (e.g. "first minimum wins") gives the same answer on every
backend — the property the SAPS parallel-restart path and the
differential test suite (``tests/test_backends_equivalence.py``) rely
on.

Selection: callers pass a backend name (or instance) explicitly, or
leave it ``None`` to let :func:`resolve_backend` consult the
``REPRO_BACKEND`` environment variable and finally fall back to
``"thread"`` (the pre-backend behaviour of every call site).
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import threading
import time
import traceback
import weakref
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from ..diagnostics import get_logger
from ..exceptions import (
    ConfigurationError,
    ExecutionBackendError,
    TaskTimeoutError,
    WorkerCrashedError,
)

_log = get_logger("workers.backends")

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Environment variable consulted by :func:`resolve_backend` when no
#: backend is named explicitly.
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Environment variable overriding the multiprocessing start method of
#: the process backend ("fork", "spawn" or "forkserver").
START_METHOD_ENV_VAR = "REPRO_MP_START"

#: Default backend when neither the caller nor the environment chooses.
DEFAULT_BACKEND = "thread"


def get_mp_context(start_method: Optional[str] = None):
    """Resolve the library's :mod:`multiprocessing` context.

    The policy the process backend's worker pool starts its workers
    by: an explicit ``start_method`` wins, then the ``REPRO_MP_START``
    environment variable, then ``fork`` where available (cheap on
    POSIX) with a ``spawn`` fallback.

    Raises
    ------
    ConfigurationError
        When the requested start method is not available on this
        platform.
    """
    import multiprocessing

    method = start_method or os.environ.get(START_METHOD_ENV_VAR)
    available = multiprocessing.get_all_start_methods()
    if method is None:
        method = "fork" if "fork" in available else "spawn"
    elif method not in available:
        raise ConfigurationError(
            f"start method {method!r} not available (have {available})"
        )
    return multiprocessing.get_context(method)


class RemoteTaskError(ExecutionBackendError):
    """A task failed in a worker process with an unpicklable exception.

    Carries the original exception's type name and formatted traceback;
    raised in the parent in its stead.
    """

    def __init__(self, type_name: str, message: str, trace: str):
        super().__init__(f"{type_name}: {message}")
        self.type_name = type_name
        self.trace = trace


class ExecutionBackend:
    """Order-preserving map over a pool of workers (abstract base)."""

    #: Registry key; also what ``Config``/CLI flags name.
    name: str = "abstract"

    def map(
        self,
        fn: Callable[[_T], _R],
        items: Sequence[_T],
        *,
        max_workers: int,
        timeout: Optional[float] = None,
        return_exceptions: bool = False,
    ) -> List[_R]:
        """Apply ``fn`` to every item; results come back in input order.

        Parameters
        ----------
        fn / items:
            The task function and its inputs.  The process backend
            additionally requires both (and the results) to be
            picklable.
        max_workers:
            Pool width; execution never exceeds this concurrency.
        timeout:
            Per-task wall-clock deadline in seconds.  ``None`` means
            unbounded.  Enforcement is backend-specific (kill /
            abandon / unsupported) — see the module docstring.
        return_exceptions:
            When true, a failed task contributes its exception
            *instance* to the result list instead of raising, and every
            task runs to completion.  When false (default), the
            exception of the earliest-indexed failed task is raised;
            whether later tasks still executed is backend-specific and
            deliberately unobservable through the return value.
        """
        raise NotImplementedError

    def close(self) -> None:
        """Release the backend's workers (a no-op unless it keeps any)."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Inline execution on the calling thread — the determinism oracle.

    Fail-fast in raising mode: the first exception propagates
    immediately and later items never run.  ``timeout`` is accepted for
    interface compatibility but cannot be enforced (there is no second
    thread of control to interrupt from).
    """

    name = "serial"

    def map(self, fn, items, *, max_workers, timeout=None,
            return_exceptions=False):
        _validate_width(max_workers)
        if not return_exceptions:
            return [fn(item) for item in items]
        outcomes: List[object] = []
        for item in items:
            try:
                outcomes.append(fn(item))
            except Exception as error:  # noqa: BLE001 — collected by request
                outcomes.append(error)
        return outcomes


class ThreadBackend(ExecutionBackend):
    """Bounded thread pool — the pre-backend behaviour of every caller.

    Without a timeout, single-worker or single-item maps run inline so
    the serial path keeps zero threading overhead.  With a timeout,
    every task gets a dedicated daemon thread (gated to ``max_workers``
    by a semaphore) whose ``join`` is bounded by the deadline; a task
    that overruns is *abandoned* — its slot raises
    :class:`TaskTimeoutError`, the stray thread finishes in the
    background, exactly the semantics the batch executor has always had
    for per-job timeouts.
    """

    name = "thread"

    def map(self, fn, items, *, max_workers, timeout=None,
            return_exceptions=False):
        _validate_width(max_workers)
        if timeout is not None and timeout <= 0:
            raise ConfigurationError("timeout must be positive or None")
        if timeout is None:
            if max_workers == 1 or len(items) <= 1:
                return SerialBackend().map(
                    fn, items, max_workers=1,
                    return_exceptions=return_exceptions,
                )
            return self._pool_map(fn, items, max_workers, return_exceptions)
        return self._deadline_map(fn, items, max_workers, timeout,
                                  return_exceptions)

    def _pool_map(self, fn, items, max_workers, return_exceptions):
        def guarded(item):
            try:
                return fn(item)
            except Exception as error:  # noqa: BLE001 — re-raised below
                return _Failure(error)

        with ThreadPoolExecutor(
            max_workers=min(max_workers, len(items)),
            thread_name_prefix="repro-map",
        ) as pool:
            outcomes = list(pool.map(guarded, items))
        return _unwrap(outcomes, return_exceptions)

    def _deadline_map(self, fn, items, max_workers, timeout,
                      return_exceptions):
        gate = threading.Semaphore(max_workers)
        boxes: List[List[object]] = [[] for _ in items]
        threads: List[threading.Thread] = []

        def target(index: int, item) -> None:
            try:
                try:
                    boxes[index].append(_Success(fn(item)))
                except BaseException as error:  # noqa: BLE001 — shipped back
                    boxes[index].append(_Failure(error))
            finally:
                gate.release()

        deadlines: List[float] = []
        for index, item in enumerate(items):
            gate.acquire()
            thread = threading.Thread(
                target=target, args=(index, item), daemon=True,
                name=f"repro-map-{index}",
            )
            deadlines.append(time.monotonic() + timeout)
            thread.start()
            threads.append(thread)
        outcomes: List[object] = []
        for index, thread in enumerate(threads):
            thread.join(max(0.0, deadlines[index] - time.monotonic()))
            if thread.is_alive():
                outcomes.append(_Failure(TaskTimeoutError(
                    f"task {index} exceeded {timeout:g}s (abandoned)"
                )))
            else:
                box = boxes[index][0]
                outcomes.append(box)
        return _unwrap(outcomes, return_exceptions)


class _Success:
    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value


class _Failure:
    __slots__ = ("error",)

    def __init__(self, error):
        self.error = error


def _unwrap(outcomes: List[object], return_exceptions: bool) -> List[object]:
    results: List[object] = []
    first_error: Optional[BaseException] = None
    for outcome in outcomes:
        if isinstance(outcome, _Failure):
            if first_error is None:
                first_error = outcome.error
            results.append(outcome.error)
        elif isinstance(outcome, _Success):
            results.append(outcome.value)
        else:
            results.append(outcome)
    if not return_exceptions and first_error is not None:
        raise first_error
    return results


# ---------------------------------------------------------------------------
# Process backend
# ---------------------------------------------------------------------------

#: ``prctl`` option: signal this process when the thread that forked it
#: exits (Linux).
_PR_SET_PDEATHSIG = 1


def _die_with_parent(parent_pid: Optional[int]) -> None:
    """Ask the kernel to SIGKILL this worker when its parent dies.

    A worker holds copies of the parent's descriptors (its stderr, a
    server's listening socket), so one outliving a SIGKILLed parent
    would keep them open.  ``parent_pid`` is the process that forked
    the worker, or ``None`` when that is not the pool's owner (a
    ``forkserver`` worker is forked by the fork server, which itself
    exits when its owner dies); either way the signal is armed against
    the actual parent, and a worker whose parent is already gone exits.
    Linux only; elsewhere workers still stop with
    :meth:`ProcessBackend.close` and at interpreter exit.
    """
    if parent_pid is None:
        parent_pid = os.getppid()
    try:
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    except (AttributeError, OSError):
        return
    if os.getppid() != parent_pid:  # the parent died before the prctl
        os._exit(1)


#: OpenBLAS's thread-count setter under the names its builds export
#: (plain, 64-bit-integer and the scipy-openblas wheels numpy ships).
_BLAS_THREAD_SETTERS = (
    "openblas_set_num_threads", "openblas_set_num_threads64_",
    "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_",
)


def _single_threaded_blas() -> None:
    """Run this worker's OpenBLAS on one thread.

    A pool worker is already one core's share of the host, so BLAS
    threads inside it only oversubscribe the cores.  Worse, an idle
    OpenBLAS thread spins for about 0.1 s after each call: since Step 4
    runs in native code and no longer outlasts that spin, a Step 3
    matrix product left a core busy after the job returned, slowing
    the request threads' cache hits.  Best effort: a numpy without
    OpenBLAS, or a host without ``/proc``, is left as it is.
    """
    import ctypes

    import numpy  # noqa: F401 — loads the BLAS library if not yet loaded

    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split()[-1] for line in maps
                     if "openblas" in line.lower() and "/" in line}
    except OSError:
        return
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)  # already mapped: a new handle
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            setter = getattr(library, name, None)
            if setter is not None:
                # The "64_" builds take a 64-bit integer.
                setter.argtypes = [ctypes.c_int64 if name.endswith("64_")
                                   else ctypes.c_int]
                setter.restype = None
                setter(1)
                break


def _failure_payload(error: BaseException) -> tuple:
    """The reply reporting ``error`` as the task's outcome: the
    exception itself when it pickles, else its type name, message and
    traceback text (re-raised as :class:`RemoteTaskError`)."""
    try:
        pickle.dumps(error)
        return ("err", error)
    except Exception:  # noqa: BLE001 — unpicklable exception
        return ("remote_err", (
            type(error).__name__, str(error), traceback.format_exc(),
        ))


#: What follows an outcome on a worker's pipe, the third member of
#: every reply: the run's next item has started (``_NEXT``); the run is
#: over, because that was its last item or because the deadline passed
#: before the next one could start (``_END``); the run did not unpickle,
#: so the outcome stands for every item of it (``_ALL``).
_NEXT, _END, _ALL = "next", "end", "all"


def _reply(conn, payload: tuple, rest: str) -> bool:
    """Send one outcome and what follows it; False once the parent is
    gone.  An outcome that does not pickle goes as a
    :class:`RemoteTaskError` instead: nothing was written, so the pipe
    stays in step."""
    try:
        conn.send(payload + (rest,))
        return True
    except BaseException:  # noqa: BLE001 — parent gone / result unpicklable
        try:
            conn.send(("remote_err", (
                type(payload[1]).__name__ if payload[0] == "ok"
                else "UnknownError",
                "task outcome could not be pickled back to the parent",
                "",
            ), rest))
            return True
        except BaseException:  # noqa: BLE001 — give up, parent sees EOF
            return False


def _worker_main(conn, parent_pid: Optional[int]) -> None:
    """Entry point of one pool worker process: serve runs, each one
    message ``(fn, items, deadline)``, and send one outcome per item, in
    order, as each finishes (the parent knows which run each worker
    holds).

    Before starting each item after the first, the worker checks the
    run's absolute ``deadline`` (a :func:`time.monotonic` instant,
    system-wide on Linux, or ``None``); once it has passed, the rest of
    the run is not started and the last reply says so.  Exceptions are
    pickled back when possible; unpicklable ones travel as (type name,
    message, traceback text) and re-raise as :class:`RemoteTaskError` in
    the parent.  A run that does not unpickle here (say, a function the
    worker cannot import) fails every item with that error and the
    worker serves on: the message was read whole, so the pipe stays in
    step.  A ``None`` message is the shutdown sentinel.
    """
    _die_with_parent(parent_pid)
    _single_threaded_blas()
    # The heap inherited at start lives as long as the worker.  Frozen,
    # it stays out of the worker's collections, which would otherwise
    # walk it and write to every object's header: under fork that
    # unshares the parent's pages (about 10 MiB per worker once the
    # worker decodes request bodies).
    gc.freeze()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        except Exception as error:  # noqa: BLE001 — the run did not unpickle
            if not _reply(conn, _failure_payload(error), _ALL):
                return
            continue
        if message is None:
            return
        fn, items, deadline = message
        for position, item in enumerate(items):
            # No cyclic collection while a task runs: a task's objects
            # are acyclic in bulk (a decoded body's vote lists, 25,000
            # at n=1000) and die by reference counting when it returns,
            # but the collector would walk them again and again as they
            # are allocated.  Re-enabled, it collects between tasks.
            gc.disable()
            try:
                payload = ("ok", fn(item))
            except BaseException as error:  # noqa: BLE001 — shipped to parent
                payload = _failure_payload(error)
            finally:
                gc.enable()
            more = position + 1 < len(items) and (
                deadline is None or time.monotonic() < deadline)
            if not _reply(conn, payload, _NEXT if more else _END):
                return
            if not more:
                break


class _ProcessWorker:
    """One worker process plus its parent-side pipe end and the run it
    holds: the ``(index, item)`` pairs not yet answered, the one in
    flight first, and the instant that one is killed at."""

    __slots__ = ("process", "conn", "run", "deadline")

    def __init__(self, ctx):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.conn = parent_conn
        forker = None if ctx.get_start_method() == "forkserver" \
            else os.getpid()
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, forker),
            daemon=True, name="repro-pool-worker",
        )
        self.process.start()
        child_conn.close()
        self.run: List[tuple] = []
        self.deadline: Optional[float] = None

    @property
    def busy(self) -> bool:
        return bool(self.run)

    def assign(self, run: List[tuple], fn, timeout: Optional[float],
               deadline: Optional[float]) -> None:
        """Send ``run`` as one message; its first item starts now."""
        self.run = run
        self.arm(timeout, deadline)
        self.conn.send((fn, [item for _, item in run], deadline))

    def arm(self, timeout: Optional[float],
            deadline: Optional[float]) -> None:
        """The item in flight started now: it is killed ``timeout``
        seconds on, or at ``deadline``, whichever comes first."""
        limit = None if timeout is None else time.monotonic() + timeout
        if deadline is not None and (limit is None or deadline < limit):
            limit = deadline
        self.deadline = limit

    def shutdown(self, grace: float = 1.0) -> None:
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(grace)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(grace)
        self.conn.close()

    def kill(self) -> None:
        """Hard-stop the worker (deadline enforcement / crash cleanup)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(1.0)
        self.conn.close()


class _WorkerSet:
    """The live workers of one :class:`ProcessBackend`, shared by every
    thread that calls its ``map``.

    Every fork runs on one long-lived spawner thread: the kernel's
    parent-death signal fires when the *thread* that forked a worker
    exits, so a worker forked on a short-lived request thread would be
    killed with that thread.
    """

    def __init__(self, start_method: Optional[str], limit: Optional[int],
                 on_respawn: Optional[Callable[[], None]]):
        self._start_method = start_method
        self.limit = limit
        self._on_respawn = on_respawn
        self._cond = threading.Condition()
        self._live: List[_ProcessWorker] = []  # idle and borrowed
        self._idle: List[_ProcessWorker] = []
        self._spawner: Optional[ThreadPoolExecutor] = None
        self._closed = False

    def pids(self) -> List[int]:
        with self._cond:
            return [worker.process.pid for worker in self._live]

    def _fork(self) -> _ProcessWorker:
        """Fork one live worker on the spawner thread (holds ``_cond``)."""
        if self._closed:
            raise ExecutionBackendError("process pool is closed")
        if self._spawner is None:
            self._spawner = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="repro-pool-spawner",
            )
        worker = self._spawner.submit(
            _ProcessWorker, get_mp_context(self._start_method),
        ).result()
        self._live.append(worker)
        return worker

    def start(self) -> None:
        with self._cond:
            while self.limit is not None and len(self._live) < self.limit:
                self._idle.append(self._fork())
            self._cond.notify_all()

    def borrow(self, count: int,
               timeout: Optional[float]) -> List[_ProcessWorker]:
        """Up to ``count`` workers, forking while under the limit; none
        when the pool is closed.

        Blocks (at most ``timeout`` seconds) only while no worker at
        all is free, so two callers each holding one worker never wait
        on each other.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while not self._closed:
                while len(self._idle) < count and (
                        self.limit is None or len(self._live) < self.limit):
                    self._idle.append(self._fork())
                if self._idle:  # longest idle first: spreads the work
                    taken = self._idle[:count]
                    del self._idle[:count]
                    return taken
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    raise TaskTimeoutError(
                        f"no pool worker free within {timeout:g}s"
                    )
                self._cond.wait(remaining)
            return []

    def take_idle(self, count: int) -> List[_ProcessWorker]:
        """Up to ``count`` workers that are idle right now; never waits
        or forks (empty when none is idle or the pool is closed)."""
        with self._cond:
            taken = self._idle[:count]
            del self._idle[:count]
            return taken

    def give_back(self, workers: List[_ProcessWorker]) -> None:
        with self._cond:
            if not self._closed:
                self._idle.extend(workers)
                self._cond.notify_all()
                return
        for worker in workers:
            worker.shutdown()

    def replace(self, dead: _ProcessWorker) -> _ProcessWorker:
        """A fresh borrowed worker in place of a killed or crashed one."""
        with self._cond:
            if dead in self._live:
                self._live.remove(dead)
            fresh = self._fork()
        if self._on_respawn is not None:
            self._on_respawn()
        return fresh

    def discard(self, worker: _ProcessWorker) -> None:
        worker.kill()
        with self._cond:
            if worker in self._live:
                self._live.remove(worker)
            self._cond.notify_all()

    def close(self) -> None:
        """Stop every worker (idle ones gracefully, borrowed ones by a
        kill their map sees as a crash), then the spawner."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            idle = self._idle
            busy = [worker for worker in self._live if worker not in idle]
            self._live, self._idle = [], []
            self._cond.notify_all()
        for worker in idle:
            worker.shutdown()
        for worker in busy:
            # The map that borrowed it reads the EOF and closes the
            # pipe: closing it from this thread would race that map's.
            worker.process.kill()
        if self._spawner is not None:
            # No join: the spawner is idle (forks run under _cond), so
            # its thread exits by itself.  This also runs as the
            # backend's GC finalizer, in whatever thread collects it
            # and under whatever lock that thread holds; a new
            # thread's bootstrap holds threading's shutdown-locks lock,
            # which every thread join takes, and deadlocked here.
            self._spawner.shutdown(wait=False)


class ProcessBackend(ExecutionBackend):
    """A persistent ``multiprocessing`` pool with crash isolation and
    real deadlines.

    Workers are forked on first use (or by :meth:`start`) and reused by
    every later :meth:`map`, from any thread: each call borrows idle
    workers — waiting only while none is free — and hands them back
    when its tasks are done (:meth:`map_if_idle` takes only the workers
    idle at that moment and never waits; it and :meth:`map_if_open`
    answer ``None`` on a closed pool, where :meth:`map` raises).
    ``workers`` caps the pool's size; without it the pool grows to the
    widest concurrent demand.  ``on_respawn`` is called in the parent
    whenever a dead worker is replaced.  :meth:`close` (or garbage
    collection of the backend) stops the workers, and on Linux they die
    with the parent process, SIGKILL included.

    Dispatch is explicit: a call splits its items into one contiguous
    run per borrowed worker, sends each run as one message over the
    worker's dedicated pipe, and the worker runs the items back to back,
    answering each as it finishes.  That is what makes crash detection
    exact: a dead worker's pipe reads EOF, the item in flight becomes a
    :class:`WorkerCrashedError`, and a replacement worker is forked and
    takes the rest of the run.  An item that outlives its ``timeout``,
    counted from its own start, or the call's absolute ``deadline`` has
    its worker killed and replaced the same way; items the ``deadline``
    passes before they start fail with :class:`TaskTimeoutError`
    without running.  Time spent waiting for a free worker counts
    against every item's ``timeout``.

    Unlike the serial backend's fail-fast loop, all tasks run to
    completion even in raising mode (the earliest-indexed failure is
    raised at the end) — partial work is never silently discarded, and
    the fault-injection suite checks exactly this.
    """

    name = "process"

    def __init__(
        self,
        *,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        on_respawn: Optional[Callable[[], None]] = None,
    ):
        if workers is not None:
            _validate_width(workers)
        self._workers = _WorkerSet(start_method, workers, on_respawn)
        self._finalizer = weakref.finalize(self, self._workers.close)

    @property
    def width(self) -> Optional[int]:
        """The pool's size limit (``None``: grows on demand)."""
        return self._workers.limit

    @property
    def pids(self) -> List[int]:
        """Process ids of the live workers, idle or running a task."""
        return self._workers.pids()

    def start(self) -> None:
        """Fork the pool up to its ``workers`` limit now."""
        self._workers.start()

    def close(self) -> None:
        self._finalizer()

    def map(self, fn, items, *, max_workers, timeout=None,
            return_exceptions=False, deadline=None):
        """See :meth:`ExecutionBackend.map`; ``deadline`` is an absolute
        :func:`time.monotonic` instant no item runs past (``None``:
        none)."""
        outcomes = self.map_if_open(fn, items, max_workers=max_workers,
                                    timeout=timeout,
                                    return_exceptions=return_exceptions,
                                    deadline=deadline)
        if outcomes is None:
            raise ExecutionBackendError("process pool is closed")
        return outcomes

    def map_if_open(self, fn, items, *, max_workers, timeout=None,
                    return_exceptions=False, deadline=None):
        """:meth:`map`, or ``None`` (nothing ran) when the pool is
        closed, so a caller can run ``fn`` itself instead."""
        _validate_width(max_workers)
        if timeout is not None and timeout <= 0:
            raise ConfigurationError("timeout must be positive or None")
        items = list(items)
        if not items:
            return []
        asked = time.monotonic()
        if deadline is not None and asked >= deadline:
            return _unwrap([_Failure(_not_started(index))
                            for index in range(len(items))],
                           return_exceptions)
        wait = timeout
        if deadline is not None and (wait is None
                                     or deadline - asked < wait):
            wait = deadline - asked
        try:
            workers = self._workers.borrow(min(max_workers, len(items)),
                                           wait)
        except TaskTimeoutError as error:
            return _unwrap([_Failure(error) for _ in items],
                           return_exceptions)
        if not workers:
            return None
        if timeout is not None:
            timeout = max(0.0, timeout - (time.monotonic() - asked))
        return self._run(workers, fn, items, timeout, deadline,
                         return_exceptions)

    def map_if_idle(self, fn, items, *, max_workers, timeout=None,
                    return_exceptions=False):
        """:meth:`map` on the workers idle at this moment, or ``None``
        (nothing ran) when no worker is idle or the pool is closed.

        Never waits for a worker and never forks one, so a caller can
        fall back to running ``fn`` itself instead of queueing behind
        the pool's other work.
        """
        _validate_width(max_workers)
        if timeout is not None and timeout <= 0:
            raise ConfigurationError("timeout must be positive or None")
        items = list(items)
        if not items:
            return []
        workers = self._workers.take_idle(min(max_workers, len(items)))
        if not workers:
            return None
        return self._run(workers, fn, items, timeout, None,
                         return_exceptions)

    def _run(self, workers: List[_ProcessWorker], fn, items: List[object],
             timeout: Optional[float], deadline: Optional[float],
             return_exceptions: bool):
        """Run ``items`` on the borrowed ``workers``, then hand them back."""
        call = _MapCall(self._workers, workers, fn, timeout, deadline,
                        len(items))
        try:
            call.start(list(enumerate(items)))
            while any(worker.busy for worker in workers):
                call.collect()
                call.reap_timeouts()
        finally:
            for worker in [w for w in workers if w.busy]:
                workers.remove(worker)
                self._workers.discard(worker)
            self._workers.give_back(workers)
        return _unwrap(call.outcomes, return_exceptions)

    def __repr__(self) -> str:
        return f"ProcessBackend(workers={self.width})"


def _not_started(index: int) -> TaskTimeoutError:
    return TaskTimeoutError(f"task {index} not started: the deadline "
                            "passed")


class _MapCall:
    """The parent's side of one :class:`ProcessBackend` map: the
    borrowed workers, each holding one contiguous run of the items, and
    the outcome of every item so far."""

    def __init__(self, pool: _WorkerSet, workers: List[_ProcessWorker],
                 fn, timeout: Optional[float], deadline: Optional[float],
                 count: int):
        self.pool = pool
        self.workers = workers  # replacements take their slot in place
        self.fn = fn
        self.timeout = timeout
        self.deadline = deadline
        self.outcomes: List[object] = [None] * count

    def start(self, pairs: List[tuple]) -> None:
        """Split the ``(index, item)`` pairs into one contiguous run per
        worker, the runs' lengths differing by at most one."""
        size, extra = divmod(len(pairs), len(self.workers))
        begin = 0
        for number, worker in enumerate(list(self.workers)):
            end = begin + size + (number < extra)
            self._dispatch(self.workers.index(worker), pairs[begin:end])
            begin = end

    def _dispatch(self, slot: int, run: List[tuple]) -> None:
        """Hand ``run`` to the worker in ``slot``; once the deadline has
        passed, its items fail without running."""
        while run:
            if self.deadline is not None \
                    and time.monotonic() >= self.deadline:
                for index, _ in run:
                    self.outcomes[index] = _Failure(_not_started(index))
                return
            worker = self.workers[slot]
            try:
                worker.assign(run, self.fn, self.timeout, self.deadline)
                return
            except (BrokenPipeError, OSError):
                # The worker died while idle; a fresh one takes the run.
                worker.run = []
                worker.kill()
                if not self._respawn(slot, worker, run):
                    return

    def _respawn(self, slot: int, dead: _ProcessWorker,
                 run: List[tuple]) -> bool:
        """Fork a worker into ``slot`` in place of ``dead``; False, with
        the items of ``run`` failed, once the pool is closed."""
        try:
            self.workers[slot] = self.pool.replace(dead)
            return True
        except ExecutionBackendError as error:
            del self.workers[slot]
            for index, _ in run:
                self.outcomes[index] = _Failure(error)
            return False

    def _replace(self, worker: _ProcessWorker) -> None:
        """Fork a worker in place of a dead or killed one; it takes the
        items of the run after the one in flight."""
        rest = worker.run[1:]
        worker.run = []
        slot = self.workers.index(worker)
        if self._respawn(slot, worker, rest):
            self._dispatch(slot, rest)

    def collect(self) -> None:
        """Wait for pipe events; record outcomes and crashes."""
        from multiprocessing.connection import wait as conn_wait

        busy = [w for w in self.workers if w.busy]
        if not busy:
            return
        # A short tick keeps deadline checks responsive even when no
        # worker speaks; readiness of any pipe wakes us immediately.
        ready = conn_wait([w.conn for w in busy], timeout=0.05)
        for worker in busy:
            if worker.conn not in ready:
                # A pipe end inherited by a process forked elsewhere
                # can hide the EOF of a dead worker: ask the process.
                if worker.process.is_alive() or worker.conn.poll():
                    continue
                self._crashed(worker)
                continue
            try:
                # Every reply already sent, so that no finished item
                # is mistaken for one running past its deadline.
                while True:
                    self._record(worker, *worker.conn.recv())
                    if not worker.busy or not worker.conn.poll():
                        break
            except (EOFError, OSError):
                self._crashed(worker)

    def _record(self, worker: _ProcessWorker, kind: str, payload,
                rest: str) -> None:
        if kind == "ok":
            outcome = _Success(payload)
        elif kind == "err":
            outcome = _Failure(payload)
        else:  # remote_err
            outcome = _Failure(RemoteTaskError(*payload))
        index, _ = worker.run.pop(0)
        self.outcomes[index] = outcome
        if rest == _NEXT:
            worker.arm(self.timeout, self.deadline)
            return
        for index, _ in worker.run:
            # The run did not unpickle, or the deadline passed first.
            self.outcomes[index] = outcome if rest == _ALL \
                else _Failure(_not_started(index))
        worker.run = []

    def _crashed(self, worker: _ProcessWorker) -> None:
        """A worker died mid-task: record the crash, respawn in place."""
        index = worker.run[0][0]
        worker.process.join(1.0)
        code = worker.process.exitcode
        _log.warning(
            "worker pid=%s crashed (exitcode=%s) while running task %s; "
            "respawning", worker.process.pid, code, index,
        )
        self.outcomes[index] = _Failure(WorkerCrashedError(
            f"worker process (pid {worker.process.pid}) died with exit "
            f"code {code} while running task {index}"
        ))
        worker.conn.close()
        self._replace(worker)

    def reap_timeouts(self) -> None:
        """Kill workers whose task overran its deadline; respawn."""
        now = time.monotonic()
        for worker in list(self.workers):
            if not worker.busy or worker.deadline is None \
                    or now < worker.deadline:
                continue
            index = worker.run[0][0]
            _log.warning("task %s exceeded its deadline; killing worker "
                         "pid=%s", index, worker.process.pid)
            worker.kill()
            self.outcomes[index] = _Failure(TaskTimeoutError(
                f"task {index} exceeded its deadline (worker killed)"
            ))
            self._replace(worker)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

#: Name → backend class, the closed set the Config/CLI layer validates
#: against.
BACKENDS: Dict[str, type] = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}

#: Names accepted by config fields and CLI flags.
BACKEND_CHOICES = tuple(sorted(BACKENDS))


def get_backend(name: str) -> ExecutionBackend:
    """Instantiate a backend by registry name.

    Raises
    ------
    ConfigurationError
        For a name outside :data:`BACKEND_CHOICES`.
    """
    try:
        factory = BACKENDS[name]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown execution backend {name!r}; choose from "
            f"{', '.join(BACKEND_CHOICES)}"
        ) from None
    return factory()


def default_backend_name() -> str:
    """The backend used when nothing is specified: env var or thread."""
    return os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND


def resolve_backend(
    spec: Union[None, str, ExecutionBackend] = None,
) -> ExecutionBackend:
    """Resolve an explicit backend, name, or ``None`` to an instance.

    Precedence: an explicit instance or name wins; ``None`` consults
    the ``REPRO_BACKEND`` environment variable; otherwise ``"thread"``
    (the historical behaviour of every call site).
    """
    if isinstance(spec, ExecutionBackend):
        return spec
    if spec is None:
        spec = default_backend_name()
    return get_backend(spec)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _validate_width(max_workers: int) -> None:
    if max_workers < 1:
        raise ConfigurationError(
            f"max_workers must be >= 1, got {max_workers}"
        )
