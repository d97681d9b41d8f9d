"""Pre-fork multi-process serving over one ``SO_REUSEPORT`` port.

:class:`RankingServer` is a threaded server, so a single process tops
out at roughly one core of Python work.  This module goes wide the
classic pre-fork way: :class:`PreforkSupervisor` resolves the listen
port once, then starts ``config.processes`` child processes that each
run a full :class:`RankingServer` **bound to the same port** with
``SO_REUSEPORT`` — the kernel load-balances incoming connections
across the listening sockets, no userspace proxy needed.

The division of labour:

* the **supervisor** owns no listener of its own.  It holds a bound
  but *never listening* "reserve" socket on the group's port — a
  non-listening TCP socket receives no connections, but its bind keeps
  the port claimed for the group, so port 0 resolves exactly once and
  an ephemeral port cannot be stolen between child restarts;
* each **child** is an ordinary single-process server: it binds and
  listens on the shared port, serves, and on SIGTERM drains gracefully
  (stop accepting, finish in-flight requests bounded by
  ``drain_grace``, exit 0) — the same drain contract as ``repro
  serve`` has always had, now per child;
* a child that **crashes** is detected through its process sentinel
  and respawned in place, so capacity heals without dropping the other
  children.  Respawns are counted and surfaced through ``on_event``.

Because every child runs its own :class:`~repro.service.ResultCache`
over one shared ``cache_dir`` (the crash-safe spill tier in
:mod:`repro.service.shared_cache`), a result computed by any child is
readable by every other child and by the next generation after a
respawn.  Streaming sessions, by contrast, live in per-child memory —
multi-process serving is for the stateless ``/v1/rank`` and
``/v1/batch`` planes.

Child processes are started through
:func:`repro.workers.get_mp_context`, so the start method follows the
same policy as the process execution backend (explicit argument, then
``REPRO_MP_START``, then fork-else-spawn).  Everything a child needs
(:class:`~repro.server.ServerConfig`, a readiness event) is picklable,
so ``spawn`` works where ``fork`` is unavailable.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import socket
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

from ..diagnostics import get_logger
from ..exceptions import ConfigurationError, WorkerCrashedError
from ..workers.backends import get_mp_context
from .app import RankingServer, ServerConfig, freeze_startup_heap

_log = get_logger("server.prefork")

#: Callback type for supervisor lifecycle events:
#: ``on_event(name, info)`` with names ``"child_started"``,
#: ``"child_exit"`` and ``"child_respawned"``.
EventCallback = Callable[[str, Dict[str, object]], None]


def _child_main(config: ServerConfig, ready_event) -> None:
    """Entry point of one serving child (module-level for spawn).

    Runs a complete :class:`RankingServer` on the group's shared port
    (its startup heap frozen out of the GC, see
    :func:`~repro.server.app.freeze_startup_heap`) and blocks until
    SIGTERM, then drains and exits — code 0 when
    everything in flight finished inside the grace period, 3 when the
    drain timed out.  SIGINT is ignored: an interactive Ctrl-C reaches
    the whole foreground process group, and the supervisor (not the
    kernel) decides when children stop.
    """
    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    server = RankingServer(config)
    server.start()
    freeze_startup_heap()
    ready_event.set()
    stop.wait()
    drained = server.stop()
    sys.exit(0 if drained else 3)


class _Child:
    """One serving child: its process handle and readiness event."""

    __slots__ = ("index", "process", "ready")

    def __init__(self, index: int, process, ready):
        self.index = index
        self.process = process
        self.ready = ready


class PreforkSupervisor:
    """Starts, watches, heals and drains a group of serving children.

    Parameters
    ----------
    config:
        The group's :class:`~repro.server.ServerConfig`;
        ``config.processes`` is the group size and ``config.port`` may
        be 0 (resolved once for the whole group — read the real port
        back from :attr:`port` after :meth:`start`).
    start_method:
        ``multiprocessing`` start method override; ``None`` follows
        :func:`repro.workers.get_mp_context`'s policy.
    on_event:
        Optional callback receiving ``(event_name, info_dict)`` for
        child starts, exits and respawns.  Exceptions it raises are
        logged and swallowed — observability must not kill serving.
    """

    def __init__(
        self,
        config: ServerConfig,
        *,
        start_method: Optional[str] = None,
        on_event: Optional[EventCallback] = None,
    ):
        if not hasattr(socket, "SO_REUSEPORT"):
            raise ConfigurationError(
                "pre-fork serving needs SO_REUSEPORT, which this "
                "platform does not provide"
            )
        self._config = config
        self._ctx = get_mp_context(start_method)
        self._on_event = on_event
        self._children: List[_Child] = []
        self._reserve: Optional[socket.socket] = None
        self._child_config: Optional[ServerConfig] = None
        self._stopping = threading.Event()
        self._stopped = False
        self._respawns = 0

    # -- introspection ------------------------------------------------------

    @property
    def config(self) -> ServerConfig:
        return self._config

    @property
    def port(self) -> int:
        """The group's shared port (real one, even when configured 0)."""
        if self._reserve is None:
            raise ConfigurationError("supervisor not started")
        return self._reserve.getsockname()[1]

    @property
    def url(self) -> str:
        return f"http://{self._config.host}:{self.port}"

    @property
    def pids(self) -> List[int]:
        """PIDs of the current child generation (respawns included)."""
        return [c.process.pid for c in self._children
                if c.process.pid is not None]

    @property
    def respawns(self) -> int:
        """How many crashed children have been replaced so far."""
        return self._respawns

    # -- lifecycle ----------------------------------------------------------

    def start(self, ready_timeout: float = 30.0) -> None:
        """Claim the port, start every child, wait until all are ready.

        Raises
        ------
        WorkerCrashedError
            When a child dies, or fails to report readiness, within
            ``ready_timeout`` seconds; the group is torn down first.
        """
        if self._reserve is not None or self._stopped:
            raise ConfigurationError(
                "supervisor already started; build a new one to restart"
            )
        reserve = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            reserve.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            reserve.bind((self._config.host, self._config.port))
        except BaseException:
            reserve.close()
            raise
        # Bound but deliberately never listen()ing: the bind keeps the
        # (possibly ephemeral) port claimed for the group's lifetime
        # while all actual connections go to the children.
        self._reserve = reserve
        self._child_config = dataclasses.replace(
            self._config, port=self.port, reuse_port=True
        )
        try:
            for index in range(self._config.processes):
                self._children.append(self._spawn(index))
            self._await_ready(ready_timeout)
        except BaseException:
            self.stop(grace=1.0)
            raise
        _log.info("pre-fork group ready on %s (%d process(es): %s)",
                  self.url, len(self._children),
                  ", ".join(map(str, self.pids)))

    def poll(self) -> int:
        """Respawn any child that died; returns how many were replaced.

        Called continuously by :meth:`serve_forever`; exposed for
        embedding applications running their own supervision loop.
        """
        if self._stopping.is_set():
            return 0
        respawned = 0
        for slot, child in enumerate(self._children):
            if child.process.is_alive():
                continue
            child.process.join()
            code = child.process.exitcode
            _log.warning(
                "serving child %d (pid %s) exited with code %s; "
                "respawning", child.index, child.process.pid, code,
            )
            self._emit("child_exit", index=child.index,
                       pid=child.process.pid, exitcode=code)
            replacement = self._spawn(child.index)
            self._children[slot] = replacement
            self._respawns += 1
            respawned += 1
            self._emit("child_respawned", index=child.index,
                       pid=replacement.process.pid)
        return respawned

    def serve_forever(self, stop_event: Optional[threading.Event] = None,
                      poll_interval: float = 0.5) -> None:
        """Supervise until ``stop_event`` is set (or :meth:`stop` runs).

        Blocks on the children's process sentinels, so a crash wakes
        the loop immediately; ``poll_interval`` only bounds how long a
        ``stop_event`` set by a signal handler waits to be noticed.
        """
        from multiprocessing.connection import wait as conn_wait

        while not self._stopping.is_set() and \
                (stop_event is None or not stop_event.is_set()):
            sentinels = [c.process.sentinel for c in self._children
                         if c.process.is_alive()]
            if sentinels:
                conn_wait(sentinels, timeout=poll_interval)
            else:
                time.sleep(poll_interval)
            self.poll()

    def stop(self, grace: Optional[float] = None) -> bool:
        """SIGTERM every child, wait for the drains, release the port.

        Each child gets the group's drain contract: up to ``grace``
        seconds (default ``config.drain_grace``) to finish in-flight
        requests.  A child still alive afterwards is killed.

        Returns True when every child exited 0 (clean drain), False
        when any was killed or reported a drain timeout.
        """
        if self._stopped:
            return True
        self._stopping.set()
        self._stopped = True
        if grace is None:
            grace = self._config.drain_grace
        for child in self._children:
            if child.process.is_alive():
                try:
                    os.kill(child.process.pid, signal.SIGTERM)
                except (ProcessLookupError, TypeError):
                    pass
        # Margin past the children's own drain grace so a child that
        # drains right at the wire still exits on its own terms.
        deadline = time.monotonic() + grace + 5.0
        drained = True
        for child in self._children:
            child.process.join(max(0.0, deadline - time.monotonic()))
            if child.process.is_alive():
                _log.warning("serving child %d (pid %s) survived the "
                             "drain grace; killing", child.index,
                             child.process.pid)
                child.process.kill()
                child.process.join(5.0)
                drained = False
            elif child.process.exitcode != 0:
                drained = False
        if self._reserve is not None:
            self._reserve.close()
        _log.info("pre-fork group stopped (drained=%s, respawns=%d)",
                  drained, self._respawns)
        return drained

    def __enter__(self) -> "PreforkSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- internals ----------------------------------------------------------

    def _spawn(self, index: int) -> _Child:
        ready = self._ctx.Event()
        process = self._ctx.Process(
            target=_child_main,
            args=(self._child_config, ready),
            name=f"repro-serve-{index}",
        )
        process.start()
        self._emit("child_started", index=index, pid=process.pid)
        return _Child(index, process, ready)

    def _await_ready(self, timeout: float) -> None:
        deadline = time.monotonic() + timeout
        for child in self._children:
            remaining = max(0.0, deadline - time.monotonic())
            if child.ready.wait(remaining):
                continue
            alive = child.process.is_alive()
            raise WorkerCrashedError(
                f"serving child {child.index} (pid {child.process.pid}) "
                + ("failed to become ready" if alive else "died")
                + f" within {timeout:g}s"
            )

    def _emit(self, event: str, **info: object) -> None:
        if self._on_event is None:
            return
        try:
            self._on_event(event, info)
        except Exception:  # noqa: BLE001 — observer must not kill serving
            _log.exception("on_event observer failed for %r", event)
