"""Server processes and the closed-loop HTTP load generator.

:class:`Server` runs ``python -m repro serve --port 0`` as a child
process with default flags and ``REPRO_BACKEND`` unset, timing spawn to
the first ``200`` from ``/readyz``.  :func:`run_round` drives it from
this process with :data:`CLIENTS` threads, each owning one keep-alive
``http.client`` connection.  Clients never retry; a non-2xx status or a
transport error is a failure.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import re
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from workloads import Request, Unit

#: Client threads, each with its own connection.  Two is ``nproc`` on
#: the reference host, and the callers that exist today (RankingClient,
#: ``repro stream --url``, ``repro batch``) each wait for a reply.
CLIENTS = 2

#: Percentile of the reported latency tail.  A percentile counts only
#: with at least :data:`TAIL_BEYOND` samples beyond it; p75 has that
#: from 40 samples, about what the slowest workloads answer in a run.
TAIL_PERCENTILE = 75
TAIL_BEYOND = 10

_HEADERS = {"Content-Type": "application/json"}
_PORT_LINE = re.compile(rb"serving on http://[^:]+:(\d+)")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100 * len(ordered))) - 1]


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile."""
    return count - max(1, math.ceil(q / 100 * count))


class ServerError(RuntimeError):
    """The server process could not be started or scraped."""


class Server:
    """One ``repro serve`` child process rooted at ``root``."""

    def __init__(self, root: Path):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        env.pop("REPRO_BACKEND", None)
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        self._lines: "queue.Queue[bytes]" = queue.Queue()
        self._tail: deque = deque(maxlen=20)
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            self.port = self._await_port()
            while self.get("/readyz")[0] != 200:
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def _drain(self) -> None:
        for line in self.proc.stderr:
            self._lines.put(line)
            self._tail.append(line)
        self._lines.put(b"")

    def _await_port(self) -> int:
        while True:
            try:
                line = self._lines.get(timeout=60)
            except queue.Empty:
                raise ServerError("server printed no port within 60 s") \
                    from None
            if not line:
                raise ServerError("server exited before serving:\n"
                                  + b"".join(self._tail).decode(errors="replace"))
            match = _PORT_LINE.search(line)
            if match:
                return int(match.group(1))

    def get(self, path: str) -> tuple:
        """One request on a fresh connection: ``(status, body)``."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def counters(self) -> Dict[str, float]:
        """The ``*_total`` counters of ``GET /metrics``, by family name."""
        status, body = self.get("/metrics")
        if status != 200:
            raise ServerError(f"GET /metrics answered {status}")
        found = {}
        for line in body.decode().splitlines():
            name, _, value = line.partition(" ")
            if name.endswith("_total"):
                found[name] = float(value)
        return found

    def peak_rss_mb(self) -> float:
        """Peak resident set size (``VmHWM``) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise ServerError("no VmHWM in /proc status")

    def stop(self) -> None:
        """SIGKILL, then wait for the exit.  A graceful drain would only
        add a quarter second per server: nothing is in flight by then,
        and a default server keeps its cache in memory only."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=30)
        self.proc.stderr.close()


@dataclass
class Sample:
    """One request as the client saw it."""

    unit: int
    index: int
    status: int
    body: bytes
    seconds: float


@dataclass
class Round:
    samples: List[Sample] = field(default_factory=list)
    wall_s: float = 0.0

    @property
    def ok(self) -> List[Sample]:
        return [s for s in self.samples if 200 <= s.status < 300]


def send(conn: http.client.HTTPConnection, request: Request,
         sid: Optional[str]) -> tuple:
    """Send one request: ``(status, body, seconds)``; status 0 on a
    transport error.  Times from send to the last response byte."""
    path = request.path.format(sid=sid)
    body = request.body()
    headers = _HEADERS if body is not None else {}
    started = time.perf_counter()
    try:
        conn.request(request.method, path, body, headers)
        response = conn.getresponse()
        data = response.read()
        status = response.status
    except (OSError, http.client.HTTPException) as error:
        conn.close()
        status, data = 0, repr(error).encode()
    return status, data, time.perf_counter() - started


def session_id(status: int, body: bytes) -> Optional[str]:
    """The id a session-create response assigned, if it succeeded."""
    if status != 201:
        return None
    try:
        return json.loads(body).get("session_id")
    except (ValueError, AttributeError):
        return None


def run_unit(conn: http.client.HTTPConnection, unit: Unit, number: int,
             samples: List[Sample], deadline: float = math.inf) -> None:
    """Send one unit's requests in order; stop the unit at a failure or,
    between requests, at ``deadline``."""
    sid = None
    for index, request in enumerate(unit.requests):
        if index and time.perf_counter() >= deadline:
            return
        status, body, seconds = send(conn, request, sid)
        samples.append(Sample(number, index, status, body, seconds))
        if not 200 <= status < 300:
            return
        if request.kind == "create":
            sid = session_id(status, body)


def run_round(port: int, units: List[Unit], order: List[int],
              seconds: float = math.inf) -> Round:
    """Closed loop: each client takes the next unit of ``order`` until
    ``seconds`` have passed or every unit was taken.  After the deadline
    a client sends nothing more, even mid-unit, so a round's wall time
    stays close to ``seconds`` whatever the unit length."""
    lock = threading.Lock()
    taken = iter(order)
    per_client: List[List[Sample]] = [[] for _ in range(CLIENTS)]
    started = time.perf_counter()
    deadline = started + seconds

    def client(samples: List[Sample]) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        try:
            while time.perf_counter() < deadline:
                with lock:
                    number = next(taken, None)
                if number is None:
                    return
                run_unit(conn, units[number], number, samples, deadline)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(samples,))
               for samples in per_client]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    result = Round(wall_s=time.perf_counter() - started)
    for samples in per_client:
        result.samples.extend(samples)
    return result
