"""End-to-end HTTP benchmark of ``repro serve``: vote JSON in, ranking out.

One workload, the way BENCHMARK.json's command is run::

    python3 benchmarks/e2e/run.py --workload rank-cold --seed 1 \\
        --seconds 14 --trace 0

Every workload, with the traced replay, keeping the full record::

    python3 benchmarks/e2e/run.py --seed 1 --trace --out FILE

A run first spawns :data:`SETUP_SPAWNS` servers only to time start-up.
Then each (workload, round) spawns a fresh ``python -m repro serve
--port 0`` from this checkout's ``src/`` with default flags, gives it
its untimed warm-up, and drives it closed-loop from two client threads
for a third of ``--seconds``.  Rounds are interleaved round-robin across
workloads, so host drift hits every workload alike.  After the last
round, the workload's scored units that no round answered are sent
untimed, so ``accuracy`` always covers the same inputs.  Every response
is checked (status, schema, permutation, same answer for the same
inputs); a wrong answer makes the run exit 1.

``--trace`` adds a replay phase on one more fresh server: per
workload, the first 24 requests (fewer if ``--seconds / 3`` runs out
first) are each sent once by a single client, then replayed in-process
through the layers' public functions with spans around each call.  Spans go to
``FILE.spans.jsonl`` when ``--out FILE`` is given.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics, or
with ``--trace`` the per-layer ones (names prefixed ``<workload>/``
when several workloads ran).
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from loadgen import (  # noqa: E402
    TAIL_PERCENTILE,
    Round,
    Sample,
    Server,
    ServerError,
    percentile,
    run_round,
    run_unit,
    samples_beyond,
    send,
    session_id,
)
from workloads import (  # noqa: E402
    WORKLOADS,
    Plan,
    WrongAnswer,
    build_plan,
    check_response,
    kendall_accuracy,
)

ROUNDS = 3
TRACE_REQUESTS = 24
#: Servers a run spawns only to time start-up, on top of one per round;
#: ``setup_s`` is the median over every spawn of the run.
SETUP_SPAWNS = 1

E2E_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    f"latency_p{TAIL_PERCENTILE}_ms": "ms",
    "accuracy": "ratio",
    "setup_s": "s",
    "server_rss_mb": "MiB",
}

LAYER_UNITS = {
    "server.roundtrip_ms": "ms",
    "server.http_ms": "ms",
    "server.queue_wait_ms": "ms",
    "server.request_kb": "KiB",
    "server.response_kb": "KiB",
    "server.rejected": "count",
    "service.json_decode_ms": "ms",
    "service.job_decode_ms": "ms",
    "service.fingerprint_ms": "ms",
    "service.cache_get_ms": "ms",
    "service.cache_put_ms": "ms",
    "service.cache_hit_ratio": "ratio",
    "service.encode_ms": "ms",
    "service.fanout_overhead_ms": "ms",
    "truth.crh_ms": "ms",
    "truth.iterations": "count",
    "inference.smoothing_ms": "ms",
    "inference.propagation_ms": "ms",
    "inference.saps_ms": "ms",
    "inference.saps_accept_ratio": "ratio",
    "inference.sparse_ms": "ms",
    "streaming.votes_decode_ms": "ms",
    "streaming.ingest_ms": "ms",
    "streaming.incremental_ratio": "ratio",
    "streaming.view_encode_ms": "ms",
    "acquisition.suggest_ms": "ms",
}


@dataclass
class Tally:
    """Everything one workload's rounds and replay produced."""

    plan: Plan
    rounds: List[Round] = field(default_factory=list)
    rss: List[float] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=lambda: defaultdict(float))
    answers: Dict[Tuple, Tuple[int, ...]] = field(default_factory=dict)
    wrong: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    traced: List[Tuple[str, float, int, int]] = field(default_factory=list)
    next_start: int = 0
    topped_up: int = 0

    @property
    def name(self) -> str:
        return self.plan.workload.name

    def record(self, key: Tuple, ranking: Tuple[int, ...]) -> None:
        """Keep an answer; the same inputs must always get it."""
        previous = self.answers.setdefault(key, ranking)
        if previous != ranking:
            self.wrong.append(f"{self.name} {key}: same inputs, different "
                              "ranking")

    def check_all(self, samples: List[Sample]) -> None:
        for sample in samples:
            self.check(sample.unit, sample.index, sample.status, sample.body)

    def unanswered_scored(self) -> List[int]:
        """Scored units some of whose answers are still missing."""
        return [number for number, unit in enumerate(self.plan.scored)
                if any(key not in self.answers
                       for key in self.plan.answer_keys(unit))]

    def check(self, plan_unit: int, index: int, status: int, body: bytes
              ) -> Optional[object]:
        """Count and validate one response; returns its decoded body when
        it is a correct 2xx answer."""
        self.attempted += 1
        if not 200 <= status < 300:
            self.failed += 1
            return None
        unit = self.plan.units[plan_unit]
        try:
            payload = json.loads(body)
            answers = check_response(self.plan, unit, index, payload)
        except (ValueError, WrongAnswer) as error:
            self.wrong.append(f"{self.name}: {error}")
            return None
        for key, ranking in answers:
            self.record(key, ranking)
        return payload


def warm_up(server: Server, plan: Plan) -> None:
    """Send the plan's untimed warm-up units; they must all succeed."""
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=300)
    samples: list = []
    try:
        for unit in plan.warmup:
            run_unit(conn, unit, -1, samples)
    finally:
        conn.close()
    for sample in samples:
        if not 200 <= sample.status < 300:
            raise ServerError(f"{plan.workload.name} warm-up answered "
                              f"{sample.status}: {sample.body[:200]!r}")


def time_setup() -> float:
    """Spawn a server only to time its start-up, then stop it."""
    server = Server(ROOT)
    server.stop()
    return server.setup_s


def loaded_round(tally: Tally, seconds: float, setups: List[float],
                 top_up: bool) -> None:
    """One timed round on a fresh server.  With ``top_up``, the scored
    units no round answered yet are then sent untimed on that server."""
    server = Server(ROOT)
    setups.append(server.setup_s)
    units = tally.plan.units
    order = [(tally.next_start + i) % len(units) for i in range(len(units))]
    try:
        warm_up(server, tally.plan)
        before = server.counters()
        result = run_round(server.port, units, order, seconds)
        after = server.counters()
        tally.rss.append(server.peak_rss_mb())
        tally.check_all(result.samples)
        if top_up:
            missing = tally.unanswered_scored()
            if missing:
                tally.check_all(run_round(server.port, units, missing).samples)
                tally.topped_up = len(missing)
    finally:
        server.stop()
    # The next round starts halfway through the units this one took:
    # consecutive rounds share inputs (which must get the same answers
    # from another server process) and a run covers about twice the
    # inputs of one round.
    tally.next_start += max(1, len({s.unit for s in result.samples}) // 2)
    tally.rounds.append(result)
    for name, value in after.items():
        tally.counters[name] += value - before.get(name, 0.0)


def e2e_metrics(tally: Tally, setups: List[float]) -> Dict[str, float]:
    latencies = [s.seconds for r in tally.rounds for s in r.ok]
    if not latencies:
        raise ServerError(f"{tally.name}: no request was answered")
    # A fixed set of inputs per seed, so the score does not depend on
    # how far the time-bounded rounds got.
    keys = tally.plan.scored_keys()
    missing = [key for key in keys if key not in tally.answers]
    if missing:
        tally.wrong.append(f"{tally.name}: no correct answer for scored "
                           f"inputs {missing[:4]}")
        keys = [key for key in keys if key in tally.answers]
    if not keys:
        raise ServerError(f"{tally.name}: no scored input was answered")
    return {
        "throughput_rps": statistics.median(
            len(r.ok) / r.wall_s for r in tally.rounds),
        "latency_p50_ms": 1e3 * percentile(latencies, 50),
        f"latency_p{TAIL_PERCENTILE}_ms":
            1e3 * percentile(latencies, TAIL_PERCENTILE),
        "accuracy": statistics.fmean(
            kendall_accuracy(tally.plan.truth(key[0]), tally.answers[key])
            for key in keys),
        "setup_s": statistics.median(setups),
        "server_rss_mb": statistics.median(tally.rss),
    }


# ---------------------------------------------------------------------------
# Traced replay
# ---------------------------------------------------------------------------

def _http_answer(kind: str, payload: dict) -> object:
    if kind == "batch":
        return [result["ranking"] for result in payload["results"]]
    if kind == "suggest":
        return payload["pairs"]
    return payload.get("ranking")


def trace(tallies: List[Tally], seconds: float, tracer) -> Dict:
    """The replay phase: one fresh server for every workload.

    Per workload: its warm-up units (replayed into a discarded tracer),
    then its first requests, each sent once from one client and
    replayed in-process.  Returns the replay's per-request counts.
    """
    from replay import Replayer
    from spans import Tracer

    replayer = Replayer(tracer)
    try:
        server = Server(ROOT)
    except BaseException:
        replayer.close()
        raise
    conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=300)
    try:
        for tally in tallies:
            print(f"trace {tally.name}", file=sys.stderr, flush=True)
            replayer.tracer = Tracer()
            for unit in tally.plan.warmup:
                sid = None
                for request in unit.requests:
                    status, body, _ = send(conn, request, sid)
                    if not 200 <= status < 300:
                        raise ServerError(f"{tally.name} trace warm-up "
                                          f"answered {status}")
                    if request.kind == "create":
                        sid = session_id(status, body)
                    replayer.replay("warm-up", request, sid)
            replayer.tracer = tracer
            trace_requests(tally, conn, replayer, seconds)
    finally:
        conn.close()
        server.stop()
        replayer.close()
    return replayer.counts


def trace_requests(tally: Tally, conn: http.client.HTTPConnection,
                   replayer, seconds: float) -> None:
    """Send the workload's first requests once each and replay each."""
    deadline = time.perf_counter() + seconds
    for number, unit in enumerate(tally.plan.units):
        sid = None
        for index, request in enumerate(unit.requests):
            if len(tally.traced) == TRACE_REQUESTS or \
                    time.perf_counter() > deadline:
                return
            status, body, elapsed = send(conn, request, sid)
            payload = tally.check(number, index, status, body)
            if payload is None:
                break
            if request.kind == "create":
                sid = session_id(status, body)
            rid = f"{tally.name}:{len(tally.traced)}"
            try:
                answer = replayer.replay(rid, request, sid)
            except WrongAnswer as error:
                tally.wrong.append(str(error))
                answer = None
            if answer is not None and \
                    answer != _http_answer(request.kind, payload):
                tally.wrong.append(f"{rid}: in-process replay differs "
                                   "from the HTTP response")
            tally.traced.append((rid, elapsed, len(request.body() or b""),
                                 len(body)))


def layer_metrics(tally: Tally, table: Dict[str, Dict[str, float]],
                  counts: Dict, loaded_p50_ms: float) -> Dict[str, float]:
    """The per-layer metrics of one workload's replay."""
    rows = tally.traced
    if not rows:
        raise ServerError(f"{tally.name}: no request was replayed")
    own = [table.get(rid, {}) for rid, *_ in rows]
    serial = [table.get(f"{rid}+serial", {}) for rid, *_ in rows]

    def ms(layer: str) -> float:
        values = [mine.get(layer, 0.0) + extra.get(layer, 0.0)
                  for mine, extra in zip(own, serial)
                  if layer in mine or layer in extra]
        return 1e3 * statistics.median(values) if values else 0.0

    def count(name: str, rid: str) -> float:
        return sum(counts.get(r, {}).get(name, 0.0)
                   for r in (rid, f"{rid}+serial"))

    def median_or_zero(values: List[float]) -> float:
        return statistics.median(values) if values else 0.0

    roundtrip = [elapsed for _, elapsed, _, _ in rows]
    http = [elapsed - mine.get("", 0.0)
            for (_, elapsed, _, _), mine in zip(rows, own)]
    fanout = [mine["service.executor"] - extra.get("", 0.0)
              for mine, extra in zip(own, serial)
              if "service.executor" in mine]
    rids = [rid for rid, *_ in rows]
    accept = [count("saps.accepted", rid) / count("saps.proposed", rid)
              for rid in rids if count("saps.proposed", rid)]
    updates = sum(count("streaming.updates", rid) for rid in rids)
    counters = tally.counters
    lookups = counters["repro_cache_hits_total"] + \
        counters["repro_cache_misses_total"]
    metrics = {
        "server.roundtrip_ms": 1e3 * statistics.median(roundtrip),
        "server.http_ms": 1e3 * statistics.median(http),
        "server.queue_wait_ms":
            loaded_p50_ms - 1e3 * statistics.median(roundtrip),
        "server.request_kb":
            statistics.median(size for _, _, size, _ in rows) / 1024,
        "server.response_kb":
            statistics.median(size for _, _, _, size in rows) / 1024,
        "server.rejected": sum(
            value for name, value in counters.items()
            if name.startswith("repro_http_rejected_")),
        "service.cache_hit_ratio":
            counters["repro_cache_hits_total"] / lookups if lookups else 0.0,
        "service.fanout_overhead_ms": 1e3 * median_or_zero(fanout),
        "truth.iterations": median_or_zero(
            [count("truth.iterations", rid) for rid in rids
             if count("truth.iterations", rid)]),
        "inference.saps_accept_ratio": median_or_zero(accept),
        "streaming.incremental_ratio":
            sum(count("streaming.incremental", rid) for rid in rids)
            / updates if updates else 0.0,
    }
    for name in LAYER_UNITS:
        if name not in metrics:
            metrics[name] = ms(name[:-len("_ms")])
    return {name: metrics[name] for name in LAYER_UNITS}


def layer_table(tally: Tally, table: Dict[str, Dict[str, float]]
                ) -> Dict[str, float]:
    """Mean self time (ms) per layer over the replayed requests, plus the
    HTTP residual; the parts add up to ``roundtrip``."""
    rows = tally.traced
    totals: Dict[str, float] = defaultdict(float)
    for rid, elapsed, _, _ in rows:
        mine = table.get(rid, {})
        for layer, seconds in mine.items():
            if layer:
                totals[layer] += seconds
        totals["server.http"] += elapsed - mine.get("", 0.0)
        totals["roundtrip"] += elapsed
    return {layer: 1e3 * total / len(rows)
            for layer, total in sorted(totals.items())}


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------

def environment() -> Dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "backend": os.environ.get("REPRO_BACKEND") or "thread (default)",
        "platform": platform.platform(),
    }


def print_report(name: str, report: Dict[str, object]) -> None:
    print(f"== {name} ==")
    samples = report["samples"]
    print(f"  {samples['latencies']} latency samples over "
          f"{len(samples['rounds'])} round(s), {samples['tail_beyond']} "
          f"beyond p{TAIL_PERCENTILE}; error_rate {report['error_rate']:.4f}")
    for group in ("e2e", "layers"):
        for metric, entry in report.get(group, {}).items():
            print(f"  {metric:<30} {entry['value']:>12.4f} {entry['unit']}")
    table = report.get("layer_table_ms")
    if table:
        whole = table["roundtrip"]
        print(f"  self time per layer, mean ms over {samples['replayed']} "
              "replayed requests:")
        for layer, value in table.items():
            if layer != "roundtrip":
                print(f"    {layer:<28} {value:>10.3f} {100 * value / whole:6.1f}%")
        print(f"    {'= roundtrip':<28} {whole:>10.3f}")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end HTTP benchmark of repro serve.")
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=14.0,
                        help="measured seconds per workload, split over "
                             "the rounds (default 14)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=[0, 1], help="add the traced replay")
    parser.add_argument("--out", help="write the full record as JSON here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one short round and the replay "
                             "for every workload")
    args = parser.parse_args(argv)
    args.rounds, args.setup_spawns = ROUNDS, SETUP_SPAWNS
    if args.smoke:
        args.workload, args.seconds, args.rounds, args.trace = \
            "all", 0.3, 1, 1
        args.setup_spawns = 0
    return args


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from spans import Tracer, by_request

    # A terminated run still stops its servers (the finally blocks run).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    tallies = {name: Tally(build_plan(name, args.seed, smoke=args.smoke))
               for name in names}
    tracer = Tracer()
    try:
        print(f"timing {args.setup_spawns} start-up(s)", file=sys.stderr,
              flush=True)
        setups = [time_setup() for _ in range(args.setup_spawns)]
        for number in range(args.rounds):
            for tally in tallies.values():
                print(f"round {number + 1}/{args.rounds} {tally.name}",
                      file=sys.stderr, flush=True)
                loaded_round(tally, args.seconds / args.rounds, setups,
                             top_up=number == args.rounds - 1)
        counts = trace(list(tallies.values()), args.seconds / 3, tracer) \
            if args.trace else {}
        table = by_request(tracer.spans)
        reports = {}
        for name, tally in tallies.items():
            e2e = e2e_metrics(tally, setups)
            latencies = sum(len(r.ok) for r in tally.rounds)
            report = {
                "e2e": {k: {"value": v, "unit": E2E_UNITS[k]}
                        for k, v in e2e.items()},
                "error_rate": tally.failed / tally.attempted,
                "samples": {
                    "setups": len(setups),
                    "scored": len(tally.plan.scored_keys()),
                    "topped_up_units": tally.topped_up,
                    "latencies": latencies,
                    "tail_beyond": samples_beyond(latencies, TAIL_PERCENTILE),
                    "replayed": len(tally.traced),
                    "rounds": [{"ok": len(r.ok), "attempted": len(r.samples),
                                "wall_s": r.wall_s} for r in tally.rounds],
                },
            }
            if args.trace:
                layers = layer_metrics(tally, table, counts,
                                       e2e["latency_p50_ms"])
                report["layers"] = {k: {"value": v, "unit": LAYER_UNITS[k]}
                                    for k, v in layers.items()}
                report["layer_table_ms"] = layer_table(tally, table)
            reports[name] = report
    except ServerError as error:
        print(f"run.py: {error}", file=sys.stderr)
        return 1

    wrong = [w for tally in tallies.values() for w in tally.wrong]
    for name, report in reports.items():
        print_report(name, report)
    for message in wrong[:20]:
        print(f"WRONG: {message}", file=sys.stderr)
    if args.out:
        record = {
            "schema": "repro.e2e_bench/1",
            "env": environment(),
            "args": {"seed": args.seed, "seconds": args.seconds,
                     "rounds": args.rounds, "trace": args.trace,
                     "smoke": args.smoke},
            "wrong": wrong,
            "workloads": reports,
        }
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
        if args.trace:
            tracer.write(str(Path(args.out).with_suffix(".spans.jsonl")))
    group = "layers" if args.trace else "e2e"
    metrics = {}
    for name, report in reports.items():
        prefix = "" if len(reports) == 1 else f"{name}/"
        for metric, entry in report[group].items():
            metrics[prefix + metric] = entry
    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(t.attempted for t in tallies.values()),
        "failed": sum(t.failed for t in tallies.values()),
        "metrics": metrics,
    }))
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
