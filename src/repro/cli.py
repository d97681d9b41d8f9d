"""Command-line interface: ``python -m repro <command>``.

The commands cover the library's main entry points:

``rank``
    Infer a full ranking from an AMT-style votes CSV
    (``worker_id,winner,loser`` rows).

``plan``
    Resolve a budget into a concrete comparison plan and audit its
    fairness / HP-likelihood (Sec. IV requirements).

``simulate``
    Run one fully simulated end-to-end experiment (the paper's Sec. VI
    setting) and print accuracy plus per-step timing.

``batch``
    Run many ranking jobs (JSONL in) concurrently through
    :mod:`repro.service` — result cache, retries, timeouts — and emit
    one JSONL result line per job plus a metrics summary.

``serve``
    Run the network-facing ranking service (:mod:`repro.server`): a
    threaded HTTP JSON API with backpressure, health/readiness probes,
    Prometheus metrics and graceful drain on SIGTERM/SIGINT.

``stream``
    Replay a JSONL vote log through a live incremental ranking session
    (:mod:`repro.streaming`) — locally, or against a running server —
    re-inferring after every chunk and early-stopping once the ranking
    stabilises.

``matrix``
    Sweep the adversarial scenario × engine robustness matrix
    (:mod:`repro.experiments.matrix`) and print per-cell accuracy,
    Kendall-tau and vote-efficiency.

``reproduce``
    Regenerate a paper artifact's data series.

Results go to stdout; diagnostics (enabled with ``--verbose``) go to
stderr via the ``repro`` loggers, so piped output stays clean.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import List, Optional

from . import __version__
from .config import (
    LARGE_N_PIPELINE,
    PipelineConfig,
    PropagationConfig,
    SAPSConfig,
)
from .diagnostics import configure_logging
from .exceptions import ReproError
from .workers.backends import BACKEND_CHOICES


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Budget-constrained non-interactive crowdsourced "
                    "ranking (ICDCS 2017 reproduction)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="emit repro.* diagnostics on stderr "
                             "(-v info, -vv debug)")
    # Accept -v after the subcommand too (`repro batch jobs.jsonl -v`).
    # SUPPRESS keeps the subparser from resetting the count the root
    # parser already accumulated.
    verbose_parent = argparse.ArgumentParser(add_help=False)
    verbose_parent.add_argument(
        "-v", "--verbose", action="count", default=argparse.SUPPRESS,
        help=argparse.SUPPRESS)
    # Shared by the commands that fan work out in-process (rank,
    # simulate, batch): where that work runs.  None defers to
    # $REPRO_BACKEND, then "thread".  serve has its own --backend.
    backend_parent = argparse.ArgumentParser(add_help=False)
    backend_parent.add_argument(
        "--backend", choices=list(BACKEND_CHOICES), default=None,
        help="execution backend for parallel work: 'serial' (inline "
             "oracle), 'thread' (shared-memory pool), or 'process' "
             "(multi-core with crash isolation). Default: "
             "$REPRO_BACKEND, then 'thread'")
    commands = parser.add_subparsers(dest="command", required=True)

    rank = commands.add_parser(
        "rank", parents=[verbose_parent, backend_parent],
        help="infer a full ranking from a votes CSV"
    )
    rank.add_argument("votes_csv", help="CSV with worker_id,winner,loser rows")
    rank.add_argument("--n-objects", type=int, default=None,
                      help="object-universe size (default: inferred)")
    rank.add_argument("--search", choices=["saps", "taps",
                                           "branch_and_bound"],
                      default="saps", help="Step-4 search algorithm")
    rank.add_argument("--engine",
                      choices=["crh_saps", "hodge", "lsq"], default=None,
                      help="Step 1-3 engine: 'crh_saps' (the paper's "
                           "dense pipeline, default), or the sparse "
                           "least-squares engines 'hodge' / 'lsq' for "
                           "large n")
    rank.add_argument("--preset", choices=["large-n"], default=None,
                      help="named configuration preset; 'large-n' is "
                           "the BENCH_engines.json winner (hodge sparse "
                           "engine) for n in the thousands")
    rank.add_argument("--alpha", type=float, default=0.5,
                      help="Step-3 direct/indirect blend (default 0.5)")
    rank.add_argument("--parallel-restarts", type=int, default=1,
                      metavar="LANES",
                      help="concurrent SAPS restarts, run on --backend; "
                           "results are identical to serial for the same "
                           "seed (default 1)")
    rank.add_argument("--top-k", type=int, default=None, metavar="K",
                      help="report only the top-K objects")
    rank.add_argument("--save", metavar="PATH", default=None,
                      help="also persist the full result as JSON "
                           "(repro.io schema)")
    rank.add_argument("--seed", type=int, default=None, help="random seed")
    rank.add_argument("--json", action="store_true",
                      help="emit machine-readable JSON")

    plan = commands.add_parser(
        "plan", parents=[verbose_parent],
        help="resolve a budget into a comparison plan and audit it"
    )
    plan.add_argument("n_objects", type=int)
    group = plan.add_mutually_exclusive_group(required=True)
    group.add_argument("--budget", type=float,
                       help="total budget in currency units")
    group.add_argument("--ratio", type=float,
                       help="target selection ratio in (0, 1]")
    plan.add_argument("--workers-per-task", type=int, default=5)
    plan.add_argument("--reward", type=float, default=0.025,
                      help="reward per single comparison (default $0.025)")
    plan.add_argument("--seed", type=int, default=None)
    plan.add_argument("--json", action="store_true")

    simulate = commands.add_parser(
        "simulate", parents=[verbose_parent, backend_parent],
        help="run one simulated end-to-end experiment"
    )
    simulate.add_argument("n_objects", type=int)
    simulate.add_argument("--ratio", type=float, default=0.1)
    simulate.add_argument("--workers", type=int, default=50,
                          help="worker-pool size")
    simulate.add_argument("--workers-per-task", type=int, default=5)
    simulate.add_argument("--quality", choices=["gaussian", "uniform"],
                          default="gaussian")
    simulate.add_argument("--level", choices=["high", "medium", "low"],
                          default="medium")
    simulate.add_argument("--parallel-restarts", type=int, default=1,
                          metavar="LANES",
                          help="concurrent SAPS restarts, run on --backend "
                               "(default 1; seed-identical to serial)")
    simulate.add_argument("--engine",
                          choices=["crh_saps", "hodge", "lsq"], default=None,
                          help="Step 1-3 engine (default crh_saps; "
                               "'hodge'/'lsq' are the sparse large-n "
                               "least-squares engines)")
    simulate.add_argument("--preset", choices=["large-n"], default=None,
                          help="named configuration preset; 'large-n' "
                               "selects the hodge sparse engine")
    simulate.add_argument("--seed", type=int, default=None)
    simulate.add_argument("--json", action="store_true")

    batch = commands.add_parser(
        "batch", parents=[verbose_parent, backend_parent],
        help="run a JSONL file of ranking jobs through the batch service",
    )
    batch.add_argument("jobs_jsonl",
                       help="JSONL job file (repro.job/1 lines); '-' reads "
                            "stdin")
    batch.add_argument("--workers", type=int, default=4,
                       help="jobs run at once: threads, or runs of jobs "
                            "on --backend process (default 4)")
    batch.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-job attempt timeout (default: unbounded)")
    batch.add_argument("--max-attempts", type=int, default=3,
                       help="attempts per job incl. the first (default 3)")
    batch.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persist cached results as JSON files here")
    batch.add_argument("--no-cache", action="store_true",
                       help="disable the result cache entirely")
    batch.add_argument("--out", metavar="PATH", default=None,
                       help="write the result JSONL here instead of stdout")
    batch.add_argument("--json", action="store_true",
                       help="append the metrics snapshot as a final "
                            "repro.batch_metrics/1 JSONL line instead of a "
                            "human summary on stderr")

    serve = commands.add_parser(
        "serve", parents=[verbose_parent],
        help="run the HTTP ranking service (POST /v1/rank, /v1/batch; "
             "GET /healthz, /readyz, /metrics)",
    )
    serve.add_argument(
        "--backend", choices=list(BACKEND_CHOICES), default=None,
        help="where job attempts run: 'process' (a pool of "
             "min(--workers, usable CPUs) worker processes forked at "
             "start; multi-core, deadline kill, crash isolation), "
             "'thread' (the request threads, one GIL) or 'serial'. "
             "Default: $REPRO_BACKEND, then 'process'")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8080,
                       help="bind port; 0 picks an ephemeral port "
                            "(default 8080)")
    serve.add_argument("--workers", type=int, default=4,
                       help="execution slots: requests executing jobs "
                            "at once, one slot each, a /v1/batch included "
                            "(default 4)")
    serve.add_argument("--queue-depth", type=int, default=32,
                       help="max requests in flight before 429 "
                            "backpressure (default 32)")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="default per-request deadline "
                            "(default: unbounded up to --max-timeout)")
    serve.add_argument("--max-timeout", type=float, default=300.0,
                       metavar="SECONDS",
                       help="ceiling on any per-request deadline, on "
                            "queue waits and on a session update "
                            "(default 300)")
    serve.add_argument("--max-body-bytes", type=int, default=8 * 1024 * 1024,
                       help="reject larger request bodies with 413 "
                            "(default 8 MiB)")
    serve.add_argument("--cache-dir", metavar="DIR", default=None,
                       help="persist cached results as JSON files here")
    serve.add_argument("--no-cache", action="store_true",
                       help="disable the result cache entirely")
    serve.add_argument("--drain-grace", type=float, default=10.0,
                       metavar="SECONDS",
                       help="seconds to wait for in-flight requests on "
                            "shutdown (default 10)")
    serve.add_argument("--max-sessions", type=int, default=64,
                       help="cap on live streaming sessions (default 64)")
    serve.add_argument("--session-ttl", type=float, default=3600.0,
                       metavar="SECONDS",
                       help="idle seconds before a session is evictable; "
                            "0 disables TTL eviction (default 3600)")

    stream = commands.add_parser(
        "stream", parents=[verbose_parent],
        help="replay a JSONL vote log through an incremental ranking "
             "session (early-stops once stable)",
    )
    stream.add_argument("votes_jsonl",
                        help="JSONL vote log ([worker, winner, loser] "
                             "lines); '-' reads stdin")
    stream.add_argument("--n-objects", type=int, required=True,
                        help="object-universe size")
    stream.add_argument("--chunk", type=int, default=1,
                        help="votes ingested per incremental update "
                             "(default 1)")
    stream.add_argument("--window", type=int, default=5,
                        help="stability window in updates (default 5)")
    stream.add_argument("--threshold", type=float, default=0.02,
                        help="rolling Kendall-distance threshold "
                             "(default 0.02)")
    stream.add_argument("--min-votes", type=int, default=0,
                        help="votes before early stopping may trigger")
    stream.add_argument("--no-early-stop", action="store_true",
                        help="keep ingesting after the session stabilises")
    stream.add_argument("--warm-iterations", type=int, default=1500,
                        help="SAPS iterations per session update "
                             "(default 1500)")
    stream.add_argument("--url", metavar="URL", default=None,
                        help="replay against a running repro server "
                             "instead of in-process")
    stream.add_argument("--save-session", metavar="PATH", default=None,
                        help="write the final session snapshot as JSON "
                             "(local mode only)")
    stream.add_argument("--active", action="store_true",
                        help="closed-loop replay: each round asks the "
                             "acquisition engine which pairs to query "
                             "next and submits only the log's votes on "
                             "those pairs")
    stream.add_argument("--scorer", default="bdp",
                        choices=["random", "uncertainty", "entropy",
                                 "bdp", "infomax"],
                        help="acquisition scorer backing suggest() "
                             "(default bdp)")
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON")

    matrix = commands.add_parser(
        "matrix", parents=[verbose_parent],
        help="sweep the adversarial scenario × engine robustness matrix",
    )
    matrix.add_argument("--families", nargs="+", default=None,
                        metavar="FAMILY",
                        help="scenario families to run (default: all; "
                             "see repro.datasets.adversarial)")
    matrix.add_argument("--engines", nargs="+", default=None,
                        metavar="ENGINE",
                        help="engines to run (default: crh_saps borda "
                             "copeland bdp; also hodge lsq rc btl "
                             "uncertainty random)")
    matrix.add_argument("--n-objects", type=int, default=40,
                        help="object-universe size (default 40)")
    matrix.add_argument("--ratio", type=float, default=0.3,
                        help="nominal selection ratio r (default 0.3; "
                             "budget-regime families override it)")
    matrix.add_argument("--workers", type=int, default=20,
                        help="simulated crowd size (default 20)")
    matrix.add_argument("--workers-per-task", type=int, default=3,
                        help="votes per comparison w (default 3)")
    matrix.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3],
                        help="seeds aggregated per cell (default 1 2 3)")
    matrix.add_argument("--rounds", type=int, default=4,
                        help="adaptive rounds for acquisition engines "
                             "(default 4)")
    matrix.add_argument("--json", action="store_true",
                        help="emit machine-readable JSON cells")
    matrix.add_argument("--out", metavar="CSV", default=None,
                        help="write the cells to a CSV file")

    reproduce = commands.add_parser(
        "reproduce", parents=[verbose_parent],
        help="regenerate a paper artifact's data series (CSV or table)",
    )
    reproduce.add_argument(
        "artifact",
        choices=["fig5-ratio", "fig5-objects", "table1"],
        help="which artifact to regenerate (laptop-scale grid)",
    )
    reproduce.add_argument("--out", metavar="CSV", default=None,
                           help="write the records to a CSV file")
    reproduce.add_argument("--seed", type=int, default=0)
    return parser


def _resolve_engine(args: argparse.Namespace) -> str:
    """Step 1-3 engine from --engine / --preset (explicit flag wins)."""
    if args.engine is not None:
        return args.engine
    if getattr(args, "preset", None) == "large-n":
        return LARGE_N_PIPELINE.engine
    return "crh_saps"


def _cmd_rank(args: argparse.Namespace) -> int:
    from .datasets import load_votes_csv
    from .inference import infer_ranking

    votes = load_votes_csv(args.votes_csv, n_objects=args.n_objects)
    config = PipelineConfig(
        search=args.search,
        engine=_resolve_engine(args),
        propagation=PropagationConfig(alpha=args.alpha),
        saps=SAPSConfig(parallel_restarts=args.parallel_restarts,
                        backend=args.backend),
    )
    result = infer_ranking(votes, config, rng=args.seed)
    if args.save:
        from .io import save_result

        save_result(result, args.save)
    shown = list(result.ranking.order)
    if args.top_k is not None:
        if not 1 <= args.top_k <= len(shown):
            print(f"error: --top-k must be in [1, {len(shown)}]",
                  file=sys.stderr)
            return 2
        shown = shown[: args.top_k]
    if args.json:
        print(json.dumps({
            "ranking": shown,
            "log_preference": result.log_preference,
            "worker_quality": {str(k): v
                               for k, v in result.worker_quality.items()},
            "metadata": {k: v for k, v in result.metadata.items()
                         if isinstance(v, (int, float, str, bool))},
        }, indent=2))
    else:
        print(f"objects: {votes.n_objects}   votes: {len(votes)}   "
              f"workers: {len(votes.workers())}")
        label = ("ranking (most preferred first)"
                 if args.top_k is None else f"top {args.top_k}")
        print(f"{label}: {shown}")
        print(f"log preference: {result.log_preference:.4f}")
        worst = sorted(result.worker_quality.items(), key=lambda kv: kv[1])
        print("least reliable workers: "
              + ", ".join(f"{k} (q={v:.2f})" for k, v in worst[:5]))
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .assignment import generate_assignment, verify_assignment
    from .budget import BudgetModel, plan_for_budget, plan_for_selection_ratio

    if args.budget is not None:
        budget = BudgetModel(total=args.budget,
                             workers_per_task=args.workers_per_task,
                             reward=args.reward)
        plan = plan_for_budget(args.n_objects, budget)
    else:
        plan = plan_for_selection_ratio(
            args.n_objects, args.ratio,
            workers_per_task=args.workers_per_task, reward=args.reward,
        )
    assignment = generate_assignment(plan, rng=args.seed)
    report = verify_assignment(assignment)
    payload = {
        "n_objects": plan.n_objects,
        "n_comparisons": plan.n_comparisons,
        "selection_ratio": round(plan.selection_ratio, 4),
        "total_votes": plan.total_votes,
        "spend": round(plan.spend, 4),
        "n_hits": assignment.n_hits,
        "degree_min": report.degree_min,
        "degree_max": report.degree_max,
        "fair": report.fair,
        "near_fair": report.near_fair,
        "connected": report.connected,
        "hp_likelihood_bound": report.hp_likelihood_bound,
        "all_requirements_met": report.all_requirements_met,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for key, value in payload.items():
            print(f"{key:<22} {value}")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .datasets import make_scenario
    from .experiments import run_pipeline_arm
    from .workers import QualityLevel

    scenario = make_scenario(
        args.n_objects, args.ratio,
        n_workers=args.workers, workers_per_task=args.workers_per_task,
        quality=args.quality, level=QualityLevel(args.level), rng=args.seed,
    )
    config = PipelineConfig(
        engine=_resolve_engine(args),
        saps=SAPSConfig(parallel_restarts=args.parallel_restarts,
                        backend=args.backend),
    )
    record = run_pipeline_arm(scenario, config, rng=args.seed)
    payload = record.as_row()
    if args.json:
        print(json.dumps(payload, indent=2, default=str))
    else:
        for key, value in payload.items():
            print(f"{key:<20} {value}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from .service import (
        BATCH_METRICS_SCHEMA,
        BatchExecutor,
        MetricsRegistry,
        ResultCache,
        RetryPolicy,
        dump_results_jsonl,
        iter_jobs_jsonl,
        load_jobs_jsonl,
    )

    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.jobs_jsonl == "-":
        jobs = list(iter_jobs_jsonl(sys.stdin, source="<stdin>"))
    else:
        jobs = load_jobs_jsonl(args.jobs_jsonl)
    cache = None
    if not args.no_cache:
        cache = ResultCache(persist_dir=args.cache_dir)
    executor = BatchExecutor(
        args.workers,
        cache=cache,
        retry=RetryPolicy(max_attempts=args.max_attempts),
        timeout=args.timeout,
        metrics=MetricsRegistry(),
        backend=args.backend,
    )
    report = executor.run(jobs)
    text = dump_results_jsonl(report.results)
    if args.json:
        text += json.dumps(
            {"schema": BATCH_METRICS_SCHEMA, **report.metrics},
            sort_keys=True,
        ) + "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    if not args.json:
        counters = report.metrics.get("counters", {})
        derived = report.metrics.get("derived", {})
        hit_rate = derived.get("cache_hit_rate")
        print(
            f"batch: {len(report.results)} jobs — "
            f"{len(report.succeeded)} succeeded, "
            f"{len(report.failed)} failed, "
            f"{len(report.timed_out)} timed out; "
            f"retries {counters.get('retry.attempts', 0):g}; "
            "cache hit-rate "
            + (f"{hit_rate:.0%}" if hit_rate is not None else "n/a"),
            file=sys.stderr,
        )
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .server import RankingServer, ServerConfig
    from .server.app import freeze_startup_heap

    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        max_body_bytes=args.max_body_bytes,
        default_timeout=args.timeout,
        max_timeout=args.max_timeout,
        cache_dir=args.cache_dir,
        no_cache=args.no_cache,
        drain_grace=args.drain_grace,
        backend=args.backend,
        max_sessions=args.max_sessions,
        session_ttl=args.session_ttl if args.session_ttl > 0 else None,
    )
    stop = threading.Event()

    def _request_stop(signum: int, frame: object) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    server = RankingServer(config)
    server.start()
    freeze_startup_heap()
    # Operational one-liner on stderr (stdout stays clean/machine-free);
    # `repro serve --port 0` consumers parse this line for the real port.
    print(f"serving on {server.url} "
          f"(workers={config.workers}, queue_depth={config.queue_depth})",
          file=sys.stderr, flush=True)
    # Event.wait in a short loop so signals interrupt promptly on every
    # platform.
    while not stop.wait(0.2):
        pass
    print("draining...", file=sys.stderr, flush=True)
    drained = server.stop()
    print("stopped" + ("" if drained else " (drain grace expired)"),
          file=sys.stderr, flush=True)
    return 0 if drained else 1


def _read_vote_log(path: str) -> list:
    """Parse a JSONL vote log: one ``[worker, winner, loser]`` triple
    (or object with those keys) per line; ``-`` reads stdin."""
    from .exceptions import DataFormatError
    from .io import decode_json
    from .streaming import votes_from_payload

    name = "<stdin>" if path == "-" else path
    try:
        handle = sys.stdin if path == "-" else open(path)
    except OSError as error:
        raise DataFormatError(f"cannot read {name}: {error}") from None
    votes = []
    try:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            where = f"{name}:{lineno}"
            votes.extend(votes_from_payload([decode_json(line, where)],
                                            source=where))
    finally:
        if handle is not sys.stdin:
            handle.close()
    if not votes:
        raise DataFormatError(f"{name}: vote log is empty")
    return votes


def _cmd_stream(args: argparse.Namespace) -> int:
    from .exceptions import ConfigurationError

    if args.chunk < 1:
        raise ConfigurationError(f"--chunk must be >= 1, got {args.chunk}")
    votes = _read_vote_log(args.votes_jsonl)
    if args.active:
        view, replayed = _stream_active(args, votes)
    elif args.url is not None:
        chunks = [votes[i:i + args.chunk]
                  for i in range(0, len(votes), args.chunk)]
        view, replayed = _stream_remote(args, chunks)
    else:
        chunks = [votes[i:i + args.chunk]
                  for i in range(0, len(votes), args.chunk)]
        view, replayed = _stream_local(args, chunks)
    view["votes_replayed"] = replayed
    view["votes_total"] = len(votes)
    if args.json:
        print(json.dumps(view, indent=2))
    else:
        score = view.get("stability_score")
        updates = view["updates"]
        n_updates = updates["full"] + updates["incremental"]
        print(f"replayed {replayed}/{len(votes)} votes in {n_updates} "
              f"updates — verdict: {view['verdict']}"
              + (f" (stability {score:.4f})" if score is not None else ""))
        print(f"ranking (most preferred first): {view['ranking']}")
        print(f"updates: {updates['full']} full, "
              f"{updates['incremental']} incremental")
        if replayed < len(votes):
            saved = len(votes) - replayed
            print(f"early stop saved {saved} votes "
                  f"({saved / len(votes):.0%} of the log)",
                  file=sys.stderr)
    return 0


def _stream_active(args: argparse.Namespace, votes: list):
    """Closed-loop replay: submit only the pairs the engine asks for.

    The vote log becomes a simulated crowd: votes pool by canonical
    pair, and each round the session's acquisition scorer suggests the
    next batch of pairs, of which only the pooled votes are ingested
    (one per suggested pair per round, in log order).  Rounds where no
    suggested pair has votes left end the replay — the engine wants
    information the log cannot provide.
    """
    from collections import deque

    from .client import RankingClient, ServerError
    from .exceptions import ConfigurationError
    from .types import canonical_pair

    if args.save_session and args.url is not None:
        raise ConfigurationError(
            "--save-session only applies to local replay (drop --url)"
        )
    pool = {}
    for vote in votes:
        pool.setdefault(
            canonical_pair(vote.winner, vote.loser), deque()
        ).append(vote)

    if args.url is None:
        from .streaming import (
            RankingSession,
            SessionConfig,
            session_to_payload,
        )

        config = _session_config_local(args)
        session = RankingSession("cli-stream", args.n_objects, config)
        suggest = session.suggest
        ingest = session.ingest
    else:
        client = RankingClient(args.url)
        view = client.create_session(
            args.n_objects, config=_session_config_payload(args)
        )
        session_id = view["session_id"]
        suggest = lambda k: client.suggest_pairs(session_id, k)  # noqa: E731
        ingest = lambda batch: client.submit_votes(session_id, batch)  # noqa: E731

    replayed = 0
    rounds = 0
    remaining = sum(len(q) for q in pool.values())
    while remaining:
        targets = suggest(max(args.chunk, 1))
        batch = []
        for pair in targets:
            queue = pool.get(tuple(pair))
            if queue:
                batch.append(queue.popleft())
        if not batch:
            break
        try:
            result = ingest(batch)
        except ServerError as error:
            if args.url is not None and error.status == 409:
                break
            raise
        replayed += len(batch)
        remaining -= len(batch)
        rounds += 1
        if args.url is None:
            verdict = session.verdict
            mode = result.mode
        else:
            verdict = result["verdict"]
            mode = result.get("update_mode", "?")
        print(f"  round {rounds:>4}  {replayed:>6} votes  "
              f"mode={mode:<11} verdict={verdict}",
              file=sys.stderr, flush=True)
        if verdict == "stopped":
            break

    if args.url is None:
        if args.save_session:
            from .io import save_payload

            save_payload(session_to_payload(session), args.save_session)
            print(f"session snapshot written to {args.save_session}",
                  file=sys.stderr)
        return session.view(), replayed
    return client.session_ranking(session_id), replayed


def _session_config_local(args: argparse.Namespace):
    from .streaming import SessionConfig

    return SessionConfig(
        seed=args.seed,
        stability_window=args.window,
        stability_threshold=args.threshold,
        min_votes=args.min_votes,
        early_stop=not args.no_early_stop,
        warm_iterations=args.warm_iterations,
        scorer=getattr(args, "scorer", "bdp"),
    )


def _session_config_payload(args: argparse.Namespace) -> dict:
    return {
        "seed": args.seed,
        "stability_window": args.window,
        "stability_threshold": args.threshold,
        "min_votes": args.min_votes,
        "early_stop": not args.no_early_stop,
        "warm_iterations": args.warm_iterations,
        "scorer": getattr(args, "scorer", "bdp"),
    }


def _stream_local(args: argparse.Namespace, chunks: list):
    from .streaming import RankingSession, session_to_payload

    config = _session_config_local(args)
    session = RankingSession("cli-stream", args.n_objects, config)
    replayed = 0
    for chunk in chunks:
        report = session.ingest(chunk)
        replayed += len(chunk)
        print(f"  {replayed:>6} votes  mode={report.mode:<11} "
              f"verdict={session.verdict}", file=sys.stderr, flush=True)
        if session.stopped:
            break
    if args.save_session:
        from .io import save_payload

        save_payload(session_to_payload(session), args.save_session)
        print(f"session snapshot written to {args.save_session}",
              file=sys.stderr)
    return session.view(), replayed


def _stream_remote(args: argparse.Namespace, chunks: list):
    from .client import RankingClient, ServerError
    from .exceptions import ConfigurationError

    if args.save_session:
        raise ConfigurationError(
            "--save-session only applies to local replay (drop --url)"
        )
    client = RankingClient(args.url)
    view = client.create_session(
        args.n_objects, config=_session_config_payload(args)
    )
    session_id = view["session_id"]
    replayed = 0
    for chunk in chunks:
        try:
            view = client.submit_votes(session_id, chunk)
        except ServerError as error:
            if error.status == 409:  # stopped between chunks
                break
            raise
        replayed += len(chunk)
        print(f"  {replayed:>6} votes  mode={view.get('update_mode', '?'):<11} "
              f"verdict={view['verdict']}", file=sys.stderr, flush=True)
        if view["verdict"] == "stopped":
            break
    view = client.session_ranking(session_id)
    return view, replayed


def _cmd_matrix(args: argparse.Namespace) -> int:
    from .experiments import export_records_csv, format_records
    from .experiments.matrix import run_matrix

    cells = run_matrix(
        families=args.families,
        engines=args.engines,
        n_objects=args.n_objects,
        selection_ratio=args.ratio,
        n_workers=args.workers,
        workers_per_task=args.workers_per_task,
        seeds=args.seeds,
        rounds=args.rounds,
    )
    if args.json:
        print(json.dumps([cell.as_payload() for cell in cells], indent=2))
    else:
        print(format_records(
            cells,
            columns=["family", "engine", "n", "r", "w", "accuracy",
                     "acc_min", "kendall_tau", "votes", "acc_per_kvote",
                     "seconds"],
            title=(f"Adversarial workload matrix "
                   f"(n={args.n_objects}, seeds={args.seeds})"),
        ))
    if args.out:
        export_records_csv(cells, args.out)
        print(f"\nwrote {args.out}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from .datasets import make_scenario
    from .experiments import (
        export_records_csv,
        format_records,
        run_baseline_arm,
        run_pipeline_arm,
    )
    from .experiments.runner import collect_votes

    records = []
    if args.artifact == "fig5-ratio":
        for ratio in (0.1, 0.3, 0.5):
            for quality in ("gaussian", "uniform"):
                scenario = make_scenario(
                    80, ratio, n_workers=40, workers_per_task=5,
                    quality=quality, rng=args.seed + int(ratio * 100),
                )
                records.append(run_pipeline_arm(
                    scenario, PipelineConfig(),
                    rng=args.seed + int(ratio * 100),
                ))
        title = "Fig. 5 (right): accuracy vs selection ratio (n=80)"
    elif args.artifact == "fig5-objects":
        for n in (50, 100, 150):
            for quality in ("gaussian", "uniform"):
                scenario = make_scenario(
                    n, 0.1, n_workers=40, workers_per_task=5,
                    quality=quality, rng=args.seed + n,
                )
                records.append(run_pipeline_arm(scenario, PipelineConfig(),
                                                rng=args.seed + n))
        title = "Fig. 5 (left): accuracy vs #objects (r=0.1)"
    else:  # table1
        for n in (60, 100):
            scenario = make_scenario(n, 0.5, n_workers=40,
                                     workers_per_task=5,
                                     rng=args.seed + n)
            votes = collect_votes(scenario, rng=args.seed + n)
            records.append(run_pipeline_arm(scenario, PipelineConfig(),
                                            rng=args.seed + n, votes=votes))
            for name in ("rc", "qs"):
                records.append(run_baseline_arm(scenario, name,
                                                rng=args.seed + n,
                                                votes=votes))
        title = "Table I (laptop scale): SAPS vs RC vs QS, r=0.5"
    print(format_records(
        records,
        columns=["algorithm", "n", "r", "quality", "accuracy", "seconds"],
        title=title,
    ))
    if args.out:
        export_records_csv(records, args.out)
        print(f"\nwrote {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        configure_logging(
            logging.DEBUG if args.verbose > 1 else logging.INFO
        )
    handlers = {
        "rank": _cmd_rank,
        "plan": _cmd_plan,
        "simulate": _cmd_simulate,
        "batch": _cmd_batch,
        "serve": _cmd_serve,
        "stream": _cmd_stream,
        "matrix": _cmd_matrix,
        "reproduce": _cmd_reproduce,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as error:
        # Job files, vote logs and CSVs are read as UTF-8 text.
        print(f"error: input is not UTF-8 text ({error})", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
