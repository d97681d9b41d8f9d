"""Benchmark: the SAPS annealing kernel and execution backends.

Runs the production (incremental) kernel and the full-re-sum reference
oracle (``tests/oracles/saps.py``) on the same random complete closures
with the same seed at several sizes and writes ``BENCH_saps.json`` at
the repo root: proposals/sec and wall time per kernel, the speedup, and
hard equality checks (same best ranking and accepted-move count, same
cost to 1e-9, serial == parallel restarts) — so later PRs can track
kernel performance and catch any divergence from the oracle.

A second sweep runs one heavy 4-restart workload per size on each
execution backend (serial / thread / process) and records the
process-vs-thread speedup: the annealing kernel is pure Python, so
threads are GIL-bound and the process backend is where parallel
restarts actually scale.  Rankings must stay bit-identical across
backends.

Besides the uniform random closures, one row (``"closure":
"steps_1_3"``) runs the kernels on the closure that Steps 1-3 build
from a seeded synthetic crowd at the shape cold ``/v1/rank`` traffic
has (n=100, r=0.3, 20 workers, 5 per task).

``--smoke`` runs a tiny configuration with ``debug_checks`` on (the
incremental kernel asserts running-cost == full re-sum and its edge
lists == the diff table along the path after every accepted move) and
exits non-zero if the kernels disagree anywhere or the incremental
kernel is slower than 1.5x the reference on a random closure —
suitable for CI.

Not collected by pytest (no ``test_`` prefix) — run directly:

    PYTHONPATH=src python benchmarks/bench_saps.py [--sizes 50 100 200 400]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from repro.adaptive import _interim_closure
from repro.config import PipelineConfig, SAPSConfig
from repro.datasets import make_scenario
from repro.experiments.runner import collect_votes
from repro.inference.saps import SAPSReport, saps_search_report

REPO_ROOT = Path(__file__).resolve().parents[1]
# The reference kernel is a test oracle: importable as tests.oracles
# once the repo root is on the path.
sys.path.insert(0, str(REPO_ROOT))
from tests.oracles import reference_search_report  # noqa: E402

#: Timed runs per kernel row outside smoke mode; the median is reported.
REPEATS = 5


def random_closure(n: int, seed: int) -> np.ndarray:
    """A random complete closure: w_ij + w_ji = 1, weights in (0, 1)."""
    rng = np.random.default_rng(seed)
    upper = rng.uniform(0.05, 0.95, size=(n, n))
    matrix = np.triu(upper, 1)
    matrix = matrix + np.tril(1.0 - matrix.T, -1)
    np.fill_diagonal(matrix, 0.0)
    return matrix


def pipeline_closure(n: int, seed: int) -> np.ndarray:
    """The complete closure default Steps 1-3 build from a seeded crowd
    (r=0.3, 20 workers, 5 per task): the input cold ``/v1/rank`` hands
    to Step 4."""
    scenario = make_scenario(n, 0.3, n_workers=20, workers_per_task=5,
                             rng=seed)
    votes = collect_votes(scenario, rng=seed)
    return _interim_closure(n, list(votes.votes), PipelineConfig(),
                            np.random.default_rng(seed))


def run_kernel(matrix: np.ndarray, config: SAPSConfig, seed: int,
               repeats: int = 1,
               search: Callable[..., SAPSReport] = saps_search_report,
               ) -> Dict[str, object]:
    """Median wall time of ``repeats`` identical seeded runs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        report = search(matrix, config, rng=seed)
        times.append(time.perf_counter() - start)
    elapsed = float(np.median(times))
    return {
        "seconds": round(elapsed, 4),
        "proposals_per_s": round(report.proposed_moves / elapsed, 1),
        "proposed_moves": report.proposed_moves,
        "accepted_moves": report.accepted_moves,
        "log_preference": report.log_preference,
        "ranking": list(report.ranking.order),
    }


def bench_size(n: int, iterations: int, restarts: int, seed: int,
               debug_checks: bool, closure: str = "random",
               repeats: int = 1) -> Dict[str, object]:
    matrix = (pipeline_closure(n, seed) if closure == "steps_1_3"
              else random_closure(n, seed=n))
    base = dict(iterations=iterations, restarts=restarts,
                scale_with_objects=False)
    incremental = run_kernel(
        matrix, SAPSConfig(**base, debug_checks=debug_checks), seed, repeats,
    )
    reference = run_kernel(
        matrix, SAPSConfig(**base), seed, repeats,
        search=reference_search_report,
    )
    parallel = run_kernel(
        matrix,
        SAPSConfig(**base, parallel_restarts=4, debug_checks=debug_checks),
        seed, repeats,
    )
    same_ranking = incremental["ranking"] == reference["ranking"]
    same_moves = (incremental["accepted_moves"]
                  == reference["accepted_moves"])
    cost_gap = abs(incremental["log_preference"]
                   - reference["log_preference"])
    parallel_identical = (
        parallel["ranking"] == incremental["ranking"]
        and parallel["log_preference"] == incremental["log_preference"]
    )
    speedup = (incremental["proposals_per_s"]
               / reference["proposals_per_s"])
    return {
        "n": n,
        "closure": closure,
        "iterations": iterations,
        "restarts": restarts,
        "incremental": {k: v for k, v in incremental.items()
                        if k != "ranking"},
        "reference": {k: v for k, v in reference.items() if k != "ranking"},
        "parallel_restarts_4": {k: v for k, v in parallel.items()
                                if k != "ranking"},
        "speedup": round(speedup, 2),
        "same_ranking": same_ranking,
        "same_moves": same_moves,
        "cost_gap": cost_gap,
        "serial_equals_parallel": parallel_identical,
    }


def backend_sweep(n: int, iterations: int, seed: int) -> Dict[str, object]:
    """One annealing workload (4 restarts) on each execution backend.

    The annealing kernel is pure Python, so the thread backend is
    GIL-bound (~serial wall time) and the process backend is where the
    multi-core speedup lives; ``process_vs_thread_speedup`` records it.
    Rankings must be bit-identical across all three — the backends are
    a performance knob, never a results knob.
    """
    matrix = random_closure(n, seed=n)
    runs = {}
    for backend in ("serial", "thread", "process"):
        config = SAPSConfig(
            iterations=iterations, restarts=4, scale_with_objects=False,
            parallel_restarts=4, backend=backend,
        )
        runs[backend] = run_kernel(matrix, config, seed)
    identical = all(
        runs[backend]["ranking"] == runs["serial"]["ranking"]
        and runs[backend]["log_preference"]
        == runs["serial"]["log_preference"]
        for backend in ("thread", "process")
    )
    return {
        "n": n,
        "iterations": iterations,
        "restarts": 4,
        "parallel_restarts": 4,
        "backends": {
            backend: {"seconds": run["seconds"],
                      "proposals_per_s": run["proposals_per_s"]}
            for backend, run in runs.items()
        },
        "process_vs_thread_speedup": round(
            runs["thread"]["seconds"] / runs["process"]["seconds"], 2),
        "identical_rankings": identical,
        # The speedup is bounded by physical parallelism: on a 1-core
        # host process == thread == serial (all pay the same CPU), and
        # the number only becomes a multi-core scaling signal when
        # cpu_count > 1.
        "cpu_count": os.cpu_count(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[50, 100, 200, 400],
                        help="closure sizes to benchmark")
    parser.add_argument("--iterations", type=int, default=4000,
                        help="anneal iterations per restart (default 4000)")
    parser.add_argument("--restarts", type=int, default=2,
                        help="restarts per run (default 2)")
    parser.add_argument("--sweep-iterations", type=int, default=80000,
                        help="anneal iterations per restart in the "
                             "execution-backend sweep (default 80000; "
                             "heavy on purpose so pool overhead is "
                             "amortised)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI mode: debug_checks on, asserts "
                             "equality and no slowdown > 1.5x")
    parser.add_argument("--out", default=str(REPO_ROOT / "BENCH_saps.json"),
                        help="output path (default <repo>/BENCH_saps.json)")
    args = parser.parse_args()

    if args.smoke:
        sizes: List[int] = [20, 40]
        iterations = 500
        repeats = 1
    else:
        sizes = args.sizes
        iterations = args.iterations
        repeats = REPEATS

    results = []
    failures = []
    runs = [(n, "random") for n in sizes] + [(100, "steps_1_3")]
    for n, closure in runs:
        summary = bench_size(n, iterations, args.restarts, args.seed,
                             debug_checks=args.smoke, closure=closure,
                             repeats=repeats)
        results.append(summary)
        print(f"n={n} ({closure}): incremental "
              f"{summary['incremental']['proposals_per_s']:,.0f} p/s, "
              f"reference "
              f"{summary['reference']['proposals_per_s']:,.0f} p/s, "
              f"speedup {summary['speedup']}x, "
              f"same_ranking={summary['same_ranking']}, "
              f"cost_gap={summary['cost_gap']:.2e}, "
              f"serial==parallel {summary['serial_equals_parallel']}")
        if (not summary["same_ranking"] or not summary["same_moves"]
                or summary["cost_gap"] > 1e-9):
            failures.append(f"n={n} ({closure}): kernels disagree")
        if not summary["serial_equals_parallel"]:
            failures.append(
                f"n={n} ({closure}): parallel restarts changed the result")
        # The Steps 1-3 row is an identity check in smoke mode: early in
        # a short anneal most moves are accepted there, so the O(n)
        # debug check after each accept dominates its timing.
        if (args.smoke and closure == "random"
                and summary["speedup"] < 1.0 / 1.5):
            failures.append(
                f"n={n} ({closure}): incremental kernel slower than "
                f"1.5x reference (speedup {summary['speedup']}x)"
            )

    # The backend sweep needs enough work per restart that pool
    # overhead (fork + pickling the closure) is amortised — that is the
    # regime parallel restarts exist for.  The kernel comparison above
    # deliberately stays small; this deliberately does not.
    sweep_iterations = 2000 if args.smoke else args.sweep_iterations
    sweeps = []
    for n in sizes:
        sweep = backend_sweep(n, sweep_iterations, args.seed)
        sweeps.append(sweep)
        backends = sweep["backends"]
        print(f"n={n} backends: "
              + ", ".join(f"{name} {info['seconds']}s"
                          for name, info in backends.items())
              + f" -> process {sweep['process_vs_thread_speedup']}x "
                f"vs thread, identical={sweep['identical_rankings']}")
        if not sweep["identical_rankings"]:
            failures.append(f"n={n}: backends disagree on the ranking")

    payload = {
        "generated_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "workload": {
            "sizes": sizes,
            "iterations": iterations,
            "restarts": args.restarts,
            "seed": args.seed,
            "repeats": repeats,
        },
        "results": results,
        "backend_sweep": sweeps,
    }
    if not args.smoke:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
        print(f"wrote {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
