"""Benchmark: the columnar pipeline vs the object oracle through Steps 1-3.

Runs full inference twice on identical vote sets — once through
:class:`~repro.inference.RankingPipeline` (the ``columnar`` column:
dense matrices end to end) and once through the object-graph oracle
``tests/oracles/pipeline.py`` (the ``object`` column: per-edge
``PreferenceGraph`` smoothing) — and writes ``BENCH_pipeline.json`` at
the repo root with per-step wall times for both at each size.

The speedup metric is the Steps 1-3 sum (truth discovery + smoothing +
propagation); Step 4's search is excluded — it consumes the same dense
closure matrix on both and its cost is a function of the annealing
budget, not the vote representation.  Every run also hard-checks the
fast path's contract: the ranking and ``log_preference`` must be
*bit-identical* to the object path for every benched seed.

``--smoke`` runs two tiny sizes with the identity checks only (no file
written, no timing thresholds — CI boxes are noisy) and exits non-zero
on any divergence.

Not collected by pytest (no ``test_`` prefix) — run directly:

    PYTHONPATH=src python benchmarks/bench_pipeline.py [--sizes 50 100 200 400]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import sys
from pathlib import Path
from typing import Dict, List

from repro.config import PipelineConfig, SAPSConfig
from repro.datasets import make_scenario
from repro.experiments.runner import collect_votes
from repro.inference import RankingPipeline
from repro.types import VoteSet

REPO_ROOT = Path(__file__).resolve().parents[1]
# The object path is a test oracle: importable as tests.oracles once
# the repo root is on the path.
sys.path.insert(0, str(REPO_ROOT))
from tests.oracles import object_pipeline  # noqa: E402

#: Votes per compared pair.  Kept <= 8 on purpose: per-edge vote means
#: in the columnar smoothing kernel accumulate via ``np.bincount``,
#: which matches ``np.mean``'s summation order exactly for groups
#: smaller than numpy's pairwise-summation block (8).
WORKERS_PER_TASK = 5

STEPS_1_3 = ("truth_discovery", "smoothing", "propagation")


def make_votes(n: int, seed: int) -> VoteSet:
    scenario = make_scenario(
        n, 0.6, n_workers=max(10, n // 8),
        workers_per_task=WORKERS_PER_TASK, rng=seed,
    )
    return collect_votes(scenario, rng=seed)


def run_path(votes: VoteSet, vote_path: str, seed: int,
             iterations: int) -> Dict[str, object]:
    # A fresh VoteSet per run so the columnar path pays for building its
    # arrays inside the timed region (cold caches on both paths).
    fresh = VoteSet.from_votes(votes.n_objects, votes.votes)
    config = PipelineConfig(
        saps=SAPSConfig(iterations=iterations, restarts=1,
                        scale_with_objects=False),
    )
    if vote_path == "columnar":
        result = RankingPipeline(config).run(fresh, rng=seed)
    else:
        result = object_pipeline(fresh, config, rng=seed)
    return {
        "step_seconds": {k: round(v, 4)
                         for k, v in result.step_seconds.items()},
        "steps_1_3_seconds": sum(result.step_seconds[s] for s in STEPS_1_3),
        "ranking": list(result.ranking.order),
        "log_preference": result.log_preference,
    }


def bench_size(n: int, seeds: List[int], repeats: int,
               iterations: int) -> Dict[str, object]:
    per_seed = []
    identical = True
    for seed in seeds:
        votes = make_votes(n, seed)
        best: Dict[str, Dict[str, object]] = {}
        for _ in range(repeats):
            for vote_path in ("columnar", "object"):
                run = run_path(votes, vote_path, seed, iterations)
                prev = best.get(vote_path)
                if (prev is None
                        or run["steps_1_3_seconds"]
                        < prev["steps_1_3_seconds"]):
                    best[vote_path] = run
                # Bit-identity must hold on *every* run, not just the
                # fastest: rankings and the log-preference float.
                if (run["ranking"] != best["columnar"]["ranking"]
                        or run["log_preference"]
                        != best["columnar"]["log_preference"]):
                    identical = False
        columnar, obj = best["columnar"], best["object"]
        per_seed.append({
            "seed": seed,
            "n_votes": len(votes),
            "columnar": {k: columnar[k]
                         for k in ("step_seconds", "steps_1_3_seconds")},
            "object": {k: obj[k]
                       for k in ("step_seconds", "steps_1_3_seconds")},
            "speedup_steps_1_3": round(
                obj["steps_1_3_seconds"]
                / max(columnar["steps_1_3_seconds"], 1e-12), 2),
            "identical_results": identical,
        })
    speedups = [s["speedup_steps_1_3"] for s in per_seed]
    return {
        "n": n,
        "workers_per_task": WORKERS_PER_TASK,
        "per_seed": per_seed,
        "speedup_steps_1_3_min": min(speedups),
        "speedup_steps_1_3_max": max(speedups),
        "identical_results": all(s["identical_results"] for s in per_seed),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[50, 100, 200, 400],
                        help="object-universe sizes to benchmark")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2],
                        help="workload seeds per size (default 0 1 2)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repeats per (size, seed, path); the "
                             "fastest is reported (default 3)")
    parser.add_argument("--iterations", type=int, default=200,
                        help="anneal iterations for the (untimed-metric) "
                             "Step-4 search (default 200)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI mode: identity checks only, no "
                             "file written, no timing thresholds")
    parser.add_argument("--out",
                        default=str(REPO_ROOT / "BENCH_pipeline.json"),
                        help="output path "
                             "(default <repo>/BENCH_pipeline.json)")
    args = parser.parse_args()

    if args.smoke:
        sizes: List[int] = [20, 40]
        seeds = [0, 1]
        repeats = 1
    else:
        sizes = args.sizes
        seeds = args.seeds
        repeats = args.repeats

    results = []
    failures = []
    for n in sizes:
        summary = bench_size(n, seeds, repeats, args.iterations)
        results.append(summary)
        print(f"n={n}: steps 1-3 speedup "
              f"{summary['speedup_steps_1_3_min']}x"
              f"-{summary['speedup_steps_1_3_max']}x "
              f"(columnar vs object), "
              f"identical={summary['identical_results']}")
        if not summary["identical_results"]:
            failures.append(
                f"n={n}: columnar and object paths disagree"
            )
        # Every run must record a wall time for every pipeline step —
        # a missing key means the pipeline stopped instrumenting it.
        for entry in summary["per_seed"]:
            for path in ("columnar", "object"):
                steps = entry[path]["step_seconds"]
                missing = [s for s in (*STEPS_1_3, "search")
                           if s not in steps]
                if missing:
                    failures.append(
                        f"n={n} seed={entry['seed']}: {path} path did "
                        f"not record step timings {missing}"
                    )
    if not args.smoke and results:
        top = results[-1]
        if top["speedup_steps_1_3_min"] < 3.0:
            failures.append(
                f"n={top['n']}: steps 1-3 speedup "
                f"{top['speedup_steps_1_3_min']}x below the 3x bar"
            )

    payload = {
        "generated_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "workload": {
            "sizes": sizes,
            "seeds": seeds,
            "repeats": repeats,
            "search_iterations": args.iterations,
            "workers_per_task": WORKERS_PER_TASK,
        },
        "results": results,
        "failures": failures,
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
