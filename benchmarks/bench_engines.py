"""Benchmark: sparse Step 1-3 engines (hodge / lsq) vs the dense path.

Sweeps the object-universe size (default n in {100, 500, 2000}) in the
**budget-constrained regime** — the selection ratio shrinks as ``n``
grows, mirroring the paper's fixed-budget story, so the comparison
graph stays sparse while the dense path's smoothing / propagation
matrices stay ``n x n`` — and writes ``BENCH_engines.json`` at the repo
root with:

* per-size wall times for the dense CRH+SAPS Steps 1-3 and for each
  sparse engine's full solve (truth discovery + sparse LSQ + ranking),
  plus the speedup ratio;
* the dense run executes in a **forked child with a timeout**
  (``--dense-timeout``): on large instances the dense path is recorded
  as ``timed_out`` rather than stalling the bench — that record *is*
  the result (dense infeasible where the sparse engines complete);
* an **accuracy section** at small ``n`` (default {100, 200}): ground
  -truth Kendall-tau for the dense path and both engines on identical
  votes — the engines must not trail the dense path by more than 0.05
  (one-sided; the reduced-budget dense anneal is the noisier side).

Gates (non-smoke): at the largest size every sparse engine must be
``>= 10x`` faster than dense Steps 1-3 *or* dense must have timed out;
every accuracy cell must be within the 0.05 tau band.

``--smoke`` runs live small-``n`` contract checks (exact recovery,
disconnected-graph handling, incidence invariants, sparse-vs-dense
Rank Centrality identity — deterministic, no timing thresholds; CI
boxes are noisy) and then validates the *committed*
``BENCH_engines.json`` against the same gates.  Nothing is written in
smoke mode.

Not collected by pytest (no ``test_`` prefix) — run directly:

    PYTHONPATH=src python benchmarks/bench_engines.py [--sizes 100 500 2000]
"""

from __future__ import annotations

import argparse
import datetime
import json
import multiprocessing
import os
import platform
import sys
import time
import warnings
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.config import PipelineConfig, SAPSConfig
from repro.datasets import make_scenario
from repro.datasets.synthetic import SimulationScenario
from repro.exceptions import DegenerateGraphWarning
from repro.experiments.runner import collect_votes
from repro.inference import RankingPipeline, build_incidence
from repro.baselines import rank_centrality
from repro.metrics import normalized_kendall_tau_distance
from repro.types import Vote, VoteSet

REPO_ROOT = Path(__file__).resolve().parents[1]
# The dense Rank Centrality chain is a test oracle: importable as
# tests.oracles once the repo root is on the path.
sys.path.insert(0, str(REPO_ROOT))
from tests.oracles import dense_rank_centrality  # noqa: E402

ENGINES = ("hodge", "lsq")

#: Dense Steps 1-3 (the engines replace these plus the Step-4 search).
DENSE_STEPS_1_3 = ("truth_discovery", "smoothing", "propagation")

#: Speedup bar at the largest benched size (per engine, min over seeds).
SPEEDUP_BAR = 10.0

#: One-sided accuracy band: engine tau may not trail dense tau by more.
TAU_BAND = 0.05

#: Sizes whose cells the accuracy gate applies to.
ACCURACY_SIZES = (100, 200)


def workload_ratio(n: int) -> float:
    """Budget-constrained selection ratio: a fixed vote budget spread
    over a growing universe — the regime the sparse engines target."""
    if n <= 100:
        return 0.6
    if n <= 500:
        return 0.2
    return 0.05


def bench_config(iterations: int) -> PipelineConfig:
    """Reduced Step-4 anneal so dense timings isolate Steps 1-3."""
    return PipelineConfig(saps=SAPSConfig(
        iterations=iterations, restarts=1, scale_with_objects=False,
    ))


def make_workload(n: int, seed: int, ratio: Optional[float] = None):
    scenario = make_scenario(
        n, ratio if ratio is not None else workload_ratio(n),
        n_workers=max(10, n // 8), workers_per_task=3, rng=seed,
    )
    return scenario, collect_votes(scenario, rng=seed)


def run_engine(votes: VoteSet, scenario: SimulationScenario, engine: str,
               seed: int, iterations: int) -> Dict[str, object]:
    """One sparse-engine run on cold caches (fresh VoteSet)."""
    fresh = VoteSet.from_votes(votes.n_objects, votes.votes)
    config = bench_config(iterations).with_(engine=engine)
    result = RankingPipeline(config).run(fresh, rng=seed)
    return {
        "step_seconds": {k: round(v, 4)
                         for k, v in result.step_seconds.items()},
        "total_seconds": sum(result.step_seconds.values()),
        "tau": normalized_kendall_tau_distance(
            result.ranking, scenario.ground_truth),
    }


def _dense_child(votes: VoteSet, scenario: SimulationScenario, seed: int,
                 iterations: int, queue) -> None:
    fresh = VoteSet.from_votes(votes.n_objects, votes.votes)
    result = RankingPipeline(bench_config(iterations)).run(fresh, rng=seed)
    queue.put({
        "step_seconds": {k: round(v, 4)
                         for k, v in result.step_seconds.items()},
        "steps_1_3_seconds": sum(
            result.step_seconds[s] for s in DENSE_STEPS_1_3),
        "tau": normalized_kendall_tau_distance(
            result.ranking, scenario.ground_truth),
    })


def run_dense(votes: VoteSet, scenario: SimulationScenario, seed: int,
              iterations: int, timeout: float) -> Dict[str, object]:
    """The dense path in a forked child so a blowup becomes a record
    (``timed_out``) instead of a stalled benchmark."""
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(
        target=_dense_child,
        args=(votes, scenario, seed, iterations, queue),
    )
    child.start()
    child.join(timeout)
    if child.is_alive():
        child.terminate()
        child.join()
        return {"timed_out": True, "timeout_seconds": timeout}
    if child.exitcode != 0 or queue.empty():
        return {"failed": True, "exitcode": child.exitcode}
    run = queue.get()
    run["timed_out"] = False
    return run


def bench_size(n: int, seeds: List[int], repeats: int, iterations: int,
               dense_timeout: float) -> Dict[str, object]:
    ratio = workload_ratio(n)
    per_seed = []
    for seed in seeds:
        scenario, votes = make_workload(n, seed, ratio)
        dense_best: Optional[Dict[str, object]] = None
        engine_best: Dict[str, Dict[str, object]] = {}
        for _ in range(repeats):
            dense = run_dense(votes, scenario, seed, iterations,
                              dense_timeout)
            if dense.get("timed_out") or dense.get("failed"):
                dense_best = dense
                break  # no point repeating a timeout
            if (dense_best is None or dense["steps_1_3_seconds"]
                    < dense_best["steps_1_3_seconds"]):
                dense_best = dense
            for engine in ENGINES:
                run = run_engine(votes, scenario, engine, seed, iterations)
                prev = engine_best.get(engine)
                if prev is None or run["total_seconds"] < prev["total_seconds"]:
                    engine_best[engine] = run
        if dense_best.get("timed_out") or dense_best.get("failed"):
            # Engines still get timed (dense has no number to compare).
            for engine in ENGINES:
                engine_best[engine] = run_engine(
                    votes, scenario, engine, seed, iterations)
        entry: Dict[str, object] = {
            "seed": seed,
            "n_votes": len(votes),
            "dense": dense_best,
            "engines": {},
        }
        for engine in ENGINES:
            run = engine_best[engine]
            record = {
                "step_seconds": run["step_seconds"],
                "total_seconds": round(run["total_seconds"], 4),
                "tau": round(run["tau"], 4),
            }
            if not (dense_best.get("timed_out") or dense_best.get("failed")):
                record["speedup_vs_dense_steps_1_3"] = round(
                    dense_best["steps_1_3_seconds"]
                    / max(run["total_seconds"], 1e-12), 2)
                record["tau_delta_vs_dense"] = round(
                    run["tau"] - dense_best["tau"], 4)
            entry["engines"][engine] = record
        per_seed.append(entry)
    summary: Dict[str, object] = {
        "n": n,
        "selection_ratio": ratio,
        "workers_per_task": 3,
        "per_seed": per_seed,
        "dense_timed_out": any(
            s["dense"].get("timed_out") or s["dense"].get("failed")
            for s in per_seed),
    }
    for engine in ENGINES:
        speedups = [
            s["engines"][engine]["speedup_vs_dense_steps_1_3"]
            for s in per_seed
            if "speedup_vs_dense_steps_1_3" in s["engines"][engine]
        ]
        summary[f"{engine}_speedup_min"] = min(speedups) if speedups else None
        summary[f"{engine}_speedup_max"] = max(speedups) if speedups else None
    return summary


def bench_accuracy(seeds: List[int], iterations: int) -> List[Dict[str, object]]:
    """Ground-truth tau for dense vs engines on identical moderate-
    density votes at small ``n`` (the acceptance band's domain)."""
    cells = []
    for n in ACCURACY_SIZES:
        for seed in seeds:
            scenario, votes = make_workload(n, seed, ratio=0.3)
            fresh = VoteSet.from_votes(votes.n_objects, votes.votes)
            dense = RankingPipeline(bench_config(iterations)).run(
                fresh, rng=seed)
            tau_dense = normalized_kendall_tau_distance(
                dense.ranking, scenario.ground_truth)
            cell: Dict[str, object] = {
                "n": n, "seed": seed, "selection_ratio": 0.3,
                "tau_dense": round(tau_dense, 4), "engines": {},
            }
            for engine in ENGINES:
                run = run_engine(votes, scenario, engine, seed, iterations)
                cell["engines"][engine] = {
                    "tau": round(run["tau"], 4),
                    "tau_delta_vs_dense": round(run["tau"] - tau_dense, 4),
                }
            cells.append(cell)
    return cells


def gate(results: List[Dict[str, object]],
         accuracy: List[Dict[str, object]]) -> List[str]:
    """The committed-surface bars (shared by live runs and smoke)."""
    failures: List[str] = []
    if not results:
        return ["no perf results"]
    top = max(results, key=lambda r: r["n"])
    if top["n"] < 2000:
        failures.append(
            f"largest benched size {top['n']} < 2000 — the large-n claim "
            f"is unsubstantiated")
    for engine in ENGINES:
        minimum = top.get(f"{engine}_speedup_min")
        if top["dense_timed_out"] and minimum is None:
            continue  # dense infeasible: that *is* the result
        if minimum is None or minimum < SPEEDUP_BAR:
            failures.append(
                f"n={top['n']}: {engine} speedup {minimum}x below the "
                f"{SPEEDUP_BAR}x bar (and dense did not time out)")
    for cell in accuracy:
        if cell["n"] > max(ACCURACY_SIZES):
            continue
        for engine, record in cell["engines"].items():
            if record["tau_delta_vs_dense"] > TAU_BAND:
                failures.append(
                    f"accuracy n={cell['n']} seed={cell['seed']}: {engine} "
                    f"trails dense by {record['tau_delta_vs_dense']} tau "
                    f"(> {TAU_BAND})")
    return failures


# ---------------------------------------------------------------------------
# Smoke mode
# ---------------------------------------------------------------------------

def _clean_votes(n: int) -> VoteSet:
    return VoteSet.from_votes(n, [
        Vote(worker=w, winner=i, loser=j)
        for i in range(n) for j in range(i + 1, n) for w in range(3)
    ])


def run_smoke_contracts() -> List[str]:
    """Live, deterministic engine contracts (no timing thresholds)."""
    failures: List[str] = []
    config = bench_config(2000)

    # 1. Exact recovery on noise-free votes.
    clean = _clean_votes(12)
    for engine in ENGINES:
        order = list(RankingPipeline(config.with_(engine=engine)).run(
            clean, rng=0).ranking.order)
        if order != list(range(12)):
            failures.append(
                f"smoke {engine}: not exact on noise-free votes: {order}")

    # 2. One-sided accuracy vs dense on a moderate workload.
    scenario, votes = make_workload(60, 0, ratio=0.6)
    dense = RankingPipeline(config).run(
        VoteSet.from_votes(votes.n_objects, votes.votes), rng=0)
    tau_dense = normalized_kendall_tau_distance(
        dense.ranking, scenario.ground_truth)
    for engine in ENGINES:
        run = run_engine(votes, scenario, engine, 0, 2000)
        if run["tau"] > tau_dense + TAU_BAND:
            failures.append(
                f"smoke {engine}: tau {run['tau']:.4f} trails dense "
                f"{tau_dense:.4f} by more than {TAU_BAND}")

    # 3. Incidence invariants on the same arrays.
    arrays = votes.arrays()
    inc = build_incidence(arrays)
    if inc.incidence.shape != (inc.n_edges, votes.n_objects):
        failures.append("smoke incidence: wrong shape")
    if inc.counts.sum() != arrays.n_votes:
        failures.append("smoke incidence: counts do not sum to n_votes")
    if np.abs(np.asarray(inc.incidence.sum(axis=1))).max() != 0:
        failures.append("smoke incidence: rows do not sum to zero")
    if build_incidence(arrays) is not inc:
        failures.append("smoke incidence: memoization broken")

    # 4. Disconnected graph: typed warning + metadata, never a crash.
    split = VoteSet.from_votes(4, [
        Vote(worker=0, winner=0, loser=1),
        Vote(worker=0, winner=2, loser=3),
    ])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = RankingPipeline(config.with_(engine="lsq")).run(
            split, rng=0)
    if not any(issubclass(w.category, DegenerateGraphWarning)
               for w in caught):
        failures.append("smoke disconnected: DegenerateGraphWarning missing")
    if result.metadata.get("n_components") != 2:
        failures.append("smoke disconnected: n_components not recorded")

    # 5. Sparse Rank Centrality matches its dense oracle bit-for-bit
    #    on the ranking (scores to 1e-10).
    rank_d, scores_d = dense_rank_centrality(votes)
    rank_s, scores_s = rank_centrality(votes)
    if list(rank_d.order) != list(rank_s.order):
        failures.append("smoke rank_centrality: sparse ranking != dense")
    if not np.allclose(scores_s, scores_d, atol=1e-10):
        failures.append("smoke rank_centrality: sparse scores drifted")
    return failures


def validate_committed(path: Path) -> List[str]:
    """Smoke mode: the committed surface must still clear every bar."""
    if not path.exists():
        return [f"{path.name} not committed — run "
                f"benchmarks/bench_engines.py to regenerate"]
    payload = json.loads(path.read_text())
    failures = gate(payload.get("results", []),
                    payload.get("accuracy", []))
    if payload.get("failures"):
        failures.append(
            f"{path.name} was committed with recorded failures: "
            f"{payload['failures']}")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[100, 500, 2000],
                        help="object-universe sizes to benchmark")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1],
                        help="workload seeds per size (default 0 1)")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed repeats per (size, seed); the fastest "
                             "run is reported (default 2)")
    parser.add_argument("--iterations", type=int, default=200,
                        help="anneal iterations for the dense Step-4 "
                             "search (excluded from the compared time)")
    parser.add_argument("--dense-timeout", type=float, default=300.0,
                        help="seconds before a dense run is recorded as "
                             "timed out (default 300)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: live contract checks plus committed"
                             "-JSON validation; nothing is written")
    parser.add_argument("--out",
                        default=str(REPO_ROOT / "BENCH_engines.json"),
                        help="output path "
                             "(default <repo>/BENCH_engines.json)")
    args = parser.parse_args()

    if args.smoke:
        failures = run_smoke_contracts()
        failures += validate_committed(Path(args.out))
        for failure in failures:
            print(f"FAIL: {failure}")
        print("smoke ok" if not failures
              else f"smoke: {len(failures)} failure(s)")
        return 1 if failures else 0

    results = []
    for n in args.sizes:
        started = time.perf_counter()
        summary = bench_size(n, args.seeds, args.repeats, args.iterations,
                             args.dense_timeout)
        results.append(summary)
        label = ("dense TIMED OUT" if summary["dense_timed_out"] else
                 " ".join(f"{e}={summary[f'{e}_speedup_min']}x" +
                          f"-{summary[f'{e}_speedup_max']}x"
                          for e in ENGINES))
        print(f"n={n} (r={summary['selection_ratio']}): {label} "
              f"[{time.perf_counter() - started:.1f}s]")
    accuracy = bench_accuracy(args.seeds + [2], args.iterations)
    failures = gate(results, accuracy)

    payload = {
        "generated_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "workload": {
            "sizes": args.sizes,
            "seeds": args.seeds,
            "repeats": args.repeats,
            "search_iterations": args.iterations,
            "dense_timeout_seconds": args.dense_timeout,
            "selection_ratios": {str(n): workload_ratio(n)
                                 for n in args.sizes},
            "speedup_bar": SPEEDUP_BAR,
            "tau_band": TAU_BAND,
        },
        "results": results,
        "accuracy": accuracy,
        "failures": failures,
    }
    Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
