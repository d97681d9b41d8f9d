"""Benchmark: acquisition scorers under equal vote budgets.

Two experiments over an interactive crowd simulation, written to
``BENCH_acquisition.json`` at the repo root:

1. **Accuracy vs budget** — run :func:`repro.adaptive.adaptive_rank`
   against the same :class:`~repro.platform.InteractivePlatform`
   workload (same ground truth, same worker pool, same platform seed)
   once per acquisition arm: the ``random`` / ``uncertainty`` / ``bdp``
   / ``infomax`` scorers of :mod:`repro.acquisition` plus the legacy
   closure-uncertainty ``heuristic`` (``policy=None``).  The acceptance
   bar, checked at the marked mid-range budget: the BDP scorer's mean
   accuracy must beat random selection and be at least the legacy
   uncertainty heuristic's.

2. **VOI scoring latency** — score the full ``C(n, 2)`` pair universe
   at n=200 with :class:`~repro.acquisition.BDPScorer`, both the
   default pair-resolution form and with the vectorized
   strength-separation term enabled (the collapsed O(K^4) exemplar
   functional).  The bar: every variant under **1 second**.

Every run also hard-checks the differential contract
(:class:`BDPScorer` must match the loop oracle
:func:`tests.oracles.bdp_scores_reference` to float tolerance) and
the determinism contract (identical policy state + seed => identical
``suggest`` batches).

``--smoke`` runs the differential/determinism checks on a tiny universe
plus one miniature end-to-end arm sweep, then validates the *committed*
``BENCH_acquisition.json`` against the acceptance bar (no file written,
no timing thresholds — CI boxes are noisy) and exits non-zero on any
violation.

Not collected by pytest (no ``test_`` prefix) — run directly:

    PYTHONPATH=src python benchmarks/bench_acquisition.py [--budgets ...]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.acquisition import AcquisitionPolicy, BDPScorer, PairPosterior
from repro.adaptive import adaptive_rank
from repro.config import FAST_PIPELINE
from repro.metrics import ranking_accuracy
from repro.platform import InteractivePlatform
from repro.types import Ranking
from repro.workers import QualityLevel, WorkerPool, gaussian_preset

REPO_ROOT = Path(__file__).resolve().parents[1]
# The loop-form BDP scorer is a test oracle: importable as tests.oracles
# once the repo root is on the path.
sys.path.insert(0, str(REPO_ROOT))
from tests.oracles import bdp_scores_reference  # noqa: E402

#: Scorer arms routed through the ``policy=`` seam, plus the legacy
#: closure-uncertainty round loop (``policy=None``).
ARMS = ("random", "uncertainty", "bdp", "infomax", "heuristic")

#: Cost of one vote on the simulated platform (its default reward).
REWARD = 0.025


def run_arm(arm: str, n: int, seed: int, budget: int, rounds: int,
            n_workers: int) -> float:
    """One adaptive run; returns final accuracy against ground truth."""
    truth = Ranking.random(n, rng=0)
    pool = WorkerPool.from_distribution(
        n_workers, gaussian_preset(QualityLevel.MEDIUM), rng=0
    )
    plat = InteractivePlatform(
        pool, truth, budget=budget * REWARD, rng=seed
    )
    policy = None if arm == "heuristic" else arm
    result, _ = adaptive_rank(
        plat, config=FAST_PIPELINE, rng=seed + 100,
        policy=policy, rounds=rounds,
    )
    return ranking_accuracy(truth, result.ranking)


def bench_accuracy(n: int, budgets: List[int], seeds: List[int],
                   rounds: int, n_workers: int) -> List[Dict[str, object]]:
    """Accuracy-vs-budget curves, one point per (budget, arm)."""
    curves = []
    for budget in budgets:
        point: Dict[str, object] = {"budget": budget}
        for arm in ARMS:
            accs = [run_arm(arm, n, seed, budget, rounds, n_workers)
                    for seed in seeds]
            point[arm] = {
                "mean_accuracy": round(statistics.mean(accs), 4),
                "min_accuracy": round(min(accs), 4),
                "max_accuracy": round(max(accs), 4),
            }
        curves.append(point)
        summary = "  ".join(
            f"{arm}={point[arm]['mean_accuracy']}" for arm in ARMS
        )
        print(f"n={n} budget={budget}: {summary}")
    return curves


def bench_latency(n: int) -> Dict[str, object]:
    """Full-universe VOI scoring time at ``n`` objects."""
    rng = np.random.default_rng(0)
    posterior = PairPosterior(n)
    for _ in range(4 * n):
        i, j = rng.choice(n, size=2, replace=False)
        posterior.observe(int(i), int(j), weight=float(rng.uniform(0.5, 1)))
    policy = AcquisitionPolicy(n, BDPScorer())
    state = policy.state()
    timings = {}
    for label, scorer in (
        ("bdp_pair_seconds", BDPScorer()),
        ("bdp_with_strength_seconds", BDPScorer(strength_weight=1.0)),
    ):
        start = time.perf_counter()
        scores = scorer.score(state)
        timings[label] = round(time.perf_counter() - start, 5)
        assert scores.shape == (posterior.n_pairs,)
    timings["n"] = n
    timings["n_pairs"] = posterior.n_pairs
    return timings


def check_contracts(n: int) -> List[str]:
    """Differential + determinism hard checks on a small universe."""
    failures = []
    rng = np.random.default_rng(7)
    posterior = PairPosterior(n)
    for _ in range(3 * n):
        i, j = rng.choice(n, size=2, replace=False)
        posterior.observe(int(i), int(j), weight=float(rng.uniform(0.5, 1)))

    policy = AcquisitionPolicy(n, BDPScorer(strength_weight=0.5))
    policy.posterior = posterior
    state = policy.state()
    fast = policy.scorer.score(state)
    slow = bdp_scores_reference(posterior, strength_weight=0.5)
    err = float(np.abs(fast - slow).max())
    if err > 1e-9:
        failures.append(
            f"n={n}: vectorized BDP diverges from the loop oracle "
            f"(max abs err {err:.2e})"
        )

    for scorer in ("random", "uncertainty", "bdp", "infomax"):
        pol = AcquisitionPolicy(n, scorer, seed=3)
        pol.posterior = posterior
        first = pol.suggest(min(8, posterior.n_pairs))
        second = pol.suggest(min(8, posterior.n_pairs))
        if first != second:
            failures.append(
                f"n={n}: {scorer} suggestions are not deterministic for "
                "a fixed state and seed"
            )
    return failures


def check_acceptance(curves: List[Dict[str, object]],
                     mid_budget: int) -> List[str]:
    """The ISSUE's bar at the marked mid-range budget."""
    failures = []
    point = next((p for p in curves if p["budget"] == mid_budget), None)
    if point is None:
        return [f"mid budget {mid_budget} missing from the curves"]
    bdp = point["bdp"]["mean_accuracy"]
    rand = point["random"]["mean_accuracy"]
    heuristic = point["heuristic"]["mean_accuracy"]
    if bdp <= rand:
        failures.append(
            f"budget={mid_budget}: BDP accuracy {bdp} does not beat "
            f"random selection {rand}"
        )
    if bdp < heuristic:
        failures.append(
            f"budget={mid_budget}: BDP accuracy {bdp} below the legacy "
            f"uncertainty heuristic {heuristic}"
        )
    return failures


def validate_committed(path: Path) -> List[str]:
    """Smoke mode: the committed results must still clear the bar."""
    if not path.exists():
        return [f"{path.name} is missing; run the full benchmark to "
                "regenerate it"]
    payload = json.loads(path.read_text())
    mid = payload.get("workload", {}).get("mid_budget")
    curves = payload.get("results", {}).get("accuracy_vs_budget", [])
    if mid is None or not curves:
        return [f"{path.name} lacks a mid_budget / accuracy curve"]
    return [f"{path.name}: {failure}"
            for failure in check_acceptance(curves, mid)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=100,
                        help="object-universe size (default 100)")
    parser.add_argument("--budgets", type=int, nargs="+",
                        default=[400, 800, 1600],
                        help="vote budgets to sweep (default 400 800 1600)")
    parser.add_argument("--mid-budget", type=int, default=800,
                        help="budget the acceptance bar is checked at "
                             "(default 800)")
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=[1, 2, 3, 4, 5],
                        help="platform seeds per arm (default 1..5)")
    parser.add_argument("--rounds", type=int, default=6,
                        help="adaptive rounds per run (default 6)")
    parser.add_argument("--workers", type=int, default=20,
                        help="simulated crowd size (default 20)")
    parser.add_argument("--latency-n", type=int, default=200,
                        help="universe size for the VOI timing bar "
                             "(default 200)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny CI mode: contract checks plus a "
                             "miniature sweep, validates the committed "
                             "JSON, writes nothing")
    parser.add_argument("--out",
                        default=str(REPO_ROOT / "BENCH_acquisition.json"),
                        help="output path "
                             "(default <repo>/BENCH_acquisition.json)")
    args = parser.parse_args()

    failures = check_contracts(10)

    if args.smoke:
        # Miniature end-to-end sweep: every arm must at least run.
        for arm in ARMS:
            accuracy = run_arm(arm, 16, seed=1, budget=60, rounds=2,
                               n_workers=8)
            if not 0.0 <= accuracy <= 1.0:
                failures.append(f"smoke arm {arm}: accuracy {accuracy} "
                                "out of range")
        failures.extend(validate_committed(Path(args.out)))
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print("smoke ok: contracts hold and the committed "
              f"{Path(args.out).name} clears the acceptance bar")
        return 0

    curves = bench_accuracy(args.n, args.budgets, args.seeds,
                            args.rounds, args.workers)
    latency = bench_latency(args.latency_n)
    print(f"n={latency['n']}: VOI over {latency['n_pairs']} pairs in "
          f"{latency['bdp_pair_seconds']}s (pair term) / "
          f"{latency['bdp_with_strength_seconds']}s (with strength term)")

    failures.extend(check_acceptance(curves, args.mid_budget))
    for key in ("bdp_pair_seconds", "bdp_with_strength_seconds"):
        if latency[key] >= 1.0:
            failures.append(
                f"n={latency['n']}: {key} = {latency[key]}s breaks the "
                "1 s scoring bar"
            )

    payload = {
        "generated_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "smoke": False,
        "workload": {
            "n": args.n,
            "budgets": args.budgets,
            "mid_budget": args.mid_budget,
            "seeds": args.seeds,
            "rounds": args.rounds,
            "n_workers": args.workers,
            "reward": REWARD,
            "pipeline": "FAST_PIPELINE",
            "arms": list(ARMS),
        },
        "results": {
            "accuracy_vs_budget": curves,
            "voi_latency": latency,
        },
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
