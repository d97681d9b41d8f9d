"""Benchmark: incremental session updates vs full batch recompute.

Two experiments over the synthetic scenario suite, written to
``BENCH_streaming.json`` at the repo root:

1. **Per-vote latency** — prime a :class:`repro.streaming.RankingSession`
   with a scenario's vote pool, then time single-vote ingests (warm
   Steps 1-4 on the incremental path) against a full batch recompute of
   the same pool.  The acceptance bar: at n=200 the incremental update
   is at least **5x** faster than the recompute.

2. **Votes-to-stable** — replay the same vote stream into two sessions,
   early stopping on and off, and record how many votes the stability
   verdict saves and the final accuracy of both against ground truth.
   The bar: early stopping must not cost accuracy (final accuracy
   within 0.05 of the run-to-exhaustion session).  A row that saves no
   votes records why (``no_stop_reason``).

3. **Warm vs cold Steps 1-2** (``warm_vs_cold``) — the one piece of
   state a session update carries is Step 1's warm start (the previous
   truth and weights).  Two sessions replay the same votes in lockstep,
   the arm that goes first alternating per update: the shipped update,
   and one whose Step 1 starts cold every time.  Recorded per update:
   wall milliseconds of the ingest and the ranking's accuracy, for
   100-vote ingests at n=50 (the e2e session shape) and single-vote
   ingests at n=50 and n=200, over ``WARM_VS_COLD_SEEDS`` seeds.  No
   bar: it is the evidence that the warm start pays.

Every row of the first two experiments records the final session ranking's
accuracy next to ``recompute()``'s on the same votes; a session more
than 0.05 below the batch answer fails the run.  Every latency run
also hard-checks the differential contract: the session's ``recompute()``
must be bit-identical to the batch pipeline on the identical final
vote pool.

``--smoke`` runs n=100 with one seed and the identity and accuracy
checks only, plus one seed of the n=50 ``warm_vs_cold`` shapes (no
file written, no timing thresholds — CI boxes are noisy), and exits
non-zero on any violation.  The size is chosen so
the smoke catches sessions that drift from the batch answer: a session
that anneals from its previous ranking at the full start temperature
ends 0.07 below ``recompute()`` at n=100, but within 0.03 at n=30-50.

Not collected by pytest (no ``test_`` prefix) — run directly:

    PYTHONPATH=src python benchmarks/bench_streaming.py [--sizes 50 200]
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.config import PipelineConfig
from repro.datasets import make_scenario
from repro.experiments.runner import collect_votes
from repro.inference import RankingPipeline
from repro.metrics import ranking_accuracy
from repro.rng import ensure_rng
from repro.streaming import RankingSession, SessionConfig

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Single-vote ingests timed per (size, seed) in the latency experiment.
TIMED_VOTES = 10

#: Seeds of the warm-vs-cold experiment, and its shapes:
#: ``(name, n, votes per update, timed updates or None for the whole
#: replay)``.  Single-vote shapes prime the session with all but the
#: timed votes.
WARM_VS_COLD_SEEDS = list(range(8))
WARM_VS_COLD_SHAPES = [
    ("n50_ingest100", 50, 100, None),
    ("n50_ingest1", 50, 1, 20),
    ("n200_ingest1", 200, 1, 20),
]

#: Largest accuracy a row's final session ranking may lose against
#: ``recompute()`` on the same votes, and early stopping against the
#: run to exhaustion.
ACCURACY_BAR = 0.05


def make_workload(n: int, seed: int, ratio: float):
    scenario = make_scenario(
        n, ratio, n_workers=max(10, n // 5), workers_per_task=5,
        level="high", rng=seed,
    )
    votes = list(collect_votes(scenario, rng=seed).votes)
    return scenario, votes


def bench_latency(n: int, seed: int, warm_iterations: int,
                  ratio: float) -> Dict[str, object]:
    """Per-vote incremental latency vs a full batch recompute."""
    scenario, votes = make_workload(n, seed, ratio)
    config = SessionConfig(
        pipeline=PipelineConfig(), seed=seed,
        warm_iterations=warm_iterations, early_stop=False,
    )
    session = RankingSession(f"lat-{n}-{seed}", n, config)
    session.ingest(votes[:-TIMED_VOTES])  # prime (one full update)

    latencies = []
    for vote in votes[-TIMED_VOTES:]:
        start = time.perf_counter()
        session.ingest([vote])
        latencies.append(time.perf_counter() - start)

    start = time.perf_counter()
    recomputed = session.recompute()
    recompute_seconds = time.perf_counter() - start

    # Differential contract: recompute == batch pipeline, bit for bit.
    batch = RankingPipeline(config.pipeline).run(
        session.buffer.to_vote_set(), ensure_rng(seed)
    )
    identical = (
        list(recomputed.ranking.order) == list(batch.ranking.order)
        and recomputed.log_preference == batch.log_preference
    )

    mean_latency = statistics.mean(latencies)
    return {
        "seed": seed,
        "n_votes": len(votes),
        "timed_votes": TIMED_VOTES,
        "incremental_mean_seconds": round(mean_latency, 5),
        "incremental_max_seconds": round(max(latencies), 5),
        "full_recompute_seconds": round(recompute_seconds, 5),
        "speedup": round(recompute_seconds / max(mean_latency, 1e-12), 1),
        "updates_incremental": session.updates_incremental,
        "recompute_identical_to_batch": identical,
        **accuracy_vs_recompute(scenario, session.ranking, recomputed),
    }


def accuracy_vs_recompute(scenario, ranking, recomputed
                          ) -> Dict[str, float]:
    """A session's final accuracy next to ``recompute()``'s on the same
    votes; ``accuracy_gap`` > 0 means the session is behind."""
    session = ranking_accuracy(scenario.ground_truth, ranking)
    batch = ranking_accuracy(scenario.ground_truth, recomputed.ranking)
    return {
        "accuracy_session": round(session, 4),
        "accuracy_recompute": round(batch, 4),
        "accuracy_gap": round(batch - session, 4),
    }


def bench_early_stop(n: int, seed: int, warm_iterations: int,
                     ratio: float, chunk: int) -> Dict[str, object]:
    """Votes-to-stable with early stopping on vs off."""
    scenario, votes = make_workload(n, seed, ratio)
    pipeline = PipelineConfig()

    def replay(early_stop: bool) -> RankingSession:
        session = RankingSession(
            f"stab-{n}-{seed}-{early_stop}", n,
            SessionConfig(
                pipeline=pipeline, seed=seed,
                warm_iterations=warm_iterations, early_stop=early_stop,
                stability_window=4, stability_threshold=0.02,
                min_votes=len(votes) // 4,
            ),
        )
        scores = []
        for start in range(0, len(votes), chunk):
            session.ingest(votes[start:start + chunk])
            if session.votes_ingested >= session.config.min_votes:
                scores.append(session.view()["stability_score"])
            if session.stopped:
                break
        return session, scores

    stopped, scores = replay(early_stop=True)
    exhausted, _ = replay(early_stop=False)
    accuracy_stopped = ranking_accuracy(scenario.ground_truth,
                                        stopped.ranking)
    accuracy_exhausted = ranking_accuracy(scenario.ground_truth,
                                          exhausted.ranking)
    row = {
        "seed": seed,
        "total_votes": len(votes),
        "chunk": chunk,
        "votes_to_stable": stopped.votes_ingested,
        "stopped_early": stopped.stopped,
        "votes_saved": len(votes) - stopped.votes_ingested,
        "accuracy_at_stop": round(accuracy_stopped, 4),
        "accuracy_exhausted": round(accuracy_exhausted, 4),
        "accuracy_delta": round(accuracy_stopped - accuracy_exhausted, 4),
        **accuracy_vs_recompute(scenario, exhausted.ranking,
                                exhausted.recompute()),
    }
    if not stopped.stopped:
        scored = [score for score in scores if score is not None]
        threshold = stopped.config.stability_threshold
        row["no_stop_reason"] = (
            f"stability score above the {threshold} threshold at every "
            f"update after min_votes (lowest {min(scored):.4f})"
            if scored else
            "the stability window never filled after min_votes")
    return row


def _cold_step_one(session: RankingSession) -> None:
    """Drop the engine's carried truth, so its next update runs Step 1
    from the cold start (the arm the warm start is measured against)."""
    session._engine._truth = None


def bench_warm_vs_cold(name: str, n: int, per_update: int,
                       timed: Optional[int], seeds: List[int],
                       warm_iterations: int, ratio: float
                       ) -> Dict[str, object]:
    """Per-update ms and accuracy, shipped update vs cold Step 1."""
    arms = ("warm", "cold")
    samples = {arm: {"ms": [], "accuracy": []} for arm in arms}
    rows = []
    for seed in seeds:
        scenario, votes = make_workload(n, seed, ratio)
        config = SessionConfig(pipeline=PipelineConfig(), seed=seed,
                               warm_iterations=warm_iterations,
                               early_stop=False)
        sessions = {arm: RankingSession(f"{arm}-{n}-{seed}", n, config)
                    for arm in arms}
        if timed is not None:
            for session in sessions.values():
                session.ingest(votes[:-timed])  # prime, untimed
            votes = votes[-timed:]
        seed_samples = {arm: {"ms": [], "accuracy": []} for arm in arms}
        for step, start in enumerate(range(0, len(votes), per_update)):
            chunk = votes[start:start + per_update]
            for arm in arms if (seed + step) % 2 == 0 else arms[::-1]:
                session = sessions[arm]
                if arm == "cold":
                    _cold_step_one(session)
                began = time.perf_counter()
                report = session.ingest(chunk)
                elapsed = time.perf_counter() - began
                seed_samples[arm]["ms"].append(elapsed * 1e3)
                seed_samples[arm]["accuracy"].append(ranking_accuracy(
                    scenario.ground_truth, report.ranking))
        row = {"seed": seed, "updates": len(seed_samples["warm"]["ms"])}
        for arm in arms:
            row[f"{arm}_ms_mean"] = round(
                statistics.mean(seed_samples[arm]["ms"]), 3)
            row[f"{arm}_accuracy_mean"] = round(
                statistics.mean(seed_samples[arm]["accuracy"]), 4)
            for key in ("ms", "accuracy"):
                samples[arm][key].extend(seed_samples[arm][key])
        rows.append(row)

    def summary(values: List[float], digits: int) -> Dict[str, float]:
        q1, median, q3 = statistics.quantiles(values, n=4)
        return {"median": round(median, digits), "q1": round(q1, digits),
                "q3": round(q3, digits)}

    result = {"shape": name, "n": n, "votes_per_update": per_update,
              "seeds": seeds, "updates": len(samples["warm"]["ms"])}
    for arm in arms:
        result[arm] = {
            "update_ms": summary(samples[arm]["ms"], 3),
            "accuracy_mean": round(
                statistics.mean(samples[arm]["accuracy"]), 4),
        }
    result["cold_over_warm_ms"] = round(
        result["cold"]["update_ms"]["median"]
        / result["warm"]["update_ms"]["median"], 2)
    result["per_seed"] = rows
    return result


def bench_size(n: int, seeds: List[int], warm_iterations: int,
               ratio: float, chunk: int) -> Dict[str, object]:
    latency = [bench_latency(n, seed, warm_iterations, ratio)
               for seed in seeds]
    stability = [bench_early_stop(n, seed, warm_iterations, ratio, chunk)
                 for seed in seeds]
    return {
        "n": n,
        "selection_ratio": ratio,
        "latency": latency,
        "speedup_min": min(e["speedup"] for e in latency),
        "speedup_max": max(e["speedup"] for e in latency),
        "recompute_identical": all(e["recompute_identical_to_batch"]
                                   for e in latency),
        "early_stopping": stability,
        "votes_saved_total": sum(e["votes_saved"] for e in stability),
        "accuracy_delta_worst": min(e["accuracy_delta"]
                                    for e in stability),
        "accuracy_gap_worst": max(e["accuracy_gap"]
                                  for e in latency + stability),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[50, 200],
                        help="object-universe sizes (default 50 200)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2],
                        help="workload seeds per size (default 0 1 2)")
    parser.add_argument("--ratio", type=float, default=0.3,
                        help="selection ratio of the scenarios")
    parser.add_argument("--chunk", type=int, default=None,
                        help="votes per update in the early-stop replay "
                             "(default: total/20)")
    parser.add_argument("--warm-iterations", type=int, default=2000,
                        help="SAPS budget of session updates "
                             "(default 2000)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI mode: n=100, one seed, identity and "
                             "accuracy checks only, no file written, no "
                             "timing bars")
    parser.add_argument("--out",
                        default=str(REPO_ROOT / "BENCH_streaming.json"),
                        help="output path "
                             "(default <repo>/BENCH_streaming.json)")
    args = parser.parse_args()

    if args.smoke:
        sizes: List[int] = [100]
        seeds = [0]
    else:
        sizes = args.sizes
        seeds = args.seeds

    results = []
    failures = []
    for n in sizes:
        chunk = args.chunk or max(1, (n * 40) // 20)
        summary = bench_size(n, seeds, args.warm_iterations, args.ratio,
                             chunk)
        results.append(summary)
        saved = summary["votes_saved_total"]
        print(f"n={n}: incremental speedup {summary['speedup_min']}x"
              f"-{summary['speedup_max']}x vs full recompute; "
              f"early stop saved {saved} votes "
              f"(worst accuracy delta {summary['accuracy_delta_worst']}); "
              "worst session gap to recompute "
              f"{summary['accuracy_gap_worst']}; "
              f"recompute identical={summary['recompute_identical']}")
        if not summary["recompute_identical"]:
            failures.append(
                f"n={n}: session recompute diverged from the batch "
                "pipeline"
            )
        if summary["accuracy_delta_worst"] < -ACCURACY_BAR:
            failures.append(
                f"n={n}: early stopping cost "
                f"{-summary['accuracy_delta_worst']:.3f} accuracy "
                f"(> {ACCURACY_BAR} bar)"
            )
        if summary["accuracy_gap_worst"] > ACCURACY_BAR:
            failures.append(
                f"n={n}: a session ended "
                f"{summary['accuracy_gap_worst']:.3f} accuracy below "
                f"recompute() (> {ACCURACY_BAR} bar)"
            )
    warm_vs_cold = []
    for name, n, per_update, timed in WARM_VS_COLD_SHAPES:
        if args.smoke and n > 50:
            continue
        shape = bench_warm_vs_cold(
            name, n, per_update, timed,
            seeds[:1] if args.smoke else WARM_VS_COLD_SEEDS,
            args.warm_iterations, args.ratio)
        warm_vs_cold.append(shape)
        print(f"warm_vs_cold {name}: update ms median "
              f"{shape['warm']['update_ms']['median']} warm vs "
              f"{shape['cold']['update_ms']['median']} cold; accuracy "
              f"{shape['warm']['accuracy_mean']} vs "
              f"{shape['cold']['accuracy_mean']}")

    if not args.smoke:
        for summary in results:
            if summary["n"] >= 200 and summary["speedup_min"] < 5.0:
                failures.append(
                    f"n={summary['n']}: incremental speedup "
                    f"{summary['speedup_min']}x below the 5x bar"
                )
        if not any(s["n"] >= 200 for s in results):
            failures.append("no n>=200 size benched; the 5x acceptance "
                            "bar was not exercised")

    payload = {
        "generated_utc": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "smoke": args.smoke,
        "workload": {
            "sizes": sizes,
            "seeds": seeds,
            "selection_ratio": args.ratio,
            "warm_iterations": args.warm_iterations,
            "timed_votes": TIMED_VOTES,
        },
        "results": results,
        "warm_vs_cold": warm_vs_cold,
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
