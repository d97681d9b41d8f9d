#!/usr/bin/env python
"""The paper's two future-work directions, implemented.

1. **Top-k ranking** — find the k most-preferred objects (and their
   order) from the same pairwise machinery, both exactly (subset DP on
   the closure) and at scale (pipeline prefix).
2. **Minimal budget** — "minimizing the number of comparisons to find
   the full ranking with acceptable accuracy": bisection over the
   selection ratio against a target accuracy.

Run:  python examples/topk_and_budget_search.py
"""

from repro.budget import minimal_selection_ratio
from repro.config import FAST_PIPELINE, PipelineConfig, PropagationConfig
from repro.datasets import make_scenario
from repro.experiments.runner import collect_votes
from repro.inference.propagation import propagate_matrix
from repro.inference.smoothing import direct_preference_matrix, smooth_matrix
from repro.metrics import topk_precision
from repro.truth import discover_truth
from repro.topk import topk_exact, topk_ranking
from repro.types import Ranking
from repro.workers import QualityLevel

SEED = 313


def topk_demo() -> None:
    print("=== Top-k ranking (k = 5 of 15 objects, r = 0.4) ===")
    scenario = make_scenario(15, 0.4, n_workers=25, workers_per_task=5,
                             rng=SEED)
    votes = collect_votes(scenario, rng=SEED)

    # Exact: build the Steps-1-3 closure, then subset DP.
    truth_result = discover_truth(votes)
    arrays = votes.arrays()
    direct = direct_preference_matrix(arrays, truth_result.preference_vector)
    smoothing = smooth_matrix(direct, truth_result.preference_vector, arrays,
                              truth_result.quality_vector)
    closure = propagate_matrix(smoothing.matrix, PropagationConfig(max_hops=6))
    exact_top5, score = topk_exact(closure, k=5)

    # Heuristic: head of the full SAPS ranking.
    heuristic_top5 = topk_ranking(votes, 5, FAST_PIPELINE, rng=SEED)

    true_head = list(scenario.ground_truth.order[:5])
    print(f"true top 5:       {true_head}")
    print(f"exact top-k DP:   {list(exact_top5)}  (log score {score:.2f})")
    print(f"pipeline prefix:  {list(heuristic_top5)}")

    def precision(top):
        padded = Ranking(list(top) + [o for o in range(15) if o not in top])
        return topk_precision(padded, scenario.ground_truth, 5)

    print(f"precision@5: exact {precision(exact_top5):.2f}, "
          f"pipeline {precision(heuristic_top5):.2f}")


def budget_search_demo() -> None:
    print("\n=== Minimal budget for target accuracy 0.90 "
          "(n = 30, high-quality crowd) ===")

    def factory(ratio, rng):
        return make_scenario(30, ratio, n_workers=25, workers_per_task=4,
                             level=QualityLevel.HIGH, rng=SEED)

    result = minimal_selection_ratio(
        factory, target_accuracy=0.90, repeats=2,
        config=FAST_PIPELINE, rng=SEED,
    )
    print(f"probes (ratio -> mean accuracy):")
    for ratio, accuracy in sorted(result.probes.items()):
        print(f"  r = {ratio:5.3f}  ->  {accuracy:.4f}")
    print(f"minimal ratio meeting the target: {result.selection_ratio:.3f} "
          f"({result.n_comparisons} comparisons, "
          f"accuracy {result.accuracy:.4f})")
    all_pairs = 30 * 29 // 2
    saved = 1.0 - result.n_comparisons / all_pairs
    print(f"budget saved vs all-pair crowdsourcing: {saved:.0%}")


if __name__ == "__main__":
    topk_demo()
    budget_search_demo()
