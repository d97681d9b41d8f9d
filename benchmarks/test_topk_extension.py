"""E9 — the top-k extension (the conclusion's future-work direction).

Not a paper artifact; quantifies the quality of the two top-k routes the
library adds (exact subset DP on the closure vs pipeline prefix) against
score-based top-k (Borda head), across budgets.
"""

from __future__ import annotations

import pytest

from repro.baselines import borda_count
from repro.config import PipelineConfig, PropagationConfig
from repro.datasets import make_scenario
from repro.experiments.reporting import format_records
from repro.experiments.runner import ExperimentRecord, collect_votes
from repro.inference.propagation import propagate_matrix
from repro.inference.smoothing import direct_preference_matrix, smooth_matrix
from repro.metrics import topk_precision
from repro.topk import topk_exact, topk_ranking
from repro.truth import discover_truth
from repro.types import Ranking

from conftest import emit

N_OBJECTS = 18
K = 5


def _precision(top, truth):
    padded = Ranking(
        list(top) + [o for o in range(N_OBJECTS) if o not in top]
    )
    return topk_precision(padded, truth, K)


def _run_grid():
    records = []
    for ratio in (0.2, 0.5, 1.0):
        seed = int(1000 + ratio * 100)
        scenario = make_scenario(N_OBJECTS, ratio, n_workers=25,
                                 workers_per_task=5, rng=seed)
        votes = collect_votes(scenario, rng=seed)
        truth_result = discover_truth(votes)
        arrays = votes.arrays()
        direct = direct_preference_matrix(arrays,
                                          truth_result.preference_vector)
        smoothing = smooth_matrix(direct, truth_result.preference_vector,
                                  arrays, truth_result.quality_vector)
        closure = propagate_matrix(smoothing.matrix,
                                   PropagationConfig(max_hops=8))

        arms = {
            "topk_exact_dp": _precision(
                topk_exact(closure, K)[0], scenario.ground_truth),
            "pipeline_prefix": _precision(
                topk_ranking(votes, K, PipelineConfig(), rng=seed),
                scenario.ground_truth),
            "borda_head": _precision(
                Ranking(borda_count(votes, rng=seed).order[:K]),
                scenario.ground_truth),
        }
        for name, precision in arms.items():
            records.append(ExperimentRecord(
                algorithm=name, n_objects=N_OBJECTS, selection_ratio=ratio,
                workers_per_task=5, quality=scenario.quality_name,
                accuracy=precision, seconds=0.0,
                extras={"k": K},
            ))
    return records


@pytest.mark.benchmark(group="topk")
def test_topk_extension(once):
    records = once(_run_grid)
    emit(format_records(
        records, columns=["algorithm", "r", "accuracy", "k"],
        title=f"E9: top-{K} precision of the future-work extension "
              f"(n={N_OBJECTS})",
    ))
    by_arm = {}
    for record in records:
        by_arm.setdefault(record.algorithm, []).append(record.accuracy)
    # Both pipeline-based routes must be strong and at least match the
    # score-based head on average.
    for name in ("topk_exact_dp", "pipeline_prefix"):
        mean = sum(by_arm[name]) / len(by_arm[name])
        assert mean >= 0.7
        borda_mean = sum(by_arm["borda_head"]) / len(by_arm["borda_head"])
        assert mean >= borda_mean - 0.1
