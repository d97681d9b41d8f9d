"""Integration tests for the ``policy=`` seam of ``adaptive_rank``:
acquisition-driven rounds and the tie-breaking regressions of the
legacy heuristic."""

import numpy as np
import pytest

from repro.acquisition import AcquisitionPolicy
from repro.adaptive import _most_uncertain_pairs, adaptive_rank
from repro.config import FAST_PIPELINE
from repro.exceptions import ConfigurationError
from repro.platform import InteractivePlatform
from repro.types import Ranking
from repro.workers import QualityLevel, WorkerPool, gaussian_preset


def make_platform(n=12, budget_queries=150, seed=33):
    truth = Ranking.random(n, rng=seed)
    pool = WorkerPool.from_distribution(
        12, gaussian_preset(QualityLevel.MEDIUM), rng=seed
    )
    platform = InteractivePlatform(
        pool, truth, budget=budget_queries * 0.025, reward=0.025, rng=seed
    )
    return truth, platform


class TestPolicySeam:
    @pytest.mark.parametrize("scorer", ["random", "uncertainty", "bdp",
                                        "infomax"])
    def test_scorer_names_drive_the_rounds(self, scorer):
        truth, platform = make_platform()
        result, stats = adaptive_rank(
            platform, config=FAST_PIPELINE, rng=7, policy=scorer,
            rounds=2,
        )
        assert sorted(result.ranking.order) == list(range(12))
        assert platform.remaining_queries() == 0
        assert len(stats) == 2
        assert all(s.queries_spent > 0 for s in stats)

    def test_policy_instance_is_driven_and_rebuilt(self):
        truth, platform = make_platform()
        policy = AcquisitionPolicy(12, "bdp")
        adaptive_rank(platform, config=FAST_PIPELINE, rng=7,
                      policy=policy, rounds=2)
        # Rebuilt at the start of the final round from the full vote
        # log so far: 45 seed votes plus the 52-vote first round.
        assert policy.posterior.n_observed == 97

    def test_universe_mismatch_rejected(self):
        _, platform = make_platform(n=12)
        with pytest.raises(ConfigurationError):
            adaptive_rank(platform, policy=AcquisitionPolicy(10, "bdp"),
                          rounds=1)

    def test_policy_none_keeps_the_legacy_heuristic(self):
        truth, platform = make_platform()
        result, stats = adaptive_rank(
            platform, config=FAST_PIPELINE, rng=7, policy=None, rounds=2,
        )
        assert sorted(result.ranking.order) == list(range(12))

    def test_policy_runs_reproducible(self):
        accuracies = []
        for _ in range(2):
            truth, platform = make_platform()
            result, _ = adaptive_rank(
                platform, config=FAST_PIPELINE, rng=7, policy="bdp",
                rounds=2,
            )
            accuracies.append(list(result.ranking.order))
        assert accuracies[0] == accuracies[1]


class TestHeuristicTieBreak:
    """Satellite: `_most_uncertain_pairs` is deterministic per seed."""

    def test_same_generator_state_same_pairs(self):
        closure = np.full((8, 8), 0.5)
        np.fill_diagonal(closure, 0.0)
        first = _most_uncertain_pairs(closure, 6,
                                      np.random.default_rng(42))
        second = _most_uncertain_pairs(closure, 6,
                                       np.random.default_rng(42))
        assert first == second

    def test_all_tied_batch_is_not_pair_id_clustered(self):
        closure = np.full((10, 10), 0.5)
        np.fill_diagonal(closure, 0.0)
        pairs = _most_uncertain_pairs(closure, 5,
                                      np.random.default_rng(1))
        # Pure pair-id order would return (0,1), (0,2), ... (0,5).
        assert pairs != [(0, k) for k in range(1, 6)]

    def test_exact_post_jitter_ties_resolve_by_pair_id(self):
        class Degenerate:
            """A generator whose jitter is identically zero."""

            def uniform(self, low, high, size):
                return np.zeros(size)

        closure = np.full((5, 5), 0.5)
        np.fill_diagonal(closure, 0.0)
        pairs = _most_uncertain_pairs(closure, 4, Degenerate())
        assert pairs == [(0, 1), (0, 2), (0, 3), (0, 4)]

