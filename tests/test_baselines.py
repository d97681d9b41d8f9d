"""Unit tests for repro.baselines (RC, QS, CrowdBT, BTL, Borda, Copeland)."""

import numpy as np
import pytest

from repro.baselines import (
    CrowdBT,
    CrowdBTConfig,
    borda_count,
    bradley_terry_mle,
    copeland_ranking,
    crowd_bt_rank,
    kemeny_local_search,
    quicksort_ranking,
    rank_centrality,
    repeat_choice,
)
from repro.exceptions import ConfigurationError, InferenceError
from repro.metrics import ranking_accuracy
from repro.platform import InteractivePlatform
from repro.types import Ranking, Vote, VoteSet
from repro.workers import QualityLevel, WorkerPool, gaussian_preset

from tests.result_invariants import assert_ranking_invariants


def perfect_votes(n, n_workers=3, coverage=1.0, seed=0):
    """Unanimous truthful votes on a (possibly partial) pair set.

    Ground truth is the identity ranking.
    """
    rng = np.random.default_rng(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if coverage < 1.0:
        keep = max(n - 1, int(len(pairs) * coverage))
        idx = rng.choice(len(pairs), size=keep, replace=False)
        pairs = [pairs[k] for k in idx]
    votes = []
    for worker in range(n_workers):
        for i, j in pairs:
            votes.append(Vote(worker=worker, winner=i, loser=j))
    return VoteSet.from_votes(n, votes)


#: Every non-interactive baseline as ``votes -> Ranking``.
BASELINES = {
    "repeat_choice": lambda votes: repeat_choice(votes, rng=0),
    "quicksort": lambda votes: quicksort_ranking(votes, rng=0),
    "borda": lambda votes: borda_count(votes, rng=0),
    "copeland": lambda votes: copeland_ranking(votes, rng=0),
    "btl": lambda votes: bradley_terry_mle(votes)[0],
    "rank_centrality": lambda votes: rank_centrality(votes)[0],
    "kemeny": lambda votes: kemeny_local_search(votes, rng=0)[0],
}


@pytest.mark.parametrize("name", sorted(BASELINES))
@pytest.mark.parametrize("votes", [
    perfect_votes(7),
    perfect_votes(12, coverage=0.2, seed=3),
    VoteSet.from_votes(4, [Vote(worker=0, winner=0, loser=1),
                           Vote(worker=0, winner=1, loser=2),
                           Vote(worker=0, winner=2, loser=0),
                           Vote(worker=1, winner=3, loser=2)]),
], ids=["complete", "sparse", "cyclic"])
def test_every_baseline_returns_a_permutation(name, votes):
    """Baselines return a bare ranking: the part of the result contract
    they carry."""
    assert_ranking_invariants(BASELINES[name](votes).order, votes.n_objects)


class TestRepeatChoice:
    def test_full_coverage_perfect_votes(self):
        votes = perfect_votes(6)
        ranking = repeat_choice(votes, rng=0)
        assert ranking == Ranking(range(6))

    def test_returns_permutation_on_sparse_votes(self):
        votes = perfect_votes(10, coverage=0.2, seed=1)
        ranking = repeat_choice(votes, rng=1)
        assert sorted(ranking.order) == list(range(10))

    def test_empty_rejected(self):
        with pytest.raises(InferenceError):
            repeat_choice(VoteSet.from_votes(3, []))

    def test_handles_inconsistent_worker(self):
        """A cyclic voter must not hang the levelling."""
        votes = VoteSet.from_votes(3, [
            Vote(worker=0, winner=0, loser=1),
            Vote(worker=0, winner=1, loser=2),
            Vote(worker=0, winner=2, loser=0),
        ])
        ranking = repeat_choice(votes, rng=0)
        assert sorted(ranking.order) == [0, 1, 2]

    def test_deterministic_with_seed(self):
        votes = perfect_votes(8, coverage=0.5, seed=2)
        assert repeat_choice(votes, rng=5) == repeat_choice(votes, rng=5)


class TestQuickSort:
    def test_full_coverage_perfect_votes(self):
        votes = perfect_votes(8)
        assert quicksort_ranking(votes, rng=0) == Ranking(range(8))

    def test_majority_respected_with_noise(self):
        """2-vs-1 majorities on every pair still sort exactly."""
        n = 6
        votes = []
        for i in range(n):
            for j in range(i + 1, n):
                votes.append(Vote(worker=0, winner=i, loser=j))
                votes.append(Vote(worker=1, winner=i, loser=j))
                votes.append(Vote(worker=2, winner=j, loser=i))
        ranking = quicksort_ranking(VoteSet.from_votes(n, votes), rng=0)
        assert ranking == Ranking(range(n))

    def test_sparse_coverage_degrades(self):
        """With 10% coverage most comparisons are coin flips, so QS must
        be far from perfect (the Table-I story)."""
        truth = Ranking(range(20))
        votes = perfect_votes(20, coverage=0.1, seed=3)
        accuracies = [
            ranking_accuracy(quicksort_ranking(votes, rng=s), truth)
            for s in range(5)
        ]
        assert np.mean(accuracies) < 0.95

    def test_empty_rejected(self):
        with pytest.raises(InferenceError):
            quicksort_ranking(VoteSet.from_votes(3, []))

    def test_permutation_output(self):
        votes = perfect_votes(15, coverage=0.3, seed=4)
        ranking = quicksort_ranking(votes, rng=2)
        assert sorted(ranking.order) == list(range(15))


class TestBorda:
    def test_perfect_votes(self):
        assert borda_count(perfect_votes(7), rng=0) == Ranking(range(7))

    def test_empty_rejected(self):
        with pytest.raises(InferenceError):
            borda_count(VoteSet.from_votes(3, []))

    def test_unseen_objects_rank_midfield(self):
        """An object with no votes should not land at either extreme when
        others have clear records."""
        votes = VoteSet.from_votes(3, [
            Vote(worker=0, winner=0, loser=2),
            Vote(worker=0, winner=0, loser=2),
        ])
        ranking = borda_count(votes, rng=0)
        assert ranking.position(1) == 1


class TestCopeland:
    def test_perfect_votes(self):
        assert copeland_ranking(perfect_votes(7), rng=0) == Ranking(range(7))

    def test_majority_per_pair(self):
        votes = VoteSet.from_votes(3, [
            Vote(worker=0, winner=1, loser=0),
            Vote(worker=1, winner=1, loser=0),
            Vote(worker=2, winner=0, loser=1),
            Vote(worker=0, winner=1, loser=2),
            Vote(worker=0, winner=0, loser=2),
        ])
        ranking = copeland_ranking(votes, rng=0)
        assert ranking.position(1) == 0

    def test_empty_rejected(self):
        with pytest.raises(InferenceError):
            copeland_ranking(VoteSet.from_votes(3, []))


class TestBTL:
    def test_perfect_votes(self):
        ranking, gamma = bradley_terry_mle(perfect_votes(6))
        assert ranking == Ranking(range(6))
        assert np.all(np.diff(gamma[list(ranking.order)]) <= 1e-12)

    def test_strengths_normalised(self):
        _, gamma = bradley_terry_mle(perfect_votes(5))
        assert gamma.sum() == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(InferenceError):
            bradley_terry_mle(VoteSet.from_votes(3, []))

    def test_noise_tolerance(self):
        rng = np.random.default_rng(0)
        n = 10
        votes = []
        for i in range(n):
            for j in range(i + 1, n):
                for worker in range(5):
                    if rng.random() < 0.85:
                        votes.append(Vote(worker=worker, winner=i, loser=j))
                    else:
                        votes.append(Vote(worker=worker, winner=j, loser=i))
        ranking, _ = bradley_terry_mle(VoteSet.from_votes(n, votes))
        assert ranking_accuracy(ranking, Ranking(range(n))) > 0.9


class TestCrowdBTModel:
    def test_construction_validation(self):
        with pytest.raises(ConfigurationError):
            CrowdBT(1, 5)
        with pytest.raises(ConfigurationError):
            CrowdBT(5, 0)
        with pytest.raises(ConfigurationError):
            CrowdBTConfig(prior_variance=0)
        with pytest.raises(ConfigurationError):
            CrowdBTConfig(exploration=2.0)

    def test_update_moves_scores_apart(self):
        model = CrowdBT(3, 2, rng=0)
        for _ in range(30):
            model.update(Vote(worker=0, winner=0, loser=1))
        assert model.mu[0] > model.mu[1]

    def test_variance_shrinks(self):
        model = CrowdBT(3, 2, rng=0)
        before = model.var[0]
        for _ in range(10):
            model.update(Vote(worker=0, winner=0, loser=1))
        assert model.var[0] < before

    def test_reliable_worker_eta_grows(self):
        model = CrowdBT(4, 2, rng=0)
        # Worker 0 consistently orders; worker 1 contradicts.
        for _ in range(20):
            model.update(Vote(worker=0, winner=0, loser=1))
            model.update(Vote(worker=1, winner=1, loser=0))
        assert model.eta(0) > model.eta(1)

    def test_bt_probability_symmetry(self):
        model = CrowdBT(3, 1, rng=0)
        assert model.bt_probability(0, 1) == pytest.approx(0.5)
        model.mu[0] = 2.0
        assert model.bt_probability(0, 1) > 0.5
        assert model.bt_probability(0, 1) + model.bt_probability(1, 0) == (
            pytest.approx(1.0)
        )

    def test_select_pair_valid(self):
        model = CrowdBT(6, 2, rng=0)
        for _ in range(20):
            i, j = model.select_pair()
            assert i != j
            assert 0 <= i < 6 and 0 <= j < 6


class TestCrowdBTInteractive:
    def test_end_to_end_accuracy(self):
        truth = Ranking.random(12, rng=3)
        pool = WorkerPool.from_distribution(
            8, gaussian_preset(QualityLevel.HIGH), rng=3
        )
        platform = InteractivePlatform(pool, truth, budget=10.0,
                                       reward=0.025, rng=3)
        ranking = crowd_bt_rank(platform, n_workers=8, rng=3)
        assert ranking_accuracy(ranking, truth) > 0.85

    def test_spends_whole_budget(self):
        truth = Ranking.random(6, rng=1)
        pool = WorkerPool.from_distribution(
            4, gaussian_preset(QualityLevel.MEDIUM), rng=1
        )
        platform = InteractivePlatform(pool, truth, budget=1.0,
                                       reward=0.025, rng=1)
        crowd_bt_rank(platform, n_workers=4, rng=1)
        assert not platform.can_query()

    def test_zero_budget_rejected(self):
        truth = Ranking.random(5, rng=0)
        pool = WorkerPool.from_distribution(
            3, gaussian_preset(QualityLevel.HIGH), rng=0
        )
        platform = InteractivePlatform(pool, truth, budget=0.0, rng=0)
        with pytest.raises(InferenceError):
            crowd_bt_rank(platform, n_workers=3, rng=0)
