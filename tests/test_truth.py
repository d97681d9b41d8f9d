"""Unit tests for repro.truth (CRH, majority voting, convergence)."""

import numpy as np
import pytest

from repro.config import TruthDiscoveryConfig
from repro.exceptions import ConvergenceError, InferenceError
from repro.truth import (
    ConvergenceTrace,
    discover_truth,
    majority_vote,
    weighted_majority_vote,
)
from repro.truth.crh import _chi2_ppf
from repro.types import Vote, VoteSet


class TestMajorityVote:
    def test_simple_majority(self, tiny_votes):
        shares = majority_vote(tiny_votes)
        assert shares[(0, 1)] == pytest.approx(2 / 3)
        assert shares[(1, 2)] == 1.0

    def test_empty_rejected(self):
        with pytest.raises(InferenceError):
            majority_vote(VoteSet.from_votes(3, []))

    def test_weighted_majority_downweights(self, tiny_votes):
        """Crushing worker 2's weight makes pair (0, 1) unanimous."""
        shares = weighted_majority_vote(tiny_votes, weights={2: 0.0, 0: 1.0, 1: 1.0})
        assert shares[(0, 1)] == pytest.approx(1.0)

    def test_negative_weight_rejected(self, tiny_votes):
        with pytest.raises(InferenceError):
            weighted_majority_vote(tiny_votes, weights={0: -1.0})

    def test_all_zero_weights_rejected(self, tiny_votes):
        with pytest.raises(InferenceError):
            weighted_majority_vote(tiny_votes, weights={0: 0.0, 1: 0.0, 2: 0.0})


class TestDiscoverTruth:
    def test_outputs_cover_all_pairs_and_workers(self, tiny_votes):
        result = discover_truth(tiny_votes)
        assert set(result.preferences) == {(0, 1), (0, 3), (1, 2), (2, 3)}
        assert set(result.worker_quality) == {0, 1, 2}

    def test_preferences_in_unit_interval(self, medium_votes):
        result = discover_truth(medium_votes)
        assert all(0.0 <= x <= 1.0 for x in result.preferences.values())

    def test_qualities_in_unit_interval(self, medium_votes):
        result = discover_truth(medium_votes)
        assert all(0.0 < q <= 1.0 for q in result.worker_quality.values())

    def test_adversarial_worker_gets_lower_quality(self):
        """Worker 2 disagrees with the consensus on every pair."""
        votes = []
        for pair in [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3), (0, 3)]:
            i, j = pair
            votes.append(Vote(worker=0, winner=i, loser=j))
            votes.append(Vote(worker=1, winner=i, loser=j))
            votes.append(Vote(worker=2, winner=j, loser=i))
        result = discover_truth(VoteSet.from_votes(4, votes))
        assert result.worker_quality[2] < result.worker_quality[0]
        assert result.worker_quality[2] < result.worker_quality[1]

    def test_unanimous_pairs_resolve_to_extremes(self, tiny_votes):
        result = discover_truth(tiny_votes)
        assert result.preferences[(1, 2)] == pytest.approx(1.0)
        assert result.preferences[(2, 3)] == pytest.approx(1.0)

    def test_majority_direction_preserved(self, tiny_votes):
        result = discover_truth(tiny_votes)
        assert result.preferences[(0, 1)] > 0.5

    def test_converges_within_cap(self, medium_votes):
        result = discover_truth(medium_votes)
        assert result.trace.converged
        assert result.iterations <= TruthDiscoveryConfig().max_iterations

    def test_relaxed_tolerance_converges_faster(self, medium_votes):
        """Looser tolerance must never need more iterations."""
        strict = discover_truth(
            medium_votes, TruthDiscoveryConfig(tolerance=1e-4)
        )
        relaxed = discover_truth(
            medium_votes, TruthDiscoveryConfig(tolerance=1e-2)
        )
        assert relaxed.trace.converged
        assert relaxed.iterations <= strict.iterations

    def test_strict_mode_raises_on_cap(self, medium_votes):
        config = TruthDiscoveryConfig(max_iterations=1, strict=True,
                                      tolerance=1e-12)
        with pytest.raises(ConvergenceError):
            discover_truth(medium_votes, config)

    def test_non_strict_mode_returns_on_cap(self, medium_votes):
        config = TruthDiscoveryConfig(max_iterations=1, tolerance=1e-12)
        result = discover_truth(medium_votes, config)
        assert not result.trace.converged
        assert result.iterations == 1

    def test_empty_votes_rejected(self):
        with pytest.raises(InferenceError):
            discover_truth(VoteSet.from_votes(3, []))

    def test_deterministic(self, medium_votes):
        a = discover_truth(medium_votes)
        b = discover_truth(medium_votes)
        assert a.preferences == b.preferences
        assert a.worker_quality == b.worker_quality

    def test_better_than_majority_with_known_bad_worker(self):
        """One reliable and three coin-flip workers on the same pairs:
        truth discovery should track the reliable worker more closely
        than naive majority."""
        rng = np.random.default_rng(0)
        pairs = [(i, j) for i in range(6) for j in range(i + 1, 6)]
        votes = []
        for i, j in pairs:
            votes.append(Vote(worker=0, winner=i, loser=j))  # always truthful
            for worker in (1, 2, 3):
                if rng.random() < 0.5:
                    votes.append(Vote(worker=worker, winner=i, loser=j))
                else:
                    votes.append(Vote(worker=worker, winner=j, loser=i))
        result = discover_truth(VoteSet.from_votes(6, votes))
        correct = sum(1 for pair in pairs if result.preferences[pair] > 0.5)
        majority = majority_vote(VoteSet.from_votes(6, votes))
        majority_correct = sum(1 for pair in pairs if majority[pair] > 0.5)
        assert correct >= majority_correct


def test_chi2_ppf_matches_scipy_stats_bit_for_bit():
    """Eq. 5's percentile is computed without scipy.stats; it must equal
    ``stats.chi2.ppf`` exactly, so rankings do not move."""
    from scipy import stats

    df = np.arange(1, 5001)
    for alpha in (1e-6, 0.01, 0.05, 0.1, 0.5, 0.9, 0.999):
        expected = stats.chi2.ppf(alpha / 2.0, df=df)
        assert np.array_equal(_chi2_ppf(alpha / 2.0, df), expected), alpha


class TestConvergenceTrace:
    def test_record_and_iterations(self):
        trace = ConvergenceTrace()
        trace.record(0.5, 0.4)
        trace.record(0.1, 0.05)
        assert trace.iterations == 2
        assert trace.max_delta(0) == 0.5
        assert trace.max_delta(1) == 0.1

    def test_monotone_tail(self):
        trace = ConvergenceTrace()
        for delta in [0.5, 0.3, 0.2, 0.1]:
            trace.record(delta, delta)
        assert trace.is_monotone_tail(tail=3)

    def test_non_monotone_tail(self):
        trace = ConvergenceTrace()
        for delta in [0.5, 0.1, 0.3, 0.2, 0.4]:
            trace.record(delta, delta)
        assert not trace.is_monotone_tail(tail=3)

    def test_short_trace_is_trivially_monotone(self):
        trace = ConvergenceTrace()
        trace.record(0.5, 0.5)
        assert trace.is_monotone_tail()
