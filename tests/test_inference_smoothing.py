"""Unit tests for Step 2: repro.inference.smoothing and its per-edge
object-graph oracle (``tests/oracles/smoothing.py``)."""

import math

import numpy as np
import pytest

from repro.config import SmoothingConfig
from repro.exceptions import InferenceError
from repro.inference.smoothing import (
    direct_preference_matrix,
    smooth_matrix,
    worker_sigma,
)
from repro.types import Vote, VoteSet

from tests.oracles import PreferenceGraph
from tests.oracles import smoothing as smoothing_mod
from tests.oracles.smoothing import smooth_preferences


@pytest.fixture
def unanimous_votes():
    """3 workers unanimously vote 0 < 1 < 2 along a path."""
    votes = []
    for worker in range(3):
        votes.append(Vote(worker=worker, winner=0, loser=1))
        votes.append(Vote(worker=worker, winner=1, loser=2))
    return VoteSet.from_votes(3, votes)


@pytest.fixture
def unanimous_graph():
    return PreferenceGraph.from_direct_preferences(
        3, {(0, 1): 1.0, (1, 2): 1.0}
    )


GOOD_QUALITY = {0: 0.95, 1: 0.9, 2: 0.92}


class TestWorkerSigma:
    def test_negative_log(self):
        config = SmoothingConfig()
        assert worker_sigma(0.5, config) == pytest.approx(math.log(2.0))

    def test_perfect_quality_floored(self):
        config = SmoothingConfig(sigma_floor=0.01)
        assert worker_sigma(1.0, config) == 0.01

    def test_terrible_quality_capped(self):
        config = SmoothingConfig(sigma_cap=1.5)
        assert worker_sigma(1e-6, config) == 1.5

    def test_invalid_quality_rejected(self):
        config = SmoothingConfig()
        with pytest.raises(InferenceError):
            worker_sigma(0.0, config)
        with pytest.raises(InferenceError):
            worker_sigma(1.1, config)


class TestSmoothPreferences:
    def test_one_edges_get_both_directions(self, unanimous_graph,
                                            unanimous_votes):
        result = smooth_preferences(unanimous_graph, unanimous_votes,
                                    GOOD_QUALITY)
        for u, v in [(0, 1), (1, 2)]:
            assert result.graph.has_edge(u, v)
            assert result.graph.has_edge(v, u)
            total = result.graph.weight(u, v) + result.graph.weight(v, u)
            assert total == pytest.approx(1.0)

    def test_direction_never_inverted(self, unanimous_graph, unanimous_votes):
        """Unanimous edges keep the crowd's direction (w >= 0.5) even for
        very unreliable workers."""
        bad_quality = {0: 0.05, 1: 0.05, 2: 0.05}
        result = smooth_preferences(unanimous_graph, unanimous_votes,
                                    bad_quality)
        assert result.graph.weight(0, 1) >= 0.5
        assert result.graph.weight(1, 0) <= 0.5

    def test_good_workers_small_shift(self, unanimous_graph, unanimous_votes):
        result = smooth_preferences(unanimous_graph, unanimous_votes,
                                    GOOD_QUALITY)
        assert result.graph.weight(0, 1) > 0.85

    def test_shift_monotone_in_quality(self, unanimous_graph,
                                       unanimous_votes):
        good = smooth_preferences(unanimous_graph, unanimous_votes,
                                  {0: 0.99, 1: 0.99, 2: 0.99})
        bad = smooth_preferences(unanimous_graph, unanimous_votes,
                                 {0: 0.5, 1: 0.5, 2: 0.5})
        assert good.adjustments[(0, 1)] < bad.adjustments[(0, 1)]

    def test_counts_one_edges(self, unanimous_graph, unanimous_votes):
        result = smooth_preferences(unanimous_graph, unanimous_votes,
                                    GOOD_QUALITY)
        assert result.n_one_edges == 2

    def test_contested_edges_untouched(self, unanimous_votes):
        graph = PreferenceGraph.from_direct_preferences(
            3, {(0, 1): 1.0, (1, 2): 0.7}
        )
        result = smooth_preferences(graph, unanimous_votes, GOOD_QUALITY)
        assert result.graph.weight(1, 2) == pytest.approx(0.7)
        assert result.graph.weight(2, 1) == pytest.approx(0.3)
        assert result.n_one_edges == 1

    def test_strong_connectivity_after_smoothing(self, unanimous_graph,
                                                 unanimous_votes):
        """Theorem 5.1's precondition: the smoothed graph is strongly
        connected whenever the task graph was connected."""
        result = smooth_preferences(unanimous_graph, unanimous_votes,
                                    GOOD_QUALITY)
        assert result.graph.is_strongly_connected()

    def test_validates_as_smoothed(self, unanimous_graph, unanimous_votes):
        result = smooth_preferences(unanimous_graph, unanimous_votes,
                                    GOOD_QUALITY)
        result.graph.validate(smoothed=True)

    def test_missing_votes_for_one_edge_rejected(self, unanimous_graph):
        empty_pair_votes = VoteSet.from_votes(
            3, [Vote(worker=0, winner=0, loser=1)]
        )
        with pytest.raises(InferenceError):
            smooth_preferences(unanimous_graph, empty_pair_votes,
                               GOOD_QUALITY)

    def test_missing_quality_rejected(self, unanimous_graph, unanimous_votes):
        with pytest.raises(InferenceError):
            smooth_preferences(unanimous_graph, unanimous_votes, {0: 0.9})

    def test_sampled_mode_reproducible(self, unanimous_graph,
                                       unanimous_votes):
        config = SmoothingConfig(mode="sampled")
        a = smooth_preferences(unanimous_graph, unanimous_votes,
                               GOOD_QUALITY, config, rng=7)
        b = smooth_preferences(unanimous_graph, unanimous_votes,
                               GOOD_QUALITY, config, rng=7)
        assert a.adjustments == b.adjustments

    def test_sampled_mode_valid_weights(self, unanimous_graph,
                                        unanimous_votes):
        config = SmoothingConfig(mode="sampled")
        result = smooth_preferences(unanimous_graph, unanimous_votes,
                                    GOOD_QUALITY, config, rng=3)
        result.graph.validate(smoothed=True)

    def test_original_graph_not_mutated(self, unanimous_graph,
                                        unanimous_votes):
        smooth_preferences(unanimous_graph, unanimous_votes, GOOD_QUALITY)
        assert unanimous_graph.weight(0, 1) == 1.0
        assert not unanimous_graph.has_edge(1, 0)

    def test_reverse_one_edge_smoothed_too(self, unanimous_votes):
        """x_ij = 0 creates a 1-edge in the reverse direction; it must be
        smoothed symmetrically."""
        graph = PreferenceGraph.from_direct_preferences(
            3, {(0, 1): 0.0, (1, 2): 1.0}
        )
        result = smooth_preferences(graph, unanimous_votes, GOOD_QUALITY)
        assert result.graph.weight(1, 0) >= 0.5
        assert result.graph.has_edge(0, 1)

    def test_sigma_computed_once_per_distinct_worker(self, monkeypatch):
        """sigma_k is a pure function of q_k: one worker_sigma call per
        distinct worker, no matter how many (edge, vote) pairs they
        appear in."""
        votes = []
        for worker in range(3):
            for lo in range(4):
                votes.append(Vote(worker=worker, winner=lo, loser=lo + 1))
        vote_set = VoteSet.from_votes(5, votes)
        graph = PreferenceGraph.from_direct_preferences(
            5, {(i, i + 1): 1.0 for i in range(4)}
        )

        calls = {"count": 0}
        real = smoothing_mod.worker_sigma

        def counting(quality, config):
            calls["count"] += 1
            return real(quality, config)

        monkeypatch.setattr(smoothing_mod, "worker_sigma", counting)
        smooth_preferences(graph, vote_set, {0: 0.9, 1: 0.8, 2: 0.95})
        assert calls["count"] == 3  # 3 workers, 12 (edge, vote) pairs


class TestSampledDrawOrderContract:
    """Pins the documented RNG draw-order contract of sampled smoothing.

    Both implementations consume one ``|N(0, sigma_k^2)|`` draw per
    (1-edge, vote): 1-edges in lexicographic ``(source, target)`` order,
    votes within an edge in original vote-set order.  These tests are
    the tripwire for anyone reordering either loop.
    """

    def _scenario(self):
        """4 objects; 1-edges (0 -> 1), (2 -> 1), (2 -> 3); one
        contested pair (0, 3).  Workers interleave across pairs."""
        votes = [
            Vote(worker=0, winner=0, loser=1),
            Vote(worker=1, winner=2, loser=1),
            Vote(worker=1, winner=0, loser=1),
            Vote(worker=2, winner=2, loser=3),
            Vote(worker=0, winner=2, loser=3),
            Vote(worker=2, winner=0, loser=3),
            Vote(worker=1, winner=3, loser=0),
        ]
        vote_set = VoteSet.from_votes(4, votes)
        preferences = {(0, 1): 1.0, (1, 2): 0.0, (2, 3): 1.0, (0, 3): 0.5}
        quality = {0: 0.9, 1: 0.7, 2: 0.8}
        return vote_set, preferences, quality

    def test_pipeline_one_edges_are_lexicographic(self):
        """For graphs built by from_direct_preferences over the sorted
        pair table, one_edges() is lexicographic (source, target) —
        the object-path draw order the fast path reproduces."""
        _, preferences, _ = self._scenario()
        graph = PreferenceGraph.from_direct_preferences(4, preferences)
        edges = graph.one_edges()
        assert edges == sorted(edges)
        assert edges == [(0, 1), (2, 1), (2, 3)]

    def test_sampled_draws_consumed_in_documented_order(self):
        """Re-derive the shifts with explicit scalar draws in the
        documented order; smooth_matrix must match bit for bit."""
        vote_set, preferences, quality = self._scenario()
        config = SmoothingConfig(mode="sampled")
        arrays = vote_set.arrays()
        truth = np.array([preferences[p] for p in arrays.pairs()])

        rng = np.random.default_rng(42)
        expected = {}
        # 1-edges lexicographic; votes within an edge in original order.
        for src, dst in [(0, 1), (2, 1), (2, 3)]:
            pair = (min(src, dst), max(src, dst))
            errors = [
                abs(float(rng.normal(0.0, worker_sigma(quality[v.worker],
                                                       config))))
                for v in vote_set.votes
                if (min(v.winner, v.loser), max(v.winner, v.loser)) == pair
            ]
            shift = float(np.mean(errors))
            expected[(src, dst)] = min(max(shift, config.min_weight), 0.5)

        direct = direct_preference_matrix(arrays, truth)
        fast = smooth_matrix(direct, truth, arrays, quality, config, rng=42)
        assert fast.adjustments == expected

        graph = PreferenceGraph.from_direct_preferences(4, preferences)
        obj = smooth_preferences(graph, vote_set, quality, config, rng=42)
        assert obj.adjustments == expected

    def test_missing_quality_rejected_matrix_path(self):
        vote_set, preferences, _ = self._scenario()
        arrays = vote_set.arrays()
        truth = np.array([preferences[p] for p in arrays.pairs()])
        direct = direct_preference_matrix(arrays, truth)
        with pytest.raises(InferenceError):
            smooth_matrix(direct, truth, arrays, {0: 0.9}, SmoothingConfig())

    def test_no_one_edges_returns_direct_matrix(self):
        vote_set, _, quality = self._scenario()
        arrays = vote_set.arrays()
        truth = np.full(arrays.n_pairs, 0.5)
        direct = direct_preference_matrix(arrays, truth)
        result = smooth_matrix(direct, truth, arrays, quality)
        assert result.n_one_edges == 0
        assert result.adjustments == {}
        assert np.array_equal(result.matrix, direct)
