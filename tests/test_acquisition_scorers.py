"""Tests for the acquisition scorers, including the BDP differential
contract: the vectorized scorer must match the literal loop oracle."""

import numpy as np
import pytest

from repro.acquisition import (
    BDPScorer,
    InfoMaxScorer,
    PairPosterior,
    PairScorer,
    RandomScorer,
    SCORER_CHOICES,
    UncertaintyScorer,
    make_scorer,
)
from repro.acquisition.bdp import strength_gains
from repro.acquisition.scorers import AcquisitionState
from repro.exceptions import ConfigurationError
from tests.oracles import bdp_scores_reference


def seeded_posterior(n, n_votes=40, seed=11):
    rng = np.random.default_rng(seed)
    posterior = PairPosterior(n)
    for _ in range(n_votes):
        i, j = rng.choice(n, size=2, replace=False)
        posterior.observe(int(i), int(j),
                          weight=float(rng.uniform(0.4, 1.0)))
    return posterior


def state_of(posterior, closure=None):
    return AcquisitionState(posterior=posterior, closure=closure)


class TestRegistry:
    def test_every_choice_constructs_a_scorer(self):
        for name in SCORER_CHOICES:
            scorer = make_scorer(name, seed=5)
            assert isinstance(scorer, PairScorer)

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            make_scorer("gradient-descent")

    def test_scores_cover_the_pair_universe(self):
        posterior = seeded_posterior(7)
        state = state_of(posterior)
        for name in SCORER_CHOICES:
            scores = make_scorer(name).score(state)
            assert scores.shape == (posterior.n_pairs,)
            assert np.all(np.isfinite(scores))


class TestRandomScorer:
    def test_keyed_on_state_and_seed(self):
        posterior = seeded_posterior(6)
        state = state_of(posterior)
        a = RandomScorer(seed=1).score(state)
        b = RandomScorer(seed=1).score(state)
        c = RandomScorer(seed=2).score(state)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_stream_advances_with_observations(self):
        posterior = seeded_posterior(6)
        before = RandomScorer(seed=1).score(state_of(posterior))
        posterior.observe(0, 1)
        after = RandomScorer(seed=1).score(state_of(posterior))
        assert not np.array_equal(before, after)


class TestUncertaintyScorer:
    def test_peaks_at_half(self):
        posterior = PairPosterior(3)
        for _ in range(5):
            posterior.observe(0, 1)  # pair 0 decided
        scores = UncertaintyScorer().score(state_of(posterior))
        assert scores[0] < scores[1]

    def test_entropy_mode(self):
        posterior = seeded_posterior(5)
        absolute = UncertaintyScorer("absolute").score(state_of(posterior))
        entropy = UncertaintyScorer("entropy").score(state_of(posterior))
        # Different functional, same argmax-at-0.5 shape: ordering agrees.
        assert np.array_equal(np.argsort(absolute), np.argsort(entropy))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            UncertaintyScorer("variance")

    def test_prefers_closure_preference_when_attached(self):
        posterior = PairPosterior(3)
        closure = np.full((3, 3), 0.0)
        closure[0, 1], closure[1, 0] = 0.95, 0.05  # decided transitively
        scores = UncertaintyScorer().score(state_of(posterior, closure))
        assert scores[0] < scores[1]


class TestInfoMax:
    def test_unobserved_pairs_have_high_effective_resistance(self):
        posterior = PairPosterior(4)
        for _ in range(8):
            posterior.observe(0, 1)
        scores = InfoMaxScorer(fisher=False).score(state_of(posterior))
        heavy = int(posterior.pair_index(np.array([0]), np.array([1]))[0])
        light = int(posterior.pair_index(np.array([2]), np.array([3]))[0])
        assert scores[light] > scores[heavy]


class TestBDPDifferential:
    """The vectorized scorer against the literal loop oracle."""

    @pytest.mark.parametrize("strength_weight", [0.0, 0.5, 1.0])
    def test_matches_loop_oracle(self, strength_weight):
        posterior = seeded_posterior(9, n_votes=35, seed=4)
        scorer = BDPScorer(strength_weight=strength_weight)
        fast = scorer.score(state_of(posterior))
        slow = bdp_scores_reference(
            posterior, strength_weight=strength_weight
        )
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_matches_oracle_with_closure_preference(self):
        posterior = seeded_posterior(6, n_votes=20, seed=9)
        rng = np.random.default_rng(0)
        closure = rng.uniform(0.05, 0.95, size=(6, 6))
        state = state_of(posterior, closure)
        fast = BDPScorer(strength_weight=0.25).score(state)
        slow = bdp_scores_reference(
            posterior, preference=state.preference_means(),
            strength_weight=0.25,
        )
        np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_strength_gains_match_quadruple_loop(self):
        """The O(K^4) -> O(K^2) collapse of the exemplar functional."""
        posterior = seeded_posterior(8, n_votes=30, seed=2)
        fast = BDPScorer(strength_weight=1.0, kappa=0.0).score(
            state_of(posterior)
        )
        slow = bdp_scores_reference(posterior, kappa=0.0,
                                    strength_weight=1.0)
        np.testing.assert_allclose(fast, slow, atol=1e-12)


class TestBDPBehaviour:
    def test_diminishing_returns_on_requeried_pairs(self):
        posterior = PairPosterior(3)
        fresh = BDPScorer().score(state_of(posterior))[0]
        for _ in range(6):
            posterior.observe(0, 1)
            posterior.observe(1, 0)
        hammered = BDPScorer().score(state_of(posterior))[0]
        assert hammered < fresh

    def test_closure_decided_pairs_score_lower(self):
        posterior = PairPosterior(3)
        closure = np.zeros((3, 3))
        closure[0, 1], closure[1, 0] = 0.97, 0.03
        closure[1, 2], closure[2, 1] = 0.5, 0.5
        scores = BDPScorer().score(state_of(posterior, closure))
        decided = int(posterior.pair_index(np.array([0]),
                                           np.array([1]))[0])
        contested = int(posterior.pair_index(np.array([1]),
                                             np.array([2]))[0])
        assert scores[decided] < scores[contested]

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            BDPScorer(update_weight=0.0)
        with pytest.raises(ConfigurationError):
            BDPScorer(kappa=-1.0)
        with pytest.raises(ConfigurationError):
            BDPScorer(strength_weight=-0.1)

    def test_strength_gains_positive_for_near_prior_strengths(self):
        gains = strength_gains(np.ones(5), update_weight=1.0)
        assert np.all(gains > 0)

    def test_n200_universe_scores_fast(self):
        """The ISSUE bar: full-universe VOI at n=200 under a second."""
        import time

        posterior = seeded_posterior(200, n_votes=600, seed=0)
        scorer = BDPScorer(strength_weight=1.0)
        state = state_of(posterior)
        start = time.perf_counter()
        scores = scorer.score(state)
        elapsed = time.perf_counter() - start
        assert scores.shape == (posterior.n_pairs,)
        assert elapsed < 1.0
