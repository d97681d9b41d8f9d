"""Tests for :class:`repro.acquisition.AcquisitionPolicy`: batch
selection, determinism, belief updates, stopping and the
worker-assignment bridge."""

import numpy as np
import pytest

from repro.acquisition import AcquisitionPolicy, PairPosterior
from repro.exceptions import ConfigurationError
from repro.streaming import StabilityMonitor
from repro.types import Vote, VoteArrays


def make_votes(n, count, seed=0):
    rng = np.random.default_rng(seed)
    return [
        Vote(worker=int(k % 4), winner=int(i), loser=int(j))
        for k, (i, j) in enumerate(
            rng.choice(n, size=2, replace=False) for _ in range(count)
        )
    ]


class TestSuggest:
    def test_deterministic_for_fixed_state_and_seed(self):
        """The regression-tested contract: state + seed => batch."""
        votes = make_votes(12, 80, seed=5)
        for scorer in ("random", "uncertainty", "bdp", "infomax"):
            one = AcquisitionPolicy(12, scorer, seed=9)
            two = AcquisitionPolicy(12, scorer, seed=9)
            one.observe_votes(votes)
            two.observe_votes(VoteArrays.from_votes(12, votes))
            assert one.suggest(10) == two.suggest(10)
            assert one.suggest(10) == one.suggest(10)

    def test_seed_changes_tie_resolution(self):
        # A fresh posterior scores every pair identically under the
        # uncertainty scorer: the batch is pure tie-break.
        a = AcquisitionPolicy(10, "uncertainty", seed=1).suggest(5)
        b = AcquisitionPolicy(10, "uncertainty", seed=2).suggest(5)
        assert a != b

    def test_ties_spread_instead_of_clustering(self):
        # Pair-id tie-breaking would return (0,1), (0,2), ... (0,k+1);
        # the keyed permutation must not pile the batch onto object 0.
        pairs = AcquisitionPolicy(20, "uncertainty", seed=0).suggest(8)
        assert len(pairs) == len(set(pairs))
        touching_zero = sum(1 for lo, hi in pairs if 0 in (lo, hi))
        assert touching_zero < len(pairs)

    def test_returns_canonical_ordered_pairs(self):
        policy = AcquisitionPolicy(6, "bdp")
        policy.observe_votes(make_votes(6, 30))
        for lo, hi in policy.suggest(15):
            assert 0 <= lo < hi < 6

    def test_k_clipped_to_universe(self):
        policy = AcquisitionPolicy(4, "uncertainty")
        assert len(policy.suggest(100)) == 6  # C(4, 2)

    def test_k_zero_and_negative(self):
        policy = AcquisitionPolicy(4, "uncertainty")
        assert policy.suggest(0) == []
        with pytest.raises(ConfigurationError):
            policy.suggest(-1)


class TestObserveAndCharge:
    def test_rebuild_never_charges(self):
        """A rebuild re-folds the votes once: they are not counted
        again on top of the first fold."""
        policy = AcquisitionPolicy(6, "uncertainty")
        votes = make_votes(6, 4)
        policy.observe_votes(votes)
        policy.rebuild(votes, worker_quality={0: 0.9})
        assert policy.posterior.n_observed == 4

    def test_rebuild_reweights_history(self):
        policy = AcquisitionPolicy(4, "uncertainty")
        votes = [Vote(worker=0, winner=0, loser=1)]
        policy.observe_votes(votes, worker_quality={0: 0.2})
        low = policy.posterior.alpha()[0]
        policy.rebuild(votes, worker_quality={0: 0.9})
        assert policy.posterior.alpha()[0] > low

    def test_closure_shape_validated(self):
        policy = AcquisitionPolicy(5, "uncertainty")
        with pytest.raises(ConfigurationError):
            policy.attach_closure(np.zeros((4, 4)))
        policy.attach_closure(np.zeros((5, 5)))
        policy.attach_closure(None)


class TestAssignmentBridge:
    def test_batch_becomes_worker_assignment(self):
        policy = AcquisitionPolicy(8, "uncertainty",
                                   workers_per_query=2, seed=3)
        pairs = policy.suggest(6)
        assignment = policy.build_assignment(pairs, n_workers=5, rng=0)
        assigned_pairs = {
            pair for hit in assignment.task_assignment.hits for pair in hit
        }
        assert assigned_pairs == set(pairs)
        # Redundancy: every HIT answered by workers_per_query workers.
        assert assignment.workers_per_hit == 2
        assert assignment.total_votes == 2 * len(pairs)


class TestStopping:
    def test_stops_on_stable_ranking(self):
        monitor = StabilityMonitor(window=2, threshold=0.5)
        policy = AcquisitionPolicy(4, "uncertainty", monitor=monitor)
        assert not policy.should_stop()
        stable = [0, 1, 2, 3]
        for _ in range(4):
            policy.observe_ranking(stable)
        assert policy.should_stop()

    def test_unbudgeted_unmonitored_never_stops(self):
        assert not AcquisitionPolicy(4, "uncertainty").should_stop()


class TestValidation:
    def test_universe_mismatch_between_posterior_and_policy(self):
        policy = AcquisitionPolicy(5, "uncertainty")
        assert policy.n_objects == 5
        assert policy.posterior.n_objects == 5

    def test_workers_per_query_validated(self):
        with pytest.raises(ConfigurationError):
            AcquisitionPolicy(5, "uncertainty", workers_per_query=0)

    def test_scorer_instance_passthrough(self):
        posterior = PairPosterior(4)
        del posterior  # policy builds its own

        class Constant:
            name = "constant"

            def score(self, state):
                return np.ones(state.posterior.n_pairs)

        policy = AcquisitionPolicy(4, Constant())
        assert policy.scorer.name == "constant"
        assert len(policy.suggest(3)) == 3
