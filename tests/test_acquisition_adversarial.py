"""Acquisition beliefs and policies under hostile crowds (satellite 3).

The posterior and the BDP policy must stay numerically sane and
in-universe when the votes come from spammer-majority or colluding
crowds, and the stability stop must not fire while an adversary keeps
the ranking oscillating.
"""

import numpy as np
import pytest

from repro.acquisition import AcquisitionPolicy, PairPosterior
from repro.datasets import hostile_votes
from repro.streaming import StabilityMonitor
from repro.types import Ranking


@pytest.fixture(scope="module")
def spammer_majority():
    """Votes from a crowd where spammers outnumber honest workers 4:1."""
    return hostile_votes("spammer", 10, 0.6, n_workers=10,
                         workers_per_task=3, spammer_fraction=0.8,
                         scenario_seed=3, vote_seed=4)


class TestPosteriorUnderSpam:
    def test_beliefs_stay_bounded(self, spammer_majority):
        _, votes = spammer_majority
        posterior = PairPosterior.from_votes(10, votes.votes)
        mean = posterior.mean()
        assert np.all(mean > 0.0) and np.all(mean < 1.0)
        variance = posterior.variance()
        assert np.all(variance > 0.0) and np.all(variance <= 0.25)
        assert np.all(np.isfinite(posterior.entropy()))

    def test_beta_mass_never_below_prior(self, spammer_majority):
        _, votes = spammer_majority
        posterior = PairPosterior.from_votes(10, votes.votes, prior=1.0)
        assert np.all(posterior.alpha() >= 1.0)
        assert np.all(posterior.beta() >= 1.0)
        assert posterior.n_observed == len(votes)

    def test_zero_quality_spammers_cannot_move_the_belief(
            self, spammer_majority):
        scenario, votes = spammer_majority
        from repro.workers import SpammerWorker

        quality = {w.worker_id: (0.0 if isinstance(w, SpammerWorker)
                                 else 1.0)
                   for w in scenario.pool}
        weighted = PairPosterior.from_votes(10, votes.votes, quality)
        flat = PairPosterior.from_votes(10, votes.votes)
        # Down-weighting 8 of 10 workers to zero must strictly reduce
        # accumulated evidence mass, never flip it negative.
        assert float(weighted.observation_mass().sum()) \
            < float(flat.observation_mass().sum())
        assert np.all(weighted.observation_mass() >= 0.0)


class TestSuggestUnderSpam:
    @pytest.mark.parametrize("scorer", ["bdp", "uncertainty", "random"])
    def test_suggestions_stay_in_universe(self, spammer_majority, scorer):
        _, votes = spammer_majority
        policy = AcquisitionPolicy(10, scorer=scorer, seed=5)
        policy.observe_votes(votes.votes)
        pairs = policy.suggest(12)
        assert len(pairs) == 12
        assert len(set(pairs)) == 12
        for lo, hi in pairs:
            assert 0 <= lo < hi < 10

    def test_oversized_batch_clips_to_the_universe(self, spammer_majority):
        _, votes = spammer_majority
        policy = AcquisitionPolicy(10, scorer="bdp", seed=5)
        policy.observe_votes(votes.votes)
        pairs = policy.suggest(10_000)
        assert len(pairs) == 45  # C(10, 2)
        assert len(set(pairs)) == 45


class TestStabilityUnderOscillation:
    def test_monitor_never_stabilises_on_oscillation(self):
        """An adversary flipping the ranking each update must keep the
        rolling score far above any sane threshold."""
        monitor = StabilityMonitor(window=4, threshold=0.05)
        forward = Ranking(list(range(8)))
        backward = Ranking(list(reversed(range(8))))
        for step in range(40):
            monitor.observe(forward if step % 2 == 0 else backward)
            assert not monitor.is_stable
        assert monitor.score == pytest.approx(1.0)

    def test_policy_keeps_buying_under_oscillation(self):
        """With budget left and an oscillating ranking feed, the policy
        must not report convergence."""
        policy = AcquisitionPolicy(
            8, scorer="bdp", workers_per_query=2,
            monitor=StabilityMonitor(window=3, threshold=0.05), seed=1,
        )
        forward = Ranking(list(range(8)))
        backward = Ranking(list(reversed(range(8))))
        for step in range(12):
            assert not policy.should_stop()
            for lo, hi in policy.suggest(5):
                policy.posterior.observe(lo, hi, weight=1.0)
            policy.observe_ranking(forward if step % 2 == 0 else backward)
        assert not policy.should_stop()

    def test_policy_does_stop_once_genuinely_stable(self):
        """Control: the same configuration with a settled ranking feed
        stops — the oscillation test is meaningful."""
        policy = AcquisitionPolicy(
            8, scorer="bdp", workers_per_query=2,
            monitor=StabilityMonitor(window=3, threshold=0.05), seed=1,
        )
        settled = Ranking(list(range(8)))
        for _ in range(4):
            policy.observe_ranking(settled)
        assert policy.should_stop()
