"""Unit tests for repro.inference.pipeline (Steps 1-4 end to end)."""

import pytest

from repro.config import (
    PipelineConfig,
    PropagationConfig,
    SAPSConfig,
    TAPSConfig,
)
from repro.exceptions import InferenceError
from repro.inference import RankingPipeline, infer_ranking
from repro.metrics import ranking_accuracy
from repro.types import Ranking, Vote, VoteSet
from tests.result_invariants import assert_result_invariants


@pytest.fixture
def clean_votes():
    """3 perfect workers on a 5-object cycle-ish task set; truth is
    0 < 1 < 2 < 3 < 4."""
    pairs = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 2), (1, 3), (2, 4)]
    votes = []
    for worker in range(3):
        for i, j in pairs:
            votes.append(Vote(worker=worker, winner=i, loser=j))
    return VoteSet.from_votes(5, votes)


class TestPipeline:
    def test_recovers_clean_ranking(self, clean_votes, fast_config):
        result = RankingPipeline(fast_config).run(clean_votes, rng=0)
        assert result.ranking == Ranking([0, 1, 2, 3, 4])
        assert_result_invariants(result, clean_votes)

    def test_step_timings_present(self, clean_votes, fast_config):
        result = RankingPipeline(fast_config).run(clean_votes, rng=0)
        assert set(result.step_seconds) == {
            "truth_discovery",
            "smoothing",
            "propagation",
            "search",
        }
        assert all(t >= 0 for t in result.step_seconds.values())

    def test_metadata_populated(self, clean_votes, fast_config):
        result = RankingPipeline(fast_config).run(clean_votes, rng=0)
        assert result.metadata["search_algorithm"] == "saps"
        assert result.metadata["truth_iterations"] >= 1
        assert result.metadata["n_one_edges"] == 8  # all votes unanimous

    def test_direct_preferences_and_quality_exposed(self, clean_votes,
                                                    fast_config):
        result = RankingPipeline(fast_config).run(clean_votes, rng=0)
        assert len(result.direct_preferences) == 8
        assert set(result.worker_quality) == {0, 1, 2}

    def test_taps_search_mode(self, clean_votes):
        config = PipelineConfig(
            search="taps",
            taps=TAPSConfig(max_objects=6),
            propagation=PropagationConfig(max_hops=4),
        )
        result = RankingPipeline(config).run(clean_votes, rng=0)
        assert result.ranking == Ranking([0, 1, 2, 3, 4])
        assert result.metadata["tie_count"] >= 1
        assert_result_invariants(result, clean_votes)

    def test_branch_and_bound_mode(self, clean_votes):
        config = PipelineConfig(
            search="branch_and_bound",
            propagation=PropagationConfig(max_hops=4),
        )
        result = RankingPipeline(config).run(clean_votes, rng=0)
        assert result.ranking == Ranking([0, 1, 2, 3, 4])
        assert_result_invariants(result, clean_votes)

    def test_exact_modes_agree(self, clean_votes):
        taps_result = RankingPipeline(
            PipelineConfig(search="taps", taps=TAPSConfig(max_objects=6),
                           propagation=PropagationConfig(max_hops=4))
        ).run(clean_votes, rng=0)
        bnb_result = RankingPipeline(
            PipelineConfig(search="branch_and_bound",
                           propagation=PropagationConfig(max_hops=4))
        ).run(clean_votes, rng=0)
        assert taps_result.log_preference == pytest.approx(
            bnb_result.log_preference
        )

    def test_empty_votes_rejected(self, fast_config):
        with pytest.raises(InferenceError):
            RankingPipeline(fast_config).run(VoteSet.from_votes(3, []))

    def test_single_object_rejected(self, fast_config):
        votes = VoteSet.from_votes(1, [])
        with pytest.raises(InferenceError):
            RankingPipeline(fast_config).run(votes)

    def test_convenience_function(self, clean_votes, fast_config):
        result = infer_ranking(clean_votes, fast_config, rng=0)
        assert len(result.ranking) == 5

    def test_noisy_minority_is_outvoted(self, fast_config):
        """2 perfect workers + 1 anti-worker: pipeline follows majority."""
        pairs = [(0, 1), (1, 2), (0, 2)]
        votes = []
        for i, j in pairs:
            votes.append(Vote(worker=0, winner=i, loser=j))
            votes.append(Vote(worker=1, winner=i, loser=j))
            votes.append(Vote(worker=2, winner=j, loser=i))
        result = infer_ranking(VoteSet.from_votes(3, votes), fast_config,
                               rng=0)
        assert result.ranking == Ranking([0, 1, 2])

    def test_end_to_end_accuracy_on_simulation(self, medium_scenario,
                                               medium_votes, fast_config):
        result = infer_ranking(medium_votes, fast_config, rng=1)
        accuracy = ranking_accuracy(result.ranking,
                                    medium_scenario.ground_truth)
        assert accuracy > 0.85
