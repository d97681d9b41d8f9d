"""Differential suite: the columnar pipeline vs the object-graph oracle.

The contract under test: for every vote set, seed and backend,
:class:`~repro.inference.RankingPipeline` (dense matrices through
Steps 1-3) must produce results *bit-identical* to the object-graph
oracle in ``tests/oracles`` (``PreferenceGraph`` plus per-edge
smoothing) — same ranking, same ``log_preference`` float, same worker
qualities, same metadata, and at Steps 1-3 the same closure and the
same smoothing adjustments.

Also hosts the :class:`~repro.types.VoteArrays` round-trip and property
tests (empty, single-vote, duplicate-pair vote sets).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import (
    PipelineConfig,
    PropagationConfig,
    SAPSConfig,
    SmoothingConfig,
)
from repro.datasets import make_scenario
from repro.experiments.runner import collect_votes
from repro.inference import RankingPipeline
from repro.inference.propagation import propagate_matrix
from repro.inference.smoothing import direct_preference_matrix, smooth_matrix
from repro.truth import discover_truth, discover_truth_em
from repro.types import Vote, VoteArrays, VoteSet

from tests.oracles import object_closure, object_pipeline

SIZES = (2, 3, 10, 50)
SEEDS = (0, 1, 2, 3, 4)


def _votes_for(n: int, seed: int) -> VoteSet:
    scenario = make_scenario(
        n, 0.6, n_workers=max(5, n // 2), workers_per_task=5, rng=seed
    )
    return collect_votes(scenario, rng=seed)


def _config(backend: str = "serial", mode: str = "expected") -> PipelineConfig:
    return PipelineConfig(
        saps=SAPSConfig(iterations=400, restarts=1, backend=backend),
        smoothing=SmoothingConfig(mode=mode),
        propagation=PropagationConfig(),
    )


def _assert_identical(columnar, obj):
    assert columnar.ranking.order == obj.ranking.order
    assert columnar.log_preference == obj.log_preference  # bit-identical
    assert columnar.worker_quality == obj.worker_quality
    assert columnar.direct_preferences == obj.direct_preferences
    assert columnar.metadata == obj.metadata


def _run_both(votes, config, seed):
    columnar = RankingPipeline(config).run(votes, rng=seed)
    return columnar, object_pipeline(votes, config, rng=seed)


class TestColumnarVsObjectPipeline:
    @pytest.mark.parametrize("n", SIZES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_results(self, n, seed):
        votes = _votes_for(n, seed)
        _assert_identical(*_run_both(votes, _config(), seed))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_sampled_mode_shares_the_rng_stream(self, seed):
        """Sampled smoothing draws from the generator; both paths must
        consume it in the same order for identical downstream results."""
        votes = _votes_for(10, seed)
        _assert_identical(*_run_both(votes, _config(mode="sampled"), seed))

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_every_backend(self, backend, hang_guard):
        """The Steps 1-3 representation and the execution backend are
        orthogonal."""
        votes = _votes_for(10, 1)
        _assert_identical(*_run_both(votes, _config(backend=backend), 1))

    @pytest.mark.parametrize("engine", ["crh", "em"])
    def test_both_truth_engines(self, engine):
        votes = _votes_for(10, 2)
        config = _config().with_(truth_engine=engine)
        _assert_identical(*_run_both(votes, config, 2))

    def test_exact_propagation_identical(self):
        """The exact-paths kernel must agree too (n below the auto
        threshold runs it; its accumulation order is weight-determined)."""
        votes = _votes_for(6, 3)
        config = _config().with_(
            propagation=PropagationConfig(method="exact")
        )
        _assert_identical(*_run_both(votes, config, 3))


class TestSmoothingAdjustmentsIdentical:
    @pytest.mark.parametrize("engine", ["crh", "em"])
    @pytest.mark.parametrize("mode", ["expected", "sampled"])
    @pytest.mark.parametrize("seed", SEEDS)
    def test_adjustments_dict_bit_identical(self, mode, seed, engine):
        """Steps 1-3 differential: same 1-edge count, same adjustments,
        same smoothed matrix and same closure, float for float."""
        votes = _votes_for(12, seed)
        config = PipelineConfig(smoothing=SmoothingConfig(mode=mode),
                                truth_engine=engine)
        discover = discover_truth_em if engine == "em" else discover_truth
        truth = discover(votes, config.truth)
        arrays = votes.arrays()

        obj = object_closure(votes, config, rng=seed)
        direct = direct_preference_matrix(arrays, truth.preference_vector)
        fast = smooth_matrix(
            direct, truth.preference_vector, arrays, truth.quality_vector,
            config.smoothing, rng=seed,
        )

        assert fast.n_one_edges == obj.smoothing.n_one_edges
        assert fast.adjustments == obj.smoothing.adjustments  # keys AND floats
        assert np.array_equal(fast.matrix, obj.smoothing.graph.weight_matrix())
        assert np.array_equal(
            propagate_matrix(fast.matrix, config.propagation), obj.closure
        )


class TestVoteArraysRoundTrip:
    def test_empty_vote_set(self):
        arrays = VoteSet.from_votes(4, []).arrays()
        assert arrays.n_votes == 0
        assert arrays.n_pairs == 0
        assert arrays.n_workers == 0
        assert arrays.pairs() == []
        assert arrays.workers() == []
        assert arrays.to_votes() == ()

    def test_single_vote(self):
        votes = VoteSet.from_votes(3, [Vote(worker=7, winner=2, loser=0)])
        arrays = votes.arrays()
        assert arrays.pairs() == [(0, 2)]
        assert arrays.workers() == [7]
        # Winner 2 is the *high* object of the canonical pair, so the
        # "low preferred" indicator is 0.
        assert arrays.value.tolist() == [0.0]
        assert arrays.to_votes() == tuple(votes.votes)

    def test_duplicate_pair_votes_keep_order(self):
        raw = [
            Vote(worker=0, winner=1, loser=0),
            Vote(worker=1, winner=0, loser=1),
            Vote(worker=0, winner=1, loser=0),
        ]
        votes = VoteSet.from_votes(2, raw)
        arrays = votes.arrays()
        assert arrays.n_pairs == 1
        assert arrays.n_votes == 3
        # Round trip preserves the original vote order exactly.
        assert arrays.to_votes() == tuple(raw)
        assert arrays.value.tolist() == [0.0, 1.0, 0.0]

    def test_round_trip_random_vote_set(self):
        votes = _votes_for(10, 0)
        arrays = votes.arrays()
        assert arrays.to_votes() == tuple(votes.votes)
        rebuilt = arrays.to_vote_set()
        assert rebuilt.n_objects == votes.n_objects
        assert rebuilt.votes == votes.votes

    def test_pair_table_sorted_and_canonical(self):
        votes = _votes_for(10, 1)
        arrays = votes.arrays()
        pairs = arrays.pairs()
        assert pairs == sorted(pairs)
        assert all(lo < hi for lo, hi in pairs)
        # Index maps agree with the tables.
        assert [arrays.pair_index()[p] for p in pairs] == list(
            range(arrays.n_pairs)
        )

    def test_value_encodes_low_preferred(self):
        votes = _votes_for(8, 2)
        arrays = votes.arrays()
        for k, vote in enumerate(votes.votes):
            lo, hi = min(vote.winner, vote.loser), max(vote.winner, vote.loser)
            assert arrays.pair_lo[arrays.pair_idx[k]] == lo
            assert arrays.pair_hi[arrays.pair_idx[k]] == hi
            assert arrays.value[k] == (1.0 if vote.winner == lo else 0.0)

    def test_arrays_cached_on_vote_set(self):
        votes = _votes_for(5, 0)
        assert votes.arrays() is votes.arrays()

    def test_cached_accessors_consistent_with_arrays(self):
        votes = _votes_for(8, 3)
        arrays = votes.arrays()
        assert votes.pairs() == arrays.pairs()
        assert votes.workers() == arrays.workers()
        assert votes.by_pair() is votes.by_pair()  # memoized

    def test_from_votes_direct(self):
        raw = (
            Vote(worker=3, winner=0, loser=1),
            Vote(worker=4, winner=2, loser=1),
        )
        arrays = VoteArrays.from_votes(3, raw)
        assert arrays.pairs() == [(0, 1), (1, 2)]
        assert arrays.workers() == [3, 4]
        assert arrays.n_objects == 3
