"""Tests for the sparse inference engines (HodgeRank / graph LSQ).

Covers the PR's acceptance surface:

* differential suite — ``hodge`` / ``lsq`` against the dense CRH+SAPS
  path at n in {2, 3, 10, 50} across 5 seeds (one-sided Kendall-tau
  tolerance: an engine may beat the dense path, never trail it by more
  than 0.05), exact recovery on noise-free votes;
* property tests for the shared sparse-incidence assembly (shape and
  weight contracts, gradient action, vote-order invariance, per-arrays
  memoization);
* disconnected comparison graphs — typed warning, metadata, seeded
  deterministic cross-component anchoring;
* the sparse Rank Centrality path against its dense oracle;
* config plumbing — ``SparseEngineConfig`` validation and the service
  codec round-trip for ``engine`` / ``sparse``.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import sparse

from repro.baselines import rank_centrality
from repro.config import (
    LARGE_N_PIPELINE,
    PipelineConfig,
    PropagationConfig,
    SAPSConfig,
    SparseEngineConfig,
)
from repro.exceptions import (
    ConfigurationError,
    DataFormatError,
    DegenerateGraphWarning,
    InferenceError,
)
from repro.inference import (
    RankingPipeline,
    build_incidence,
    graph_lsq_rank,
    hodge_rank,
    quality_edge_weights,
    solve_sparse_engine,
)
from repro.metrics import normalized_kendall_tau_distance
from repro.service.jobs import config_from_payload
from repro.types import Ranking, Vote, VoteSet
from tests.oracles import dense_rank_centrality
from tests.result_invariants import assert_result_invariants

ENGINES = ("hodge", "lsq")
SIZES = (2, 3, 10, 50)
SEEDS = tuple(range(5))

#: Reduced dense config so the differential suite stays fast; the SAPS
#: anneal under this budget is *noisier* than the engines, which is why
#: the tau comparison below is one-sided.
FAST_DENSE = PipelineConfig(
    saps=SAPSConfig(iterations=2000, restarts=1),
    propagation=PropagationConfig(max_hops=6, method="walks"),
)


def noisy_votes(n, seed, *, n_workers=8, accuracy=0.9, reps=5):
    """All-pairs votes from workers of fixed accuracy; truth = identity."""
    rng = np.random.default_rng(seed)
    votes = []
    for i in range(n):
        for j in range(i + 1, n):
            for _ in range(reps):
                worker = int(rng.integers(n_workers))
                if rng.random() < accuracy:
                    votes.append(Vote(worker=worker, winner=i, loser=j))
                else:
                    votes.append(Vote(worker=worker, winner=j, loser=i))
    return VoteSet.from_votes(n, votes)


def clean_votes(n, *, n_workers=3):
    """Unanimous all-pairs votes; every sane aggregator must be exact."""
    votes = [
        Vote(worker=w, winner=i, loser=j)
        for i in range(n)
        for j in range(i + 1, n)
        for w in range(n_workers)
    ]
    return VoteSet.from_votes(n, votes)


def split_votes():
    """Two comparison-graph components: {0, 1} and {2, 3}."""
    votes = [
        Vote(worker=0, winner=0, loser=1),
        Vote(worker=1, winner=0, loser=1),
        Vote(worker=0, winner=2, loser=3),
        Vote(worker=1, winner=2, loser=3),
    ]
    return VoteSet.from_votes(4, votes)


class TestDifferentialVsDense:
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n", SIZES)
    def test_tau_never_worse_than_dense(self, engine, n):
        truth = Ranking(range(n))
        for seed in SEEDS:
            votes = noisy_votes(n, seed)
            dense_result = RankingPipeline(FAST_DENSE).run(
                votes, np.random.default_rng(1000 + seed)
            )
            sparse_result = RankingPipeline(
                FAST_DENSE.with_(engine=engine)
            ).run(votes, np.random.default_rng(1000 + seed))
            assert_result_invariants(dense_result, votes, "crh_saps")
            assert_result_invariants(sparse_result, votes, engine)
            dense, sparse_r = dense_result.ranking, sparse_result.ranking
            tau_dense = normalized_kendall_tau_distance(dense, truth)
            tau_engine = normalized_kendall_tau_distance(sparse_r, truth)
            assert tau_engine <= tau_dense + 0.05, (
                f"n={n} seed={seed}: {engine} tau {tau_engine:.4f} vs "
                f"dense {tau_dense:.4f}"
            )

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n", SIZES)
    def test_exact_on_noise_free_votes(self, engine, n):
        votes = clean_votes(n)
        result = RankingPipeline(FAST_DENSE.with_(engine=engine)).run(
            votes, np.random.default_rng(0)
        )
        assert list(result.ranking.order) == list(range(n))
        assert_result_invariants(result, votes, engine)

    @pytest.mark.parametrize("n", SIZES)
    def test_dense_exact_on_noise_free_votes(self, n):
        # The oracle itself must be exact too, or the differential
        # comparison above proves nothing.  The anneal needs a bigger
        # budget than FAST_DENSE to be exact at n=50 — which is exactly
        # why the tau comparison above is one-sided.
        oracle = FAST_DENSE.with_(
            saps=SAPSConfig(iterations=20_000, restarts=2)
        )
        result = RankingPipeline(oracle).run(
            clean_votes(n), np.random.default_rng(0)
        )
        assert list(result.ranking.order) == list(range(n))


class TestEngineReport:
    def test_wrappers_agree_with_pipeline_seam(self):
        votes = noisy_votes(12, 7)
        for engine, wrapper in (("hodge", hodge_rank), ("lsq", graph_lsq_rank)):
            via_pipeline = RankingPipeline(
                PipelineConfig(engine=engine)
            ).run(votes, np.random.default_rng(3)).ranking
            direct, scores = wrapper(votes, rng=np.random.default_rng(3))
            assert list(direct.order) == list(via_pipeline.order)
            assert scores.shape == (12,)
            # Scores are the ranking: descending along the order.
            ordered = scores[np.asarray(direct.order)]
            assert np.all(np.diff(ordered) <= 1e-12)

    def test_metadata_and_step_seconds(self):
        votes = noisy_votes(10, 1)
        report = solve_sparse_engine(
            votes, PipelineConfig(engine="hodge"), rng=0
        )
        assert report.metadata["engine"] == "hodge"
        assert report.metadata["solver"] == "lsqr"
        assert report.metadata["n_components"] == 1
        assert report.metadata["n_edges"] == votes.arrays().n_pairs
        assert set(report.step_seconds) == {
            "truth_discovery", "solve", "ranking",
        }
        assert report.worker_quality  # hodge runs Step 1
        lsq = solve_sparse_engine(votes, PipelineConfig(engine="lsq"), rng=0)
        assert lsq.worker_quality == {}  # lsq has no worker model

    def test_hodge_downweights_spammer(self):
        # Worker 2 answers every pair inverted; quality weighting must
        # keep the hodge ranking on the honest majority's side.
        n = 8
        votes = []
        for i in range(n):
            for j in range(i + 1, n):
                votes.append(Vote(worker=0, winner=i, loser=j))
                votes.append(Vote(worker=1, winner=i, loser=j))
                votes.append(Vote(worker=2, winner=j, loser=i))
        ranking, _ = hodge_rank(VoteSet.from_votes(n, votes), rng=0)
        assert list(ranking.order) == list(range(n))

    def test_rejects_dense_engine_and_degenerate_inputs(self):
        votes = noisy_votes(4, 0)
        with pytest.raises(InferenceError):
            solve_sparse_engine(votes, PipelineConfig(engine="crh_saps"))
        with pytest.raises(InferenceError):
            solve_sparse_engine(VoteSet.from_votes(4, []),
                                PipelineConfig(engine="lsq"))


class TestIncidenceProperties:
    def test_shape_and_weight_contracts(self):
        votes = noisy_votes(9, 3)
        arrays = votes.arrays()
        inc = build_incidence(arrays)
        assert inc.n_objects == 9
        assert inc.incidence.shape == (inc.n_edges, 9)
        assert inc.edge_lo.shape == inc.edge_hi.shape == (inc.n_edges,)
        assert np.all(inc.edge_lo < inc.edge_hi)
        assert np.all(inc.counts >= 1)
        assert np.all(inc.value_sum >= 0)
        assert np.all(inc.value_sum <= inc.counts)
        assert inc.counts.sum() == arrays.n_votes
        mean = inc.mean_value()
        assert np.all((mean >= 0) & (mean <= 1))

    def test_gradient_action(self):
        votes = noisy_votes(11, 4)
        inc = build_incidence(votes.arrays())
        dense = inc.incidence.toarray()
        # Each row: +1 at lo, -1 at hi, zero elsewhere (rows sum to 0).
        assert np.all(dense.sum(axis=1) == 0)
        rows = np.arange(inc.n_edges)
        assert np.all(dense[rows, inc.edge_lo] == 1.0)
        assert np.all(dense[rows, inc.edge_hi] == -1.0)
        assert np.count_nonzero(dense) == 2 * inc.n_edges
        s = np.random.default_rng(5).normal(size=11)
        np.testing.assert_allclose(
            inc.incidence @ s, s[inc.edge_lo] - s[inc.edge_hi]
        )

    def test_vote_order_invariance(self):
        rng = np.random.default_rng(8)
        n = 7
        base = [
            Vote(worker=int(rng.integers(4)),
                 winner=int(a), loser=int(b))
            for a, b in rng.integers(0, n, size=(60, 2)) if a != b
        ]
        shuffled = list(base)
        rng.shuffle(shuffled)
        inc_a = build_incidence(VoteSet.from_votes(n, base).arrays())
        inc_b = build_incidence(VoteSet.from_votes(n, shuffled).arrays())
        np.testing.assert_array_equal(inc_a.edge_lo, inc_b.edge_lo)
        np.testing.assert_array_equal(inc_a.edge_hi, inc_b.edge_hi)
        np.testing.assert_array_equal(inc_a.counts, inc_b.counts)
        np.testing.assert_array_equal(inc_a.value_sum, inc_b.value_sum)
        assert (inc_a.incidence != inc_b.incidence).nnz == 0

    def test_memoized_on_arrays_object(self):
        votes = noisy_votes(6, 2)
        arrays = votes.arrays()
        assert build_incidence(arrays) is build_incidence(arrays)
        # ... and the VoteSet.arrays() cache makes the memo shared too.
        assert build_incidence(votes.arrays()) is build_incidence(arrays)

    def test_memo_does_not_leak_into_pickles(self):
        import pickle

        votes = noisy_votes(6, 2)
        arrays = votes.arrays()
        bare = len(pickle.dumps(arrays))
        build_incidence(arrays)
        assert len(pickle.dumps(arrays)) == bare
        restored = pickle.loads(pickle.dumps(arrays))
        np.testing.assert_array_equal(restored.winner, arrays.winner)

    def test_quality_edge_weights(self):
        votes = noisy_votes(6, 9)
        arrays = votes.arrays()
        ones = quality_edge_weights(arrays, np.ones(arrays.n_workers))
        inc = build_incidence(arrays)
        np.testing.assert_allclose(ones, inc.counts)
        with pytest.raises(InferenceError):
            quality_edge_weights(arrays, np.ones(arrays.n_workers + 1))

    def test_empty_votes_raise(self):
        with pytest.raises(InferenceError):
            build_incidence(VoteSet.from_votes(3, []).arrays())


class TestDisconnectedGraphs:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_warns_and_records_metadata(self, engine):
        votes = split_votes()
        with pytest.warns(DegenerateGraphWarning):
            result = RankingPipeline(PipelineConfig(engine=engine)).run(
                votes, np.random.default_rng(0)
            )
        assert result.metadata["n_components"] == 2
        assert any("connected components" in w
                   for w in result.metadata["engine_warnings"])
        assert_result_invariants(result, votes, engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_within_component_order_preserved(self, engine):
        votes = split_votes()
        with pytest.warns(DegenerateGraphWarning):
            report = solve_sparse_engine(
                votes, PipelineConfig(engine=engine), rng=0
            )
        order = list(report.ranking.order)
        assert order.index(0) < order.index(1)  # 0 beat 1
        assert order.index(2) < order.index(3)  # 2 beat 3
        # Components occupy disjoint score bands: the two blocks are
        # contiguous in the ranking, never interleaved.
        assert {tuple(order[:2]), tuple(order[2:])} == {(0, 1), (2, 3)}

    def test_seeded_tie_break_is_deterministic(self):
        votes = split_votes()
        runs = []
        for _ in range(3):
            with pytest.warns(DegenerateGraphWarning):
                report = solve_sparse_engine(
                    votes, PipelineConfig(engine="lsq"), rng=42
                )
            runs.append(list(report.ranking.order))
        assert runs[0] == runs[1] == runs[2]

    def test_larger_component_ranks_first(self):
        # {0,1,2} fully ordered vs singleton pair {3,4}: the larger
        # component must occupy the top band regardless of seed.
        votes = VoteSet.from_votes(5, [
            Vote(worker=0, winner=0, loser=1),
            Vote(worker=0, winner=1, loser=2),
            Vote(worker=0, winner=0, loser=2),
            Vote(worker=0, winner=3, loser=4),
        ])
        for seed in range(5):
            with pytest.warns(DegenerateGraphWarning):
                report = solve_sparse_engine(
                    votes, PipelineConfig(engine="lsq"), rng=seed
                )
            assert list(report.ranking.order)[:3] == [0, 1, 2]

    def test_connected_graph_consumes_no_randomness(self):
        votes = noisy_votes(8, 0)
        rng = np.random.default_rng(7)
        solve_sparse_engine(votes, PipelineConfig(engine="lsq"), rng=rng)
        untouched = np.random.default_rng(7)
        assert rng.random() == untouched.random()


class TestSparseRankCentrality:
    @pytest.mark.parametrize("n,seed", [(8, 0), (40, 1), (150, 2)])
    def test_sparse_matches_dense_oracle(self, n, seed):
        votes = noisy_votes(n, seed, reps=2)
        rank_d, scores_d = dense_rank_centrality(votes)
        rank_s, scores_s = rank_centrality(votes)
        assert list(rank_d.order) == list(rank_s.order)
        np.testing.assert_allclose(scores_s, scores_d, atol=1e-10)


class TestConfigPlumbing:
    def test_engine_validation(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig(engine="spectral")
        assert LARGE_N_PIPELINE.engine == "hodge"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol": 0.0},
            {"tol": 1.0},
            {"tol": 2.0},
            {"tol": float("nan")},
            {"max_solver_iterations": 0},
            {"max_solver_iterations": -1},
        ],
    )
    def test_sparse_config_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            SparseEngineConfig(**kwargs)

    def test_codec_round_trip(self):
        config = config_from_payload({
            "engine": "hodge",
            "sparse": {"tol": 1e-6},
        })
        assert config.engine == "hodge"
        assert config.sparse.tol == 1e-6
        # Defaults survive partial payloads.
        assert config.sparse.max_solver_iterations == 2000

    def test_codec_rejects_bad_engine_and_fields(self):
        with pytest.raises(DataFormatError):
            config_from_payload({"engine": "spectral"})
        with pytest.raises(DataFormatError):
            config_from_payload({"sparse": {"solver": "gauss"}})
        with pytest.raises(DataFormatError):
            config_from_payload({"sparse": {"unknown_knob": 1}})


class TestLargeN:
    def test_sparse_engines_handle_n_1000_quickly(self):
        # A sparse random comparison graph at n=1000 — far beyond what
        # the dense path can touch in test time.  ~3 votes per object
        # on a ring + random chords keeps the graph connected.
        import time

        n = 1000
        rng = np.random.default_rng(0)
        votes = []
        for i in range(n):
            j = (i + 1) % n
            lo, hi = min(i, j), max(i, j)
            votes.append(Vote(worker=int(rng.integers(5)),
                              winner=lo, loser=hi))
        for a, b in rng.integers(0, n, size=(2 * n, 2)):
            if a == b:
                continue
            votes.append(Vote(worker=int(rng.integers(5)),
                              winner=int(min(a, b)), loser=int(max(a, b))))
        vote_set = VoteSet.from_votes(n, votes)
        for engine in ENGINES:
            start = time.perf_counter()
            report = solve_sparse_engine(
                vote_set, PipelineConfig(engine=engine), rng=0
            )
            elapsed = time.perf_counter() - start
            assert report.metadata["n_components"] == 1
            assert len(report.ranking.order) == n
            assert elapsed < 30.0

    def test_no_dense_matrix_materialised(self):
        inc = build_incidence(noisy_votes(60, 0, reps=1).arrays())
        assert sparse.issparse(inc.incidence)
        assert inc.incidence.nnz == 2 * inc.n_edges
