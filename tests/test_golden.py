"""Golden regression tests: seeded end-to-end outputs must stay stable.

These lock in concrete numeric behaviour under fixed seeds so that
accidental behaviour changes (a reordered RNG draw, a changed default)
surface as test failures rather than silent accuracy drift.  Tolerances
are tight but not exact — numpy minor versions may reorder float
reductions.

When a change *intentionally* alters results (e.g. a better default),
update the constants here and document the change in EXPERIMENTS.md.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import FAST_PIPELINE, rank_with_crowd
from repro.baselines import bradley_terry_mle, rank_centrality
from repro.client import RankingClient
from repro.config import PipelineConfig, PropagationConfig
from repro.datasets import make_scenario
from repro.experiments import run_pipeline_arm
from repro.experiments.runner import _BASELINES, collect_votes
from repro.inference.local_search import polish_ranking
from repro.inference.pipeline import RankingPipeline
from repro.inference.propagation import propagate_matrix
from repro.inference.smoothing import direct_preference_matrix, smooth_matrix
from repro.server import RankingServer, ServerConfig
from repro.service import RankingJob
from repro.service.jobs import config_to_payload
from repro.streaming import RankingSession, SessionConfig
from repro.topk import topk_exact, topk_ranking
from repro.truth import discover_truth
from repro.types import Ranking
from repro.workers import QualityLevel, WorkerPool, gaussian_preset


class TestGoldenEndToEnd:
    def test_medium_quality_accuracy_band(self):
        """n=50, r=0.3, Gaussian medium, seed 7: accuracy locked."""
        scenario = make_scenario(50, 0.3, n_workers=30, workers_per_task=5,
                                 rng=7)
        record = run_pipeline_arm(scenario, FAST_PIPELINE, rng=7)
        assert record.accuracy == pytest.approx(0.93, abs=0.04)

    def test_facade_deterministic_ranking_prefix(self):
        """The facade's full output is a deterministic function of the
        seed: the top of the ranking must not drift."""
        truth = Ranking.random(20, rng=123)
        pool = WorkerPool.from_distribution(
            15, gaussian_preset(QualityLevel.HIGH), rng=123
        )
        outcome = rank_with_crowd(truth, pool, selection_ratio=0.5,
                                  workers_per_task=5, config=FAST_PIPELINE,
                                  rng=123)
        again_pool = WorkerPool.from_distribution(
            15, gaussian_preset(QualityLevel.HIGH), rng=123
        )
        outcome_again = rank_with_crowd(truth, again_pool,
                                        selection_ratio=0.5,
                                        workers_per_task=5,
                                        config=FAST_PIPELINE, rng=123)
        assert outcome.ranking == outcome_again.ranking
        # High-quality crowd at r=0.5 recovers the truth's head.
        assert outcome.ranking.order[:3] == truth.order[:3]

    def test_truth_discovery_iteration_count_stable(self):
        """Seeded CRH iteration count is part of the behavioural
        contract (the convergence benchmark depends on it)."""
        scenario = make_scenario(30, 0.4, n_workers=20, workers_per_task=5,
                                 rng=99)
        votes = collect_votes(scenario, rng=99)
        result = discover_truth(votes)
        assert result.trace.converged
        assert result.iterations <= 20

    def test_vote_count_exact(self):
        """The plan arithmetic is exact: votes = round(r*C(n,2)) * w."""
        scenario = make_scenario(30, 0.4, n_workers=20, workers_per_task=5,
                                 rng=99)
        votes = collect_votes(scenario, rng=99)
        assert len(votes) == round(0.4 * 435) * 5

    def test_quality_estimates_monotone_with_sigma(self):
        """Across a seeded run, workers' estimated quality must be
        anti-correlated with their true sigma."""
        import numpy as np

        scenario = make_scenario(40, 0.5, n_workers=20, workers_per_task=6,
                                 quality="uniform", level=QualityLevel.LOW,
                                 rng=17)
        votes = collect_votes(scenario, rng=17)
        result = discover_truth(votes)
        sigmas = scenario.pool.sigmas()
        estimated = np.array([result.worker_quality[k]
                              for k in range(len(sigmas))])
        correlation = np.corrcoef(sigmas, estimated)[0, 1]
        assert correlation < -0.5


# -- library-level golden rankings -------------------------------------------
#
# Seeded vote sets run through every ranking entry point of the library;
# ``data/golden_rankings.json`` records the outputs.  Rankings must match
# exactly, floats (log preferences, closure weights, Rank Centrality
# scores) to 1e-9.  Regenerate with
#
#     PYTHONPATH=src python tests/test_golden.py --write
#
# only when a change is *meant* to alter rankings, and say why in
# CHANGES.md.

GOLDEN_RANKINGS = Path(__file__).parent / "data" / "golden_rankings.json"
FLOAT_TOLERANCE = 1e-9


def _votes(n, ratio, seed):
    scenario = make_scenario(n, ratio, n_workers=max(10, n // 2),
                             workers_per_task=5, rng=seed)
    return collect_votes(scenario, rng=seed)


def _smoothed(n, ratio, seed):
    """Steps 1-2 of the dense pipeline as a weight matrix."""
    votes = _votes(n, ratio, seed)
    truth = discover_truth(votes)
    arrays = votes.arrays()
    direct = direct_preference_matrix(arrays, truth.preference_vector)
    return smooth_matrix(direct, truth.preference_vector, arrays,
                         truth.quality_vector, rng=seed).matrix


def _closure(n, ratio, seed, method):
    return propagate_matrix(_smoothed(n, ratio, seed),
                            PropagationConfig(method=method))


def _pipeline(n, ratio, seed, config):
    result = RankingPipeline(config).run(_votes(n, ratio, seed), seed)
    return {"ranking": list(result.ranking.order),
            "log_preference": float(result.log_preference)}


def _baseline(name, n, ratio, seed):
    votes = _votes(n, ratio, seed)
    if name == "btl":
        ranking, _ = bradley_terry_mle(votes)
    else:
        ranking = _BASELINES[name](votes, np.random.default_rng(seed))
    return {"ranking": list(ranking.order)}


def _rank_centrality(n, ratio, seed):
    ranking, scores = rank_centrality(_votes(n, ratio, seed))
    return {"ranking": list(ranking.order), "scores": scores.tolist()}


def _propagation(n, ratio, seed, method):
    closure = _closure(n, ratio, seed, method)
    # The row-sum (Borda on the closure) order pins the matrix's shape;
    # the full matrix pins its values.
    order = np.argsort(-closure.sum(axis=1), kind="stable")
    return {"ranking": order.tolist(), "closure": closure.ravel().tolist()}


def _polish(n, ratio, seed):
    closure = _closure(n, ratio, seed, "walks")
    start = Ranking.random(n, rng=seed)
    ranking, log_pref = polish_ranking(closure, start)
    return {"ranking": list(ranking.order), "log_preference": log_pref}


def _topk_exact(n, ratio, seed, k):
    ranking, score = topk_exact(_closure(n, ratio, seed, "exact"), k)
    return {"ranking": list(ranking.order), "log_preference": score}


def _topk_pipeline(n, ratio, seed, k):
    ranking = topk_ranking(_votes(n, ratio, seed), k, FAST_PIPELINE, seed)
    return {"ranking": list(ranking.order)}


def _pipeline_cases():
    """``(n, ratio, seed, config)`` of each ``pipeline/*`` case."""
    exact = PipelineConfig(propagation=PropagationConfig(method="exact"))
    return {
        "pipeline/crh_saps/n20": (20, 0.3, 11, FAST_PIPELINE),
        "pipeline/crh_saps_default/n12": (12, 0.5, 12, PipelineConfig()),
        "pipeline/taps/n6": (6, 0.6, 13, exact.with_(search="taps")),
        "pipeline/branch_and_bound/n8": (
            8, 0.5, 14, exact.with_(search="branch_and_bound")),
        "pipeline/hodge/n40": (40, 0.2, 15, PipelineConfig(engine="hodge")),
        "pipeline/lsq/n40": (40, 0.2, 16, PipelineConfig(engine="lsq")),
    }


_PIPELINE_CASES = _pipeline_cases()

#: ``(n, ratio, seed, votes per ingest)`` of the seeded session case.
_SESSION_CASES = {"session/crh_saps/n20": (20, 0.3, 26, 60)}


def _session_config(seed):
    return SessionConfig(pipeline=FAST_PIPELINE, seed=seed,
                         early_stop=False)


def _session_chunks(n, ratio, seed, chunk):
    votes = _votes(n, ratio, seed).votes
    return [votes[start:start + chunk]
            for start in range(0, len(votes), chunk)]


def _session(n, ratio, seed, chunk):
    """Every ingest's ranking and log preference, and the session's
    ``recompute()`` as the case's own ranking."""
    session = RankingSession("golden", n, _session_config(seed))
    ingests = []
    for votes in _session_chunks(n, ratio, seed, chunk):
        report = session.ingest(votes)
        ingests.append({"ranking": list(report.ranking.order),
                        "log_preference": float(report.log_preference)})
    result = session.recompute()
    return {"ranking": list(result.ranking.order),
            "log_preference": float(result.log_preference),
            "ingests": ingests}


def _golden_cases():
    cases = {name: (lambda args=args: _pipeline(*args))
             for name, args in _PIPELINE_CASES.items()}
    cases.update({name: (lambda args=args: _session(*args))
                  for name, args in _SESSION_CASES.items()})
    cases.update({
        "baseline/rank_centrality/n40": lambda: _rank_centrality(
            40, 0.2, 17),
        "baseline/rank_centrality/n200": lambda: _rank_centrality(
            200, 0.02, 18),
        "baseline/btl/n20": lambda: _baseline("btl", 20, 0.3, 19),
        "propagation/exact/n9": lambda: _propagation(9, 0.4, 20, "exact"),
        "propagation/walks/n20": lambda: _propagation(20, 0.2, 21, "walks"),
        "polish/n20": lambda: _polish(20, 0.3, 22),
        "topk/exact/n8": lambda: _topk_exact(8, 0.5, 23, 3),
        "topk/pipeline/n20": lambda: _topk_pipeline(20, 0.3, 24, 5),
    })
    for name in sorted(_BASELINES):
        if name != "rank_centrality":
            cases[f"baseline/{name}/n20"] = (
                lambda name=name: _baseline(name, 20, 0.3, 25))
    return cases


_CASES = _golden_cases()


def _recorded():
    return json.loads(GOLDEN_RANKINGS.read_text())


class TestGoldenRankings:
    def test_every_case_is_recorded(self):
        assert sorted(_recorded()) == sorted(_CASES)

    @pytest.mark.parametrize("case", sorted(_CASES))
    def test_case_matches_recording(self, case):
        expected = _recorded()[case]
        actual = _CASES[case]()
        assert actual["ranking"] == expected["ranking"]
        for key in ("log_preference", "scores", "closure"):
            if key in expected:
                assert actual[key] == pytest.approx(
                    expected[key], rel=0.0, abs=FLOAT_TOLERANCE), key
        if "ingests" in expected:
            _assert_ingests_match(actual["ingests"], expected["ingests"])


def _assert_ingests_match(actual, expected):
    assert [step["ranking"] for step in actual] \
        == [step["ranking"] for step in expected]
    assert [step["log_preference"] for step in actual] == pytest.approx(
        [step["log_preference"] for step in expected],
        rel=0.0, abs=FLOAT_TOLERANCE)


def _job(case):
    n, ratio, seed, config = _PIPELINE_CASES[case]
    return RankingJob(job_id=case, votes=_votes(n, ratio, seed),
                      config=config, seed=seed)


def _assert_matches_recording(outcome):
    assert outcome.ok, outcome.error
    expected = _recorded()[outcome.job_id]
    assert list(outcome.result.ranking.order) == expected["ranking"]
    assert outcome.result.log_preference == pytest.approx(
        expected["log_preference"], rel=0.0, abs=FLOAT_TOLERANCE)


@pytest.fixture(scope="module")
def pool_server():
    """A server with its default process pool, whatever
    ``REPRO_BACKEND`` says: attempts, the request codec and session
    updates run there."""
    server = RankingServer(ServerConfig(port=0, workers=2, no_cache=True,
                                        backend="process"))
    server.start()
    yield server
    server.stop()


class TestGoldenThroughServer:
    """The ``pipeline/*`` recordings, reproduced by a live server."""

    @pytest.mark.parametrize("case", sorted(_PIPELINE_CASES))
    def test_rank_matches_recording(self, pool_server, case):
        outcome = RankingClient(pool_server.url).rank_job(_job(case))
        _assert_matches_recording(outcome)

    def test_batch_matches_recordings(self, pool_server):
        cases = sorted(_PIPELINE_CASES)
        outcomes = RankingClient(pool_server.url).batch(map(_job, cases))
        assert [outcome.job_id for outcome in outcomes] == cases
        for outcome in outcomes:
            _assert_matches_recording(outcome)

    @pytest.mark.parametrize("case", sorted(_SESSION_CASES))
    def test_session_matches_recording(self, pool_server, case):
        n, ratio, seed, chunk = _SESSION_CASES[case]
        client = RankingClient(pool_server.url)
        config = {"pipeline": config_to_payload(FAST_PIPELINE),
                  "seed": seed, "early_stop": False}
        session_id = client.create_session(n, config=config)["session_id"]
        pooled = pool_server.metrics.counter("server.session_update.pooled")
        views = [client.submit_votes(session_id, votes)
                 for votes in _session_chunks(n, ratio, seed, chunk)]
        _assert_ingests_match(views, _recorded()[case]["ingests"])
        assert pool_server.metrics.counter("server.session_update.pooled") \
            == pooled + len(views)


if __name__ == "__main__":
    import sys

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    recorded = {case: _CASES[case]() for case in sorted(_CASES)}
    GOLDEN_RANKINGS.write_text(json.dumps(recorded, indent=1) + "\n")
    print(f"wrote {len(recorded)} cases to {GOLDEN_RANKINGS}")
