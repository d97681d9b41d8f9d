"""Tests for live ranking sessions: differential bit-identity against
the batch pipeline, warm-started convergence, stability verdicts, and
the snapshot/restore codec."""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.config import PipelineConfig, PropagationConfig, SAPSConfig
from repro.datasets import make_scenario
from repro.exceptions import (
    ConfigurationError,
    DataFormatError,
    InferenceError,
    SessionStoppedError,
)
from repro.experiments.runner import collect_votes
from repro.inference.pipeline import RankingPipeline
from repro.metrics import normalized_kendall_tau_distance, ranking_accuracy
from repro.rng import ensure_rng
from repro.streaming import (
    SESSION_SCHEMA,
    RankingSession,
    SessionConfig,
    StabilityMonitor,
    session_config_from_payload,
    session_from_payload,
    session_to_payload,
    votes_from_payload,
)
from repro.streaming import session as session_module
from repro.types import Ranking, Vote, VoteSet

from tests.result_invariants import (
    assert_result_invariants,
    assert_view_invariants,
)


def _fast_pipeline(iterations=4000, restarts=1):
    return PipelineConfig(
        saps=SAPSConfig(iterations=iterations, restarts=restarts),
        propagation=PropagationConfig(max_hops=6, method="walks"),
    )


def _scenario_votes(n, ratio, seed, **kwargs):
    scenario = make_scenario(n, ratio, rng=seed, **kwargs)
    return scenario, list(collect_votes(scenario, rng=seed).votes)


def _e2e_workloads():
    """``benchmarks/e2e/workloads.py``, the e2e benchmark's own
    numpy-only vote generator, loaded by path."""
    name = "e2e_workloads"
    if name not in sys.modules:
        path = (Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"
                / "workloads.py")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
    return sys.modules[name]


class TestDifferential:
    """A session's non-warm recompute is the batch pipeline, bit for
    bit, no matter how the votes dripped in."""

    def test_one_at_a_time_recompute_is_bit_identical_to_batch(self):
        _, votes = _scenario_votes(12, 0.6, seed=3, n_workers=10)
        config = SessionConfig(pipeline=_fast_pipeline(), seed=11,
                               warm_iterations=500, early_stop=False)
        session = RankingSession("diff", 12, config)
        for vote in votes:  # one ingest (and one warm update) per vote
            session.ingest([vote])
        recomputed = session.recompute()
        batch = RankingPipeline(config.pipeline).run(
            VoteSet.from_votes(12, votes), ensure_rng(11)
        )
        assert list(recomputed.ranking.order) == list(batch.ranking.order)
        assert recomputed.log_preference == batch.log_preference
        assert recomputed.direct_preferences == batch.direct_preferences

    def test_chunked_ingest_same_recompute(self):
        """Chunking only changes the warm path; the frozen recompute is
        a pure function of the final vote pool."""
        _, votes = _scenario_votes(10, 0.7, seed=5, n_workers=8)
        config = SessionConfig(pipeline=_fast_pipeline(), seed=2,
                               warm_iterations=500, early_stop=False)
        by_ones = RankingSession("a", 10, config)
        for vote in votes:
            by_ones.ingest([vote])
        by_chunks = RankingSession("b", 10, config)
        for start in range(0, len(votes), 37):
            by_chunks.ingest(votes[start:start + 37])
        a, b = by_ones.recompute(), by_chunks.recompute()
        assert list(a.ranking.order) == list(b.ranking.order)
        assert a.log_preference == b.log_preference


class TestWarmConvergence:
    """The warm incremental path lands where the batch pipeline lands."""

    @pytest.mark.parametrize("seed", range(5))
    def test_small_universe_exact_match(self, seed):
        _, votes = _scenario_votes(10, 0.8, seed=seed, n_workers=20,
                                   workers_per_task=5, level="high")
        config = SessionConfig(pipeline=_fast_pipeline(), seed=seed,
                               warm_iterations=1500)
        session = RankingSession("warm", 10, config)
        chunk = max(1, len(votes) // 6)
        for start in range(0, len(votes), chunk):
            session.ingest(votes[start:start + chunk])
            assert_view_invariants(session.view())
        warm = list(session.ranking.order)
        recomputed = session.recompute()
        assert_result_invariants(recomputed, session.buffer.to_vote_set())
        assert warm == list(recomputed.ranking.order)

    @pytest.mark.parametrize("seed", range(5))
    def test_larger_universe_statistical_match(self, seed):
        """At n=50 the annealer's landscape has near-ties, so exact
        permutation equality is not a sound oracle; the warm path must
        instead land within a whisker of the batch optimum (Kendall
        distance) at equal accuracy against ground truth."""
        scenario, votes = _scenario_votes(
            50, 0.5, seed=seed, n_workers=30, workers_per_task=7,
            level="high",
        )
        config = SessionConfig(
            pipeline=_fast_pipeline(iterations=20000, restarts=2),
            seed=seed, warm_iterations=8000,
        )
        session = RankingSession("warm50", 50, config)
        for start in range(0, len(votes), 900):
            session.ingest(votes[start:start + 900])
        warm = session.ranking
        batch = session.recompute().ranking
        assert normalized_kendall_tau_distance(warm, batch) <= 0.03
        truth = scenario.ground_truth
        assert abs(ranking_accuracy(truth, warm)
                   - ranking_accuracy(truth, batch)) <= 0.02

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_final_ranking_within_tolerance_of_recompute(self, seed):
        """The e2e session shape (n=50, ratio 0.3, 30 workers, 100-vote
        ingests, default pipeline) ends within 0.05 Kendall accuracy of
        the batch answer on the same votes.  Annealing from the
        previous ranking at the full start temperature ended up to
        0.24 below it."""
        workloads = _e2e_workloads()
        generated = workloads.make_votes(np.random.default_rng(seed),
                                         50, 0.3, 30)
        votes = [Vote(*map(int, row)) for row in generated.votes]
        session = RankingSession("converge", 50, SessionConfig(
            seed=seed, early_stop=False))
        for start in range(0, len(votes), 100):
            session.ingest(votes[start:start + 100])
            assert_view_invariants(session.view())
        final = workloads.kendall_accuracy(generated.truth,
                                           session.ranking.order)
        batch = workloads.kendall_accuracy(
            generated.truth, session.recompute().ranking.order)
        assert final >= batch - 0.05

    def test_update_modes_and_counters(self):
        _, votes = _scenario_votes(12, 0.6, seed=3, n_workers=10)
        session = RankingSession("modes", 12, SessionConfig(
            pipeline=_fast_pipeline(), warm_iterations=500,
            early_stop=False))
        reports = [session.ingest(votes[i:i + 25])
                   for i in range(0, len(votes), 25)]
        assert reports[0].mode == "full"
        assert any(r.mode == "incremental" for r in reports[1:])
        assert session.updates_full >= 1
        assert (session.updates_full + session.updates_incremental
                == len(reports))
        assert session.votes_ingested == len(votes)


class TestStability:
    def test_monitor_lifecycle(self):
        monitor = StabilityMonitor(window=3, threshold=0.05)
        same = Ranking([0, 1, 2, 3])
        assert monitor.observe(same) is None  # first ranking: no delta
        assert monitor.score is None
        assert not monitor.is_stable
        monitor.observe(same)
        monitor.observe(same)
        assert not monitor.is_stable  # window not yet full
        monitor.observe(same)
        assert monitor.score == 0.0
        assert monitor.is_stable

    def test_monitor_resets_on_movement(self):
        monitor = StabilityMonitor(window=2, threshold=0.05)
        monitor.observe(Ranking([0, 1, 2, 3]))
        monitor.observe(Ranking([0, 1, 2, 3]))
        monitor.observe(Ranking([0, 1, 2, 3]))
        assert monitor.is_stable
        monitor.observe(Ranking([3, 2, 1, 0]))  # big swing
        assert not monitor.is_stable

    def test_monitor_state_roundtrip(self):
        monitor = StabilityMonitor(window=3, threshold=0.04)
        for order in ([0, 1, 2], [0, 2, 1], [0, 2, 1]):
            monitor.observe(Ranking(order))
        restored = StabilityMonitor.from_state(monitor.state())
        assert restored.score == monitor.score
        assert restored.is_stable == monitor.is_stable
        assert restored.observations == monitor.observations

    def test_session_early_stops_and_rejects(self):
        _, votes = _scenario_votes(10, 0.8, seed=1, n_workers=20,
                                   level="high")
        session = RankingSession("stop", 10, SessionConfig(
            pipeline=_fast_pipeline(), warm_iterations=1500,
            stability_window=3, stability_threshold=0.05, min_votes=40,
        ))
        for start in range(0, len(votes), 10):
            session.ingest(votes[start:start + 10])
            if session.stopped:
                break
        assert session.verdict == "stopped"
        assert session.votes_ingested >= 40  # min_votes floor held
        assert session.votes_ingested < len(votes)  # budget saved
        with pytest.raises(SessionStoppedError):
            session.ingest(votes[:1])

    def test_early_stop_off_keeps_collecting(self):
        _, votes = _scenario_votes(10, 0.8, seed=1, n_workers=20,
                                   level="high")
        session = RankingSession("nostop", 10, SessionConfig(
            pipeline=_fast_pipeline(), warm_iterations=1500,
            stability_window=3, stability_threshold=0.05,
            early_stop=False,
        ))
        for start in range(0, len(votes), 10):
            session.ingest(votes[start:start + 10])
        assert session.verdict in ("stable", "collecting")
        assert session.votes_ingested == len(votes)
        session.ingest(votes[:1])  # still accepts


class TestSnapshotCodec:
    def _session(self):
        _, votes = _scenario_votes(10, 0.6, seed=7, n_workers=8)
        session = RankingSession("snap", 10, SessionConfig(
            pipeline=_fast_pipeline(), seed=7, warm_iterations=500,
            stability_window=3, early_stop=False,
        ))
        for start in range(0, len(votes), 20):
            session.ingest(votes[start:start + 20])
        return session, votes

    def test_roundtrip_preserves_lifecycle(self):
        session, _ = self._session()
        payload = session_to_payload(session)
        assert payload["schema"] == SESSION_SCHEMA
        restored = session_from_payload(payload)
        assert restored.session_id == session.session_id
        assert restored.votes_ingested == session.votes_ingested
        assert restored.verdict == session.verdict
        assert (list(restored.ranking.order)
                == list(session.ranking.order))
        assert restored.buffer.votes() == session.buffer.votes()
        assert restored.view()["stability_score"] \
            == session.view()["stability_score"]

    def test_restored_session_resumes(self):
        session, votes = self._session()
        restored = session_from_payload(session_to_payload(session))
        report = restored.ingest(votes[:5])  # warm state was dropped
        assert report.mode == "full"
        assert restored.votes_ingested == session.votes_ingested + 5
        # ... and the recompute still agrees with the batch pipeline.
        recomputed = restored.recompute()
        batch = RankingPipeline(restored.config.pipeline).run(
            restored.buffer.to_vote_set(), ensure_rng(7)
        )
        assert list(recomputed.ranking.order) == list(batch.ranking.order)

    def test_stored_ranking_does_not_seed_the_next_ingest(self):
        """The stored ranking only feeds the view: a snapshot whose
        ranking is permuted shows it, then gives the same next ingest
        as the original snapshot."""
        session, votes = self._session()
        payload = json.loads(json.dumps(session_to_payload(session)))
        permuted = json.loads(json.dumps(payload))
        permuted["ranking"] = payload["ranking"][::-1]
        original = session_from_payload(payload)
        forged = session_from_payload(permuted)
        assert forged.view()["ranking"] == permuted["ranking"]
        original.ingest(votes[:5])
        forged.ingest(votes[:5])
        assert forged.view() == original.view()

    def test_bad_schema_rejected(self):
        with pytest.raises(DataFormatError):
            session_from_payload({"schema": "repro.result/1"})

    @pytest.mark.parametrize("forge", [
        lambda p: p["votes"].__setitem__(0, [0, 1.7, 2]),  # was truncated
        lambda p: p.__setitem__("n_objects", p["n_objects"] + 0.9),
        lambda p: p.__setitem__("stopped", "false"),       # was stopped
        lambda p: p["counters"].__setitem__("votes_ingested", -3),
        lambda p: p["counters"].__setitem__("updates_full", 2.5),
        lambda p: p.__setitem__("counters", [1, 2]),
        lambda p: p.__setitem__("ranking", p["ranking"][:-1]),  # short
        lambda p: p["ranking"].__setitem__(0, 10),         # out of range
        lambda p: p["ranking"].__setitem__(0, -1),         # negative
        lambda p: p["ranking"].__setitem__(0, float(p["ranking"][0])),
        lambda p: p["session_config"].__setitem__("seed", True),
        lambda p: p["session_config"].__setitem__("early_stop", "false"),
        lambda p: p["session_config"].__setitem__("stability_window", 2.7),
        lambda p: p.__setitem__("session_config", []),
    ], ids=[
        "float_vote_id", "float_n_objects", "stopped_string",
        "negative_counter", "float_counter", "counters_list",
        "short_ranking", "ranking_out_of_range", "negative_ranking_id",
        "float_ranking_id", "bool_seed", "early_stop_string",
        "float_stability_window", "session_config_list",
    ])
    def test_forged_fields_rejected_at_restore(self, forge):
        """Every snapshot field decodes with its exact JSON type; a
        forged one is a DataFormatError at restore, not a coerced value
        or an InferenceError on the next ingest."""
        session, _ = self._session()
        payload = json.loads(json.dumps(session_to_payload(session)))
        forge(payload)
        with pytest.raises(DataFormatError):
            session_from_payload(payload)


class TestPayloadCodecs:
    def test_votes_from_payload_triples_and_objects(self):
        votes = votes_from_payload(
            [[1, 0, 2], {"worker": 3, "winner": 2, "loser": 0}]
        )
        assert [(v.worker, v.winner, v.loser) for v in votes] \
            == [(1, 0, 2), (3, 2, 0)]

    @pytest.mark.parametrize("payload", [
        {"votes": []},            # not a list
        [[1, 0]],                 # short triple
        [{"worker": 1}],          # missing keys
        [[1, 0, "x"]],            # non-numeric
    ])
    def test_votes_from_payload_rejects(self, payload):
        with pytest.raises(DataFormatError):
            votes_from_payload(payload)

    @pytest.mark.parametrize("payload", [
        [[0, 1.7, 2]],                                    # was winner 1
        [["3", True, 0.2]],                               # was Vote(3, 1, 0)
        [{"worker": 1e0, "winner": "4", "loser": False}],  # was Vote(1, 4, 0)
        [[0, 2.0, 1]],                                    # integral float
        [[True, 0, 1]],                                   # bool worker
        [[0, 1, 2 ** 63]],                                # beyond int64
        [[1, 2, 2]],                                      # self-comparison
        [[0, 1, 2], [0, 1, None]],                        # later row bad
        ["abc"],                                          # unpacks to chars
    ])
    def test_votes_from_payload_never_truncates(self, payload):
        """Ids are JSON integers only: no ``int()`` coercion of floats,
        bools or numeric strings."""
        with pytest.raises(DataFormatError):
            votes_from_payload(payload)

    def test_votes_from_payload_int64_bounds(self):
        votes = votes_from_payload([[2 ** 63 - 1, 0, 1], [-(2 ** 63), 1, 0]])
        assert [v.worker for v in votes] == [2 ** 63 - 1, -(2 ** 63)]

    def test_session_config_defaults_and_overrides(self):
        assert session_config_from_payload(None) == SessionConfig()
        config = session_config_from_payload({
            "stability_window": 7, "early_stop": False,
            "pipeline": {"search": "saps"},
        })
        assert config.stability_window == 7
        assert not config.early_stop

    def test_session_config_unknown_key_rejected(self):
        with pytest.raises(DataFormatError):
            session_config_from_payload({"stability_windw": 3})


class TestEngineGuards:
    def test_requires_saps(self):
        from repro.streaming import IncrementalEngine

        with pytest.raises(InferenceError):
            IncrementalEngine(PipelineConfig(search="taps"))


def _state(session):
    """Everything an ingest may change, in comparable form."""
    return (json.dumps(session_to_payload(session), sort_keys=True),
            session._rng.bit_generator.state, session._engine,
            session.view(), session.buffer.snapshot().n_pairs)


class TestFailedIngest:
    """An ingest that raises leaves the session exactly as it was."""

    def _session(self):
        _, votes = _scenario_votes(8, 0.6, 9, n_workers=6)
        session = RankingSession("s", 8, SessionConfig(
            pipeline=_fast_pipeline(1000), seed=2, early_stop=False,
            warm_iterations=200))
        session.ingest(votes[:20])
        return session, votes

    def test_out_of_range_vote_buffers_none_of_the_batch(self):
        session, votes = self._session()
        before = _state(session)
        with pytest.raises(ConfigurationError):
            session.ingest([Vote(1, 0, 1), Vote(1, 2, 3), Vote(1, 0, 9)])
        assert _state(session) == before
        session.ingest([Vote(1, 0, 1)])
        assert session.votes_ingested == len(session.buffer) == 21

    def test_failed_update_rolls_back_votes_rng_and_engine(
            self, monkeypatch):
        session, votes = self._session()
        twin, _ = self._session()
        before = _state(session)

        def fail_midway(task):
            _, _, rng = task
            rng.random(100)
            raise InferenceError("update failed midway")

        monkeypatch.setattr(session_module, "update_engine", fail_midway)
        with pytest.raises(InferenceError):
            session.ingest(votes[20:40])
        assert _state(session) == before
        monkeypatch.undo()
        session.ingest(votes[20:40])
        twin.ingest(votes[20:40])
        assert session.view() == twin.view()
