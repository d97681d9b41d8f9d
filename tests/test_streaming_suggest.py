"""Tests for :meth:`repro.streaming.RankingSession.suggest` and the
``scorer`` knob of :class:`~repro.streaming.SessionConfig`."""

import pytest

from repro.config import FAST_PIPELINE
from repro.datasets import make_scenario
from repro.exceptions import ConfigurationError
from repro.experiments.runner import collect_votes
from repro.streaming import (
    RankingSession,
    SessionConfig,
    session_from_payload,
    session_to_payload,
)

def fast_config(**overrides):
    defaults = dict(pipeline=FAST_PIPELINE, seed=11, warm_iterations=300,
                    early_stop=False)
    defaults.update(overrides)
    return SessionConfig(**defaults)


@pytest.fixture(scope="module")
def votes():
    scenario = make_scenario(10, 0.6, n_workers=8, rng=5)
    return list(collect_votes(scenario, rng=5).votes)


class TestSuggest:
    def test_fresh_session_suggests_canonical_pairs(self):
        session = RankingSession("s", 10, fast_config())
        pairs = session.suggest(4)
        assert len(pairs) == 4
        for lo, hi in pairs:
            assert 0 <= lo < hi < 10

    def test_deterministic_for_fixed_state(self, votes):
        session = RankingSession("s", 10, fast_config())
        session.ingest(votes[:120])
        assert session.suggest(6) == session.suggest(6)

    def test_suggestions_shift_with_evidence(self, votes):
        session = RankingSession("s", 10, fast_config())
        before = session.suggest(8)
        session.ingest(votes[:150])
        after = session.suggest(8)
        assert before != after

    def test_scorer_knob_changes_the_batch(self, votes):
        batches = {}
        for scorer in ("bdp", "random"):
            session = RankingSession(
                f"s-{scorer}", 10, fast_config(scorer=scorer)
            )
            session.ingest(votes[:120])
            batches[scorer] = session.suggest(8)
        assert batches["bdp"] != batches["random"]

    def test_suggest_reads_the_updates_closure(self, votes, monkeypatch):
        """suggest conditions on the Step 3 closure the last update
        computed; it runs no propagation of its own."""
        from repro.inference import propagation
        from repro.streaming import incremental

        session = RankingSession("s", 10, fast_config())
        session.ingest(votes[:120])
        expected = session.suggest(6)

        def no_step_three(*args, **kwargs):
            raise AssertionError("suggest ran Step 3")

        monkeypatch.setattr(propagation, "propagate_matrix", no_step_three)
        monkeypatch.setattr(incremental, "propagate_matrix", no_step_three)
        assert session.suggest(6) == expected

    def test_k_validated(self):
        session = RankingSession("s", 10, fast_config())
        with pytest.raises(ConfigurationError):
            session.suggest(0)
        with pytest.raises(ConfigurationError):
            session.suggest(-3)

    def test_unknown_scorer_rejected_at_config_time(self):
        with pytest.raises(ConfigurationError):
            fast_config(scorer="simulated-annealing")


class TestScorerCodec:
    def test_scorer_round_trips_through_payload(self, votes):
        session = RankingSession("s", 10,
                                 fast_config(scorer="uncertainty"))
        session.ingest(votes[:80])
        payload = session_to_payload(session)
        assert payload["session_config"]["scorer"] == "uncertainty"
        restored = session_from_payload(payload)
        assert restored.config.scorer == "uncertainty"

    def test_default_scorer_is_bdp(self):
        assert SessionConfig().scorer == "bdp"

    def test_restored_session_suggests_after_reingest(self, votes):
        session = RankingSession("s", 10, fast_config())
        session.ingest(votes[:80])
        restored = session_from_payload(session_to_payload(session))
        pairs = restored.suggest(5)
        assert len(pairs) == 5
