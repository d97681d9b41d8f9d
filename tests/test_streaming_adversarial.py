"""Live ranking sessions fed by hostile crowds.

The streaming stack was regression-tested on honest votes; these tests
drive it with the adversarial generators instead: sessions must stay
numerically sane on spam and collusion, and the early-stop verdict must
not be reachable while a clique keeps the ranking churning.
"""

import pytest

from repro.config import PipelineConfig, PropagationConfig, SAPSConfig
from repro.streaming import VERDICTS, RankingSession, SessionConfig

from tests.result_invariants import assert_view_invariants

FAST = PipelineConfig(
    saps=SAPSConfig(iterations=400, restarts=1),
    propagation=PropagationConfig(max_hops=4, method="walks"),
)


def _chunks(votes, size):
    rows = list(votes.votes)
    return [rows[k:k + size] for k in range(0, len(rows), size)]


@pytest.mark.parametrize("family", ["spammer", "clique", "correlated"])
def test_session_survives_hostile_streams(family, hostile_vote_stream):
    """Every hostile family streams through a session to a sane state."""
    scenario, votes = hostile_vote_stream(family)
    session = RankingSession(
        f"hostile-{family}", scenario.n_objects,
        SessionConfig(pipeline=FAST, seed=9, early_stop=False),
    )
    for chunk in _chunks(votes, 25):
        report = session.ingest(chunk)
        assert sorted(report.ranking.order) == list(
            range(scenario.n_objects)
        )
        assert_view_invariants(session.view())
    assert session.verdict in VERDICTS
    assert session.votes_ingested == len(votes)


def test_suggestions_stay_canonical_under_spam(hostile_vote_stream):
    scenario, votes = hostile_vote_stream("spammer")
    session = RankingSession(
        "hostile-suggest", scenario.n_objects,
        SessionConfig(pipeline=FAST, seed=9, early_stop=False),
    )
    session.ingest(list(votes.votes))
    pairs = session.suggest(8)
    assert len(pairs) == 8
    for lo, hi in pairs:
        assert 0 <= lo < hi < scenario.n_objects


def test_clique_churn_defers_early_stop(hostile_vote_stream):
    """A hard-colluding clique keeps flipping contested pairs; a session
    with a tight stability window must still be collecting (not stopped)
    while that churn is live, yet must remain stoppable by policy —
    min_votes keeps degenerate early agreement from counting."""
    scenario, votes = hostile_vote_stream("inverted_clique")
    session = RankingSession(
        "hostile-stop", scenario.n_objects,
        SessionConfig(pipeline=FAST, seed=9, early_stop=True,
                      stability_window=3, stability_threshold=0.0,
                      min_votes=10 * len(votes)),
    )
    for chunk in _chunks(votes, 20):
        session.ingest(chunk)
    # The min_votes floor is far beyond the stream: stability can never
    # have been declared, so the session must still accept votes.
    assert not session.stopped
    assert session.verdict == "collecting"
    session.ingest(list(votes.votes)[:5])
    assert session.votes_ingested == len(votes) + 5
