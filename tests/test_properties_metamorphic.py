"""Metamorphic properties of the deterministic ranking engines.

Two relations that hold by construction, checked on seeded vote sets:

* **Relabelling equivariance.**  Renaming the objects by a permutation
  ``pi`` (every vote ``(w, a, b)`` becomes ``(w, pi[a], pi[b])``) renames
  the ranking the same way.
* **Vote-flip reversal.**  Swapping winner and loser in every vote
  reverses the ranking.

Both hold only when the engine's scores have no ties: Borda and
Copeland break exact ties by a seeded jitter drawn per object id, and
the sparse engines order equal scores by object id, so a tie is
resolved by the labels themselves.  Each property therefore assumes
its engine's scores are separated by more than :data:`MIN_GAP`.  The
vote sets are complete tournaments with an odd number of votes per
pair, so the comparison graph is connected (one score band; a
disconnected graph orders equal-sized components by an RNG draw per
component label) and every Copeland majority is decided.

Engines with no property here, and why:

* ``crh_saps`` and ``taps`` (the paper's Step 4 anneal), ``qs``
  (quicksort) and ``rc`` (RepeatChoice): each draws from its seeded RNG
  in an order fixed by object ids or positions (anneal moves, pivots,
  the worker shuffle), so one seed on relabelled votes takes another
  path;
* ``kemeny``: its local search starts from a jittered Borda order and
  sweeps positions, so among rankings with the same objective the
  labels decide;
* ``crowd_bt``: it queries a platform interactively instead of
  aggregating a given vote set;
* ``rank_centrality`` and ``btl``: iterative solvers stopped at a
  tolerance, so relabelling moves their scores by up to that tolerance
  and near-ties can swap; a flip does not reverse a Rank Centrality
  walk's stationary distribution by construction either.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.baselines import borda_count, copeland_ranking
from repro.inference.engines import graph_lsq_rank, hodge_rank
from repro.types import Vote, VoteSet

#: Smallest score gap a property trusts; the sparse solvers agree with
#: each other to about their tolerance (1e-8), far below this.
MIN_GAP = 1e-6


@st.composite
def seeded_votes(draw):
    """A complete tournament over 4-8 objects built from a drawn seed:
    each pair gets 1, 3 or 5 votes from 3 workers, and each vote follows
    a hidden order with a drawn probability."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(4, 8))
    agreement = draw(st.floats(0.7, 1.0))
    rng = np.random.default_rng(seed)
    strength = rng.permutation(n)
    votes = []
    for i in range(n):
        for j in range(i + 1, n):
            better, worse = (i, j) if strength[i] > strength[j] else (j, i)
            for _ in range(int(rng.choice([1, 3, 5]))):
                worker = int(rng.integers(3))
                if rng.random() < agreement:
                    votes.append(Vote(worker, better, worse))
                else:
                    votes.append(Vote(worker, worse, better))
    return VoteSet.from_votes(n, votes)


def _relabel(votes: VoteSet, perm) -> VoteSet:
    return VoteSet.from_votes(votes.n_objects, [
        Vote(v.worker, int(perm[v.winner]), int(perm[v.loser]))
        for v in votes
    ])


def _flip(votes: VoteSet) -> VoteSet:
    return VoteSet.from_votes(votes.n_objects, [
        Vote(v.worker, v.loser, v.winner) for v in votes
    ])


def _borda_scores(votes: VoteSet) -> np.ndarray:
    wins = np.zeros(votes.n_objects)
    seen = np.zeros(votes.n_objects)
    for v in votes:
        wins[v.winner] += 1
        seen[v.winner] += 1
        seen[v.loser] += 1
    return wins / seen


def _copeland_scores(votes: VoteSet) -> np.ndarray:
    margin = np.zeros((votes.n_objects, votes.n_objects))
    for v in votes:
        margin[v.winner, v.loser] += 1
        margin[v.loser, v.winner] -= 1
    return np.sign(margin).sum(axis=1)


def _borda(votes):
    return borda_count(votes, rng=0), _borda_scores(votes)


def _copeland(votes):
    return copeland_ranking(votes, rng=0), _copeland_scores(votes)


#: engine name -> votes -> (ranking, per-object scores).
ENGINES = {"hodge": hodge_rank, "lsq": graph_lsq_rank, "borda": _borda,
           "copeland": _copeland}


def _tie_free(scores: np.ndarray) -> bool:
    return bool(np.min(np.diff(np.sort(scores))) > MIN_GAP)


def _run_tie_free(engine: str, votes: VoteSet):
    ranking, scores = ENGINES[engine](votes)
    assume(_tie_free(scores))
    return list(ranking.order)


@st.composite
def votes_and_relabelling(draw):
    votes = draw(seeded_votes())
    perm = draw(st.permutations(range(votes.n_objects)))
    return votes, perm


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestRelabellingPermutesTheRanking:
    @given(case=votes_and_relabelling())
    @settings(max_examples=40, deadline=None)
    def test_relabelled_votes_give_the_relabelled_ranking(self, engine,
                                                          case):
        votes, perm = case
        order = _run_tie_free(engine, votes)
        relabelled, _ = ENGINES[engine](_relabel(votes, perm))
        assert list(relabelled.order) == [perm[o] for o in order]


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestFlippingEveryVoteReversesTheRanking:
    @given(votes=seeded_votes())
    @settings(max_examples=40, deadline=None)
    def test_flipped_votes_give_the_reversed_ranking(self, engine, votes):
        order = _run_tie_free(engine, votes)
        flipped, _ = ENGINES[engine](_flip(votes))
        assert list(flipped.order) == order[::-1]
