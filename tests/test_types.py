"""Unit tests for repro.types."""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.types import (
    HIT,
    PairValues,
    Ranking,
    Vote,
    VoteSet,
    canonical_pair,
)


class TestCanonicalPair:
    def test_orders_ascending(self):
        assert canonical_pair(5, 2) == (2, 5)
        assert canonical_pair(2, 5) == (2, 5)

    def test_rejects_self_pair(self):
        with pytest.raises(ConfigurationError):
            canonical_pair(3, 3)


class TestVote:
    def test_pair_is_canonical(self):
        assert Vote(worker=0, winner=7, loser=2).pair == (2, 7)

    def test_value_for_winner_first(self):
        vote = Vote(worker=0, winner=1, loser=4)
        assert vote.value_for(1, 4) == 1.0
        assert vote.value_for(4, 1) == 0.0

    def test_value_for_wrong_pair_raises(self):
        vote = Vote(worker=0, winner=1, loser=4)
        with pytest.raises(ConfigurationError):
            vote.value_for(1, 5)

    def test_self_vote_rejected(self):
        with pytest.raises(ConfigurationError):
            Vote(worker=0, winner=2, loser=2)

    def test_votes_are_hashable_and_frozen(self):
        vote = Vote(worker=0, winner=1, loser=2)
        assert vote in {vote}
        with pytest.raises(AttributeError):
            vote.winner = 5  # type: ignore[misc]


class TestHIT:
    def test_len_and_iter(self):
        hit = HIT(hit_id=0, pairs=((0, 1), (2, 3)))
        assert len(hit) == 2
        assert list(hit) == [(0, 1), (2, 3)]

    def test_empty_hit_rejected(self):
        with pytest.raises(ConfigurationError):
            HIT(hit_id=0, pairs=())

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ConfigurationError):
            HIT(hit_id=0, pairs=((1, 1),))

    def test_non_canonical_pair_rejected(self):
        with pytest.raises(ConfigurationError):
            HIT(hit_id=0, pairs=((3, 1),))


class TestRanking:
    def test_position_and_prefers(self):
        ranking = Ranking([2, 0, 1])
        assert ranking.position(2) == 0
        assert ranking.position(1) == 2
        assert ranking.prefers(2, 1)
        assert not ranking.prefers(1, 0)

    def test_duplicate_rejected(self):
        with pytest.raises(ConfigurationError):
            Ranking([0, 1, 1])

    def test_unknown_object_raises(self):
        with pytest.raises(ConfigurationError):
            Ranking([0, 1]).position(9)

    def test_equality_with_sequences(self):
        assert Ranking([1, 0]) == (1, 0)
        assert Ranking([1, 0]) == [1, 0]
        assert Ranking([1, 0]) != Ranking([0, 1])

    def test_hashable(self):
        assert len({Ranking([0, 1]), Ranking([0, 1]), Ranking([1, 0])}) == 2

    def test_pairs_enumerates_ordered_pairs(self):
        assert list(Ranking([2, 0, 1]).pairs()) == [(2, 0), (2, 1), (0, 1)]

    def test_reversed(self):
        assert Ranking([0, 1, 2]).reversed() == Ranking([2, 1, 0])

    def test_restricted_to_preserves_order(self):
        ranking = Ranking([4, 2, 0, 3, 1])
        assert ranking.restricted_to({0, 1, 4}) == Ranking([4, 0, 1])

    def test_identity(self):
        assert Ranking.identity(3) == Ranking([0, 1, 2])

    def test_random_is_permutation(self):
        ranking = Ranking.random(10, rng=0)
        assert sorted(ranking.order) == list(range(10))

    def test_contains(self):
        ranking = Ranking([0, 2, 1])
        assert 2 in ranking
        assert 5 not in ranking

    def test_repr_small_and_large(self):
        assert "Ranking(" in repr(Ranking([0, 1]))
        assert "n=20" in repr(Ranking.identity(20))


class TestVoteSet:
    def test_grouping_by_pair(self, tiny_votes):
        by_pair = tiny_votes.by_pair()
        assert set(by_pair) == {(0, 1), (1, 2), (2, 3), (0, 3)}
        assert len(by_pair[(0, 1)]) == 3

    def test_grouping_by_worker(self, tiny_votes):
        by_worker = tiny_votes.by_worker()
        assert set(by_worker) == {0, 1, 2}
        assert all(len(v) == 4 for v in by_worker.values())

    def test_workers_and_pairs_sorted(self, tiny_votes):
        assert tiny_votes.workers() == [0, 1, 2]
        assert tiny_votes.pairs() == [(0, 1), (0, 3), (1, 2), (2, 3)]

    def test_len_and_iter(self, tiny_votes):
        assert len(tiny_votes) == 12
        assert sum(1 for _ in tiny_votes) == 12

    def test_columns_and_fields_are_immutable(self, tiny_votes):
        """The derived-view memos are sound only because nothing can
        change the votes: writes to a column fail at the source, and so
        does reassigning a field.  Incremental accumulation belongs in
        :class:`repro.streaming.VoteBuffer`."""
        tiny_votes.arrays()  # build the memo table
        for name in ("worker", "winner", "loser"):
            with pytest.raises(ValueError):
                getattr(tiny_votes, name)[0] = 3
        with pytest.raises(dataclasses.FrozenInstanceError):
            tiny_votes.winner = np.zeros(12, dtype=np.int64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            tiny_votes.n_objects = 99

    def test_from_columns_copies_its_input(self):
        winner = np.array([0, 1, 2])
        votes = VoteSet.from_columns(4, [7, 7, 8], winner, [1, 2, 3])
        winner[0] = 3
        assert votes.winner.tolist() == [0, 1, 2]
        assert votes.winner.dtype == np.int64

    @pytest.mark.parametrize("columns", [
        ([0, 1], [0, 1, 2], [1, 2, 3]),      # lengths differ
        ([0], [0.5], [1]),                   # float ids
        ([0], ["1"], [2]),                   # string ids
        ([0], [2], [2]),                     # self-comparison
        ([[0]], [[1]], [[2]]),               # not 1-D
    ])
    def test_from_columns_rejects_bad_columns(self, columns):
        with pytest.raises(ConfigurationError):
            VoteSet.from_columns(4, *columns)

    def test_memoized_views_are_cached(self, tiny_votes):
        assert tiny_votes.arrays() is tiny_votes.arrays()
        assert tiny_votes.by_worker() is tiny_votes.by_worker()

    def test_pickle_drops_memo_table(self, tiny_votes):
        tiny_votes.arrays()
        clone = pickle.loads(pickle.dumps(tiny_votes))
        assert "_cache" not in clone.__dict__
        assert clone.votes == tiny_votes.votes


@st.composite
def _vote_rows(draw):
    """``(n_objects, [(worker, winner, loser), ...])`` with valid ids."""
    n_objects = draw(st.integers(2, 8))
    obj = st.integers(0, n_objects - 1)
    rows = draw(st.lists(
        st.tuples(st.integers(-3, 2**40), obj, obj).filter(
            lambda row: row[1] != row[2]),
        max_size=30,
    ))
    return n_objects, rows


class TestVoteSetColumnsProperties:
    @settings(max_examples=60, deadline=None)
    @given(_vote_rows())
    def test_from_columns_equals_from_votes(self, case):
        n_objects, rows = case
        objects = VoteSet.from_votes(
            n_objects, [Vote(worker=w, winner=a, loser=b) for w, a, b in rows])
        columns = VoteSet.from_columns(
            n_objects, *(np.array([row[k] for row in rows], dtype=np.int64)
                         for k in range(3)))
        assert objects == columns
        assert hash(objects) == hash(columns)
        left, right = objects.arrays(), columns.arrays()
        for name in left._FIELDS[1:]:
            a, b = getattr(left, name), getattr(right, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
        # The per-vote loops these views replaced are the reference.
        assert objects.pairs() == columns.pairs() \
            == sorted({canonical_pair(a, b) for _, a, b in rows})
        assert objects.workers() == columns.workers() \
            == sorted({w for w, _, _ in rows})
        assert objects.by_pair() == columns.by_pair()
        assert objects.by_worker() == columns.by_worker()
        assert columns.votes == tuple(Vote(*row) for row in rows)

    @settings(max_examples=60, deadline=None)
    @given(_vote_rows())
    def test_pickle_round_trip_preserves_equality(self, case):
        n_objects, rows = case
        votes = VoteSet.from_votes(n_objects, [Vote(*row) for row in rows])
        clone = pickle.loads(pickle.dumps(votes))
        assert clone == votes
        assert clone.votes == votes.votes
        assert not clone.winner.flags.writeable


def _pair_values():
    arrays = VoteSet.from_votes(4, [
        Vote(0, 2, 1), Vote(1, 0, 3), Vote(0, 0, 1), Vote(2, 3, 0),
    ]).arrays()
    return PairValues.from_table(arrays, np.array([0.25, 1.0, 0.0]))


class TestPairValues:
    def test_a_mapping_over_the_pair_table(self):
        values = _pair_values()
        assert values == {(0, 1): 0.25, (0, 3): 1.0, (1, 2): 0.0}
        assert {(0, 1): 0.25, (0, 3): 1.0, (1, 2): 0.0} == values
        assert values != {(0, 1): 0.25, (0, 3): 1.0}
        assert values != {(0, 1): 0.25, (0, 3): 1.0, (1, 2): 0.5}
        assert list(values) == [(0, 1), (0, 3), (1, 2)]
        assert values[(0, 3)] == 1.0 and (1, 2) in values
        assert (2, 1) not in values and values.get((2, 1)) is None
        assert dict(values.items()) == dict(values)

    def test_len_equality_and_pickle_build_no_dict(self):
        values = _pair_values()
        clone = pickle.loads(pickle.dumps(values))
        assert len(values) == 3 and clone == values
        assert values._dict is None and clone._dict is None
        assert type(clone) is PairValues and not clone.lo.flags.writeable

    def test_columns_are_read_only_views(self):
        truth = np.array([0.25, 1.0, 0.0])
        values = PairValues([0, 0, 1], [1, 3, 2], truth)
        with pytest.raises(ValueError):
            values.values_array[0] = 0.5
        assert truth.flags.writeable  # the caller's array is untouched

    def test_from_mapping_sorts_and_validates(self):
        values = PairValues.from_mapping({(1, 2): 0.5, (0, 4): 1})
        assert list(values.lo) == [0, 1] and list(values.hi) == [4, 2]
        assert values.values_array.dtype == np.float64
        assert PairValues.from_mapping({}) == {}
        for bad in ({(0, 1.5): 0.5}, {(0, 1, 2): 0.5}, {0: 0.5},
                    {(0, 2**64): 0.5}, {(0, 1): "x"}):
            with pytest.raises(ConfigurationError):
                PairValues.from_mapping(bad)

    def test_rows_must_ascend_without_repeats(self):
        for lo, hi in (([1, 0], [2, 3]), ([0, 0], [2, 2])):
            with pytest.raises(ConfigurationError):
                PairValues(lo, hi, [0.5, 0.5])
        with pytest.raises(ConfigurationError):
            PairValues([0], [1, 2], [0.5])

    def test_inference_result_converts_any_mapping(self):
        from repro.types import InferenceResult

        result = InferenceResult(Ranking([1, 0]), 0.0,
                                 direct_preferences={(0, 1): 0.75})
        assert isinstance(result.direct_preferences, PairValues)
        assert result.direct_preferences == {(0, 1): 0.75}
        assert InferenceResult(Ranking([1, 0]), 0.0).direct_preferences \
            == {}
