"""Tests for the append-only incremental vote builder.

The load-bearing property is *bit-identity*: a buffer grown one vote at
a time must snapshot to exactly the arrays the frozen batch constructor
(:meth:`repro.types.VoteArrays.from_votes`) would build from the same
votes — same values, same dtypes, same pair-table ordering — so every
downstream kernel sees inputs indistinguishable from a batch run.
"""

import dataclasses

import numpy as np
import pytest

from repro.datasets import make_scenario
from repro.exceptions import ConfigurationError
from repro.experiments.runner import collect_votes
from repro.streaming import VoteBuffer
from repro.types import Vote, VoteArrays

ARRAY_FIELDS = [f.name for f in dataclasses.fields(VoteArrays)
                if f.name != "n_objects"]


def _random_votes(n_objects, n_votes, n_workers, rng):
    votes = []
    for _ in range(n_votes):
        a, b = rng.choice(n_objects, size=2, replace=False)
        votes.append(Vote(worker=int(rng.integers(n_workers)),
                          winner=int(a), loser=int(b)))
    return votes


def assert_arrays_identical(actual, expected):
    assert actual.n_objects == expected.n_objects
    for name in ARRAY_FIELDS:
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


class TestBitIdentity:
    def test_one_at_a_time_matches_batch_constructor(self, rng):
        votes = _random_votes(15, 500, 12, rng)
        buffer = VoteBuffer(15)
        for vote in votes:
            buffer.append(vote)
        assert_arrays_identical(buffer.snapshot(),
                                VoteArrays.from_votes(15, votes))

    def test_every_prefix_matches(self, rng):
        """Snapshots taken mid-stream equal the batch build of the
        prefix — pair/worker tables re-sort correctly as ids arrive in
        arbitrary order."""
        votes = _random_votes(8, 120, 6, rng)
        buffer = VoteBuffer(8)
        for count, vote in enumerate(votes, 1):
            buffer.append(vote)
            if count % 17 == 0 or count == len(votes):
                assert_arrays_identical(
                    buffer.snapshot(),
                    VoteArrays.from_votes(8, votes[:count]),
                )

    def test_scenario_votes_roundtrip(self):
        scenario = make_scenario(12, 0.6, n_workers=10, rng=3)
        votes = collect_votes(scenario, rng=3).votes
        buffer = VoteBuffer(12)
        buffer.extend(votes)
        assert_arrays_identical(buffer.snapshot(),
                                VoteArrays.from_votes(12, list(votes)))

    def test_to_vote_set_primes_memo_with_snapshot(self, rng):
        """``to_vote_set`` must hand the batch pipeline a VoteSet whose
        columnar view IS the buffer snapshot (no rebuild, no skew)."""
        buffer = VoteBuffer(10)
        buffer.extend(_random_votes(10, 64, 5, rng))
        snapshot = buffer.snapshot()
        vote_set = buffer.to_vote_set()
        assert vote_set.arrays() is snapshot
        assert vote_set.n_objects == 10
        assert len(vote_set) == 64


class TestGrowthAndCaching:
    def test_growth_past_initial_capacity(self, rng):
        votes = _random_votes(6, 1000, 4, rng)  # >> the 64-slot floor
        buffer = VoteBuffer(6)
        assert buffer.extend(votes) == 1000
        assert len(buffer) == 1000
        assert buffer.votes() == tuple(votes)

    def test_snapshot_cached_until_append(self, rng):
        buffer = VoteBuffer(5)
        buffer.extend(_random_votes(5, 10, 3, rng))
        first = buffer.snapshot()
        assert buffer.snapshot() is first
        buffer.append(Vote(worker=0, winner=0, loser=1))
        second = buffer.snapshot()
        assert second is not first
        assert len(second.winner) == 11
        # The stale snapshot is untouched (rows are write-once).
        assert len(first.winner) == 10

    def test_counters(self, rng):
        buffer = VoteBuffer(5)
        buffer.extend([Vote(worker=7, winner=0, loser=1),
                       Vote(worker=7, winner=1, loser=2),
                       Vote(worker=9, winner=0, loser=1)])
        assert buffer.n_votes == 3
        assert buffer.n_pairs == 2
        assert buffer.n_workers == 2


class TestValidation:
    @pytest.mark.parametrize("vote", [
        Vote(worker=0, winner=5, loser=1),
        Vote(worker=0, winner=0, loser=5),
    ])
    def test_out_of_range_object_rejected(self, vote):
        buffer = VoteBuffer(5)
        with pytest.raises(ConfigurationError):
            buffer.append(vote)

    def test_rejected_batch_buffers_nothing(self):
        buffer = VoteBuffer(5)
        buffer.append(Vote(worker=1, winner=3, loser=4))
        with pytest.raises(ConfigurationError):
            buffer.extend([Vote(worker=1, winner=0, loser=1),
                           Vote(worker=2, winner=2, loser=3),
                           Vote(worker=1, winner=0, loser=9)])
        assert buffer.votes() == (Vote(worker=1, winner=3, loser=4),)
        assert (buffer.n_pairs, buffer.n_workers) == (1, 1)

    def test_n_objects_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            VoteBuffer(0)

    def test_n_objects_must_fit_int64(self):
        for n_objects in (2**63, 10**30):
            with pytest.raises(ConfigurationError, match="within int64"):
                VoteBuffer(n_objects)


class TestTruncate:
    def test_truncate_gives_back_the_prefix_buffer(self, rng):
        """Dropping rows drops the pairs and workers only they brought;
        the buffer then grows on as if they had never come."""
        votes = _random_votes(9, 150, 7, rng)
        buffer = VoteBuffer(9)
        buffer.extend(votes[:100])
        before = buffer.snapshot()
        buffer.extend(votes[100:])
        buffer.truncate(100)
        assert_arrays_identical(buffer.snapshot(), before)
        assert (buffer.n_pairs, buffer.n_workers) == \
            (before.n_pairs, before.n_workers)
        buffer.extend(votes[120:])
        assert_arrays_identical(
            buffer.snapshot(),
            VoteArrays.from_votes(9, votes[:100] + votes[120:]))

    def test_truncate_to_empty_and_bounds(self, rng):
        buffer = VoteBuffer(5)
        buffer.extend(_random_votes(5, 10, 3, rng))
        with pytest.raises(ConfigurationError):
            buffer.truncate(11)
        buffer.truncate(0)
        assert (len(buffer), buffer.n_pairs, buffer.n_workers) == (0, 0, 0)
