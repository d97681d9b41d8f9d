"""Append-only incremental builder over the columnar vote arrays.

:class:`~repro.types.VoteSet` is frozen — its memoized derived views
(``arrays()``, ``by_pair()``, ...) are sound only because its read-only
vote columns never change.  A live ranking session, however, grows
its vote pool one submission at a time, and rebuilding the columnar
tables from scratch per vote is O(total votes) per ingest.

:class:`VoteBuffer` is the mutable counterpart: per-vote columns live in
amortized-doubling ``numpy`` buffers (appends are O(1) amortized), and
the pair/worker id tables are maintained as first-seen dictionaries.
:meth:`snapshot` materialises a :class:`~repro.types.VoteArrays` that is
**bit-identical** to ``VoteArrays.from_votes`` over the same vote
sequence — the sorted pair/worker tables are produced by ranking the
first-seen slots, exactly matching ``np.unique``'s output — so every
downstream kernel (truth discovery, smoothing, SAPS) sees the same
arrays whether votes arrived in one batch or one at a time (pinned by
the differential tests).  Snapshots are cached until the next append.

Rows already written are rewritten only after :meth:`VoteBuffer.truncate`
drops them, so snapshot per-vote columns are cheap views of the growth
buffers, not copies; like every ``VoteArrays``, they must be treated
as immutable by callers, and a snapshot holding dropped rows must be
dropped with them.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..types import INT64_MAX, Pair, Vote, VoteArrays, VoteSet, WorkerId

#: Initial capacity of the per-vote growth buffers.
_MIN_CAPACITY = 64


class VoteBuffer:
    """Mutable, append-only vote accumulator with columnar snapshots.

    Parameters
    ----------
    n_objects:
        Number of ranked objects; votes must compare objects in
        ``[0, n_objects)``.
    votes:
        Optional initial votes (appended in order).
    """

    def __init__(self, n_objects: int, votes: Iterable[Vote] = ()) -> None:
        if n_objects < 2:
            raise ConfigurationError(
                f"need at least 2 objects to collect votes, got {n_objects}"
            )
        if n_objects > INT64_MAX:
            raise ConfigurationError(
                f"n_objects must be within int64, got {n_objects}"
            )
        self.n_objects = int(n_objects)
        self._size = 0
        self._winner = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._loser = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._worker = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._pair_slot = np.empty(_MIN_CAPACITY, dtype=np.int64)
        self._worker_slot = np.empty(_MIN_CAPACITY, dtype=np.int64)
        # First-seen id tables; snapshot() sorts them into the canonical
        # order and remaps the per-vote slot columns through the ranks.
        self._pair_slots: Dict[Pair, int] = {}
        self._pair_list: List[Pair] = []
        self._worker_slots: Dict[WorkerId, int] = {}
        self._worker_list: List[WorkerId] = []
        self._snapshot: Optional[VoteArrays] = None
        self.extend(votes)

    # -- sizes ----------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def n_votes(self) -> int:
        return self._size

    @property
    def n_pairs(self) -> int:
        return len(self._pair_list)

    @property
    def n_workers(self) -> int:
        return len(self._worker_list)

    # -- growth ---------------------------------------------------------------
    def _check(self, vote: Vote) -> None:
        if not (0 <= vote.winner < self.n_objects
                and 0 <= vote.loser < self.n_objects):
            raise ConfigurationError(
                f"vote compares objects ({vote.winner}, {vote.loser}) "
                f"outside [0, {self.n_objects})"
            )

    def append(self, vote: Vote) -> None:
        """Append one vote (O(1) amortized)."""
        self._check(vote)
        self._append(vote)

    def _append(self, vote: Vote) -> None:
        row = self._size
        if row == self._winner.shape[0]:
            self._grow()
        pair = vote.pair
        pair_slot = self._pair_slots.get(pair)
        if pair_slot is None:
            pair_slot = len(self._pair_list)
            self._pair_slots[pair] = pair_slot
            self._pair_list.append(pair)
        worker_slot = self._worker_slots.get(vote.worker)
        if worker_slot is None:
            worker_slot = len(self._worker_list)
            self._worker_slots[vote.worker] = worker_slot
            self._worker_list.append(vote.worker)
        self._winner[row] = vote.winner
        self._loser[row] = vote.loser
        self._worker[row] = vote.worker
        self._pair_slot[row] = pair_slot
        self._worker_slot[row] = worker_slot
        self._size = row + 1
        self._snapshot = None

    def extend(self, votes: Iterable[Vote]) -> int:
        """Append many votes; returns how many were appended.

        Every vote is checked before any is appended, so a rejected
        batch leaves the buffer as it was.
        """
        votes = list(votes)
        for vote in votes:
            self._check(vote)
        for vote in votes:
            self._append(vote)
        return len(votes)

    def truncate(self, n_votes: int) -> None:
        """Drop every vote from row ``n_votes`` on, with the pairs and
        workers only those votes introduced (undoes an :meth:`extend`).
        """
        if not 0 <= n_votes <= self._size:
            raise ConfigurationError(
                f"cannot truncate {self._size} votes to {n_votes}"
            )
        # Slots are numbered in first-seen order, so the first n_votes
        # rows use exactly the slots below their largest one.
        for slots, table, column in (
                (self._pair_slots, self._pair_list, self._pair_slot),
                (self._worker_slots, self._worker_list, self._worker_slot)):
            keep = int(column[:n_votes].max()) + 1 if n_votes else 0
            for key in table[keep:]:
                del slots[key]
            del table[keep:]
        self._size = n_votes
        self._snapshot = None

    def _grow(self) -> None:
        """Double every per-vote growth buffer.

        Old buffers stay referenced by earlier snapshots' views; written
        rows are never mutated, so those views remain valid.
        """
        capacity = 2 * self._winner.shape[0]
        for name in ("_winner", "_loser", "_worker", "_pair_slot",
                     "_worker_slot"):
            old = getattr(self, name)
            new = np.empty(capacity, dtype=np.int64)
            new[: self._size] = old[: self._size]
            setattr(self, name, new)

    # -- snapshots ------------------------------------------------------------
    def snapshot(self) -> VoteArrays:
        """The current votes as frozen columnar arrays (cached).

        Bit-identical to ``VoteArrays.from_votes(n_objects, votes)`` on
        the same vote sequence: the pair table sorted lexicographically,
        the worker table sorted by id, per-vote indices pointing into
        them.
        """
        if self._snapshot is not None:
            return self._snapshot
        size = self._size
        winner = self._winner[:size]
        loser = self._loser[:size]
        pair_lo_slots = np.fromiter(
            (p[0] for p in self._pair_list), dtype=np.int64,
            count=len(self._pair_list),
        )
        pair_hi_slots = np.fromiter(
            (p[1] for p in self._pair_list), dtype=np.int64,
            count=len(self._pair_list),
        )
        # Rank the first-seen slots into lexicographic (lo, hi) order —
        # the order np.unique over encoded keys produces in from_votes.
        pair_order = np.lexsort((pair_hi_slots, pair_lo_slots))
        pair_rank = np.empty_like(pair_order)
        pair_rank[pair_order] = np.arange(pair_order.shape[0])
        worker_slots = np.fromiter(
            (w for w in self._worker_list), dtype=np.int64,
            count=len(self._worker_list),
        )
        worker_order = np.argsort(worker_slots, kind="stable")
        worker_rank = np.empty_like(worker_order)
        worker_rank[worker_order] = np.arange(worker_order.shape[0])
        snapshot = VoteArrays(
            n_objects=self.n_objects,
            winner=winner,
            loser=loser,
            worker_idx=worker_rank[self._worker_slot[:size]],
            pair_idx=pair_rank[self._pair_slot[:size]],
            value=(winner < loser).astype(np.float64),
            pair_lo=pair_lo_slots[pair_order],
            pair_hi=pair_hi_slots[pair_order],
            worker_ids=worker_slots[worker_order],
        )
        self._snapshot = snapshot
        return snapshot

    def to_vote_set(self) -> VoteSet:
        """A frozen :class:`~repro.types.VoteSet` of the current votes.

        Its ``arrays()`` returns the snapshot object itself, so batch
        code running on the frozen set and streaming code running on
        the snapshot consume identical tables.
        """
        return self.snapshot().to_vote_set()

    def votes(self) -> Tuple[Vote, ...]:
        """Reconstruct the appended votes, in order."""
        return self.snapshot().to_votes()
