"""Core value types shared across the library.

The vocabulary follows the paper:

* *objects* ``O = {O_0, ..., O_{n-1}}`` are identified by integer ids;
* a *comparison task* is an unordered pair of objects ``(i, j)``;
* a *vote* is one worker's directed preference on one task;
* a *ranking* is a permutation of the object ids, most-preferred first
  (``ranking[0]`` is the object ranked first, i.e. the Hamiltonian-path
  source).

All types here are immutable value objects; algorithms never mutate them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .exceptions import ConfigurationError

#: An object identifier (index into the object universe).
ObjectId = int

#: A worker identifier.
WorkerId = int

#: An unordered comparison pair, canonically stored with ``first < second``.
Pair = Tuple[ObjectId, ObjectId]

#: Preference weights within this distance of 1.0 count as unanimous
#: "1-edges" (Sec. V-B): the edges Step 2 smooths.
ONE_EDGE_TOLERANCE = 1e-12


def canonical_pair(i: ObjectId, j: ObjectId) -> Pair:
    """Return the canonical (sorted) form of an unordered pair.

    Raises
    ------
    ConfigurationError
        If ``i == j`` — an object cannot be compared with itself.
    """
    if i == j:
        raise ConfigurationError(f"cannot compare object {i} with itself")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class Vote:
    """A single worker's answer to one pairwise comparison.

    ``winner`` and ``loser`` encode the preference ``winner ≺ loser``
    (winner ranked *before*, i.e. preferred).  This matches the paper's
    ``x_ij^k = 1`` iff ``O_i ≺ O_j``.
    """

    worker: WorkerId
    winner: ObjectId
    loser: ObjectId

    def __post_init__(self) -> None:
        if self.winner == self.loser:
            raise ConfigurationError(
                f"vote by worker {self.worker} compares object "
                f"{self.winner} with itself"
            )

    @property
    def pair(self) -> Pair:
        """The canonical unordered pair this vote answers."""
        return canonical_pair(self.winner, self.loser)

    def value_for(self, i: ObjectId, j: ObjectId) -> float:
        """The paper's ``x_ij^k``: 1.0 if this vote says ``i ≺ j`` else 0.0."""
        if {i, j} != {self.winner, self.loser}:
            raise ConfigurationError(
                f"vote on pair {self.pair} queried for pair {(i, j)}"
            )
        return 1.0 if self.winner == i else 0.0


@dataclass(frozen=True)
class HIT:
    """A Human Intelligence Task: a bundle of ``c >= 1`` comparison pairs.

    The paper allows one HIT to contain several pairwise comparisons; the
    platform assigns each HIT to ``w`` distinct workers.
    """

    hit_id: int
    pairs: Tuple[Pair, ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ConfigurationError(f"HIT {self.hit_id} contains no pairs")
        for i, j in self.pairs:
            if i == j:
                raise ConfigurationError(
                    f"HIT {self.hit_id} contains degenerate pair ({i}, {j})"
                )
            if (i, j) != canonical_pair(i, j):
                raise ConfigurationError(
                    f"HIT {self.hit_id} pair ({i}, {j}) is not canonical"
                )

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)


class Ranking:
    """An immutable full ranking (permutation) of ``n`` objects.

    ``ranking[0]`` is the most-preferred object.  Provides O(1) position
    lookup, which the metrics and baselines rely on heavily.
    """

    __slots__ = ("_order", "_position")

    def __init__(self, order: Sequence[ObjectId]):
        order_tuple = tuple(int(o) for o in order)
        position: Dict[ObjectId, int] = {}
        for idx, obj in enumerate(order_tuple):
            if obj in position:
                raise ConfigurationError(f"object {obj} appears twice in ranking")
            position[obj] = idx
        self._order = order_tuple
        self._position = position

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, idx: int) -> ObjectId:
        return self._order[idx]

    def __iter__(self) -> Iterator[ObjectId]:
        return iter(self._order)

    def __contains__(self, obj: ObjectId) -> bool:
        return obj in self._position

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Ranking):
            return self._order == other._order
        if isinstance(other, (tuple, list)):
            return self._order == tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._order)

    def __repr__(self) -> str:
        if len(self._order) <= 12:
            return f"Ranking({list(self._order)})"
        head = ", ".join(str(o) for o in self._order[:6])
        return f"Ranking([{head}, ...] n={len(self._order)})"

    # -- accessors -----------------------------------------------------------
    @property
    def order(self) -> Tuple[ObjectId, ...]:
        """The permutation as a tuple, most-preferred first."""
        return self._order

    def position(self, obj: ObjectId) -> int:
        """0-based rank position of ``obj`` (0 = most preferred)."""
        try:
            return self._position[obj]
        except KeyError:
            raise ConfigurationError(f"object {obj} not in ranking") from None

    def prefers(self, i: ObjectId, j: ObjectId) -> bool:
        """True iff this ranking places ``i`` before ``j`` (``i ≺ j``)."""
        return self.position(i) < self.position(j)

    def pairs(self) -> Iterator[Tuple[ObjectId, ObjectId]]:
        """Yield all ordered pairs ``(i, j)`` with ``i`` ranked before ``j``."""
        order = self._order
        n = len(order)
        for a in range(n):
            for b in range(a + 1, n):
                yield order[a], order[b]

    def reversed(self) -> "Ranking":
        """The exact reverse ranking."""
        return Ranking(self._order[::-1])

    def restricted_to(self, objects: Iterable[ObjectId]) -> "Ranking":
        """The induced ranking on a subset of objects (paper's sub-rankings)."""
        keep = set(objects)
        return Ranking([o for o in self._order if o in keep])

    @staticmethod
    def identity(n: int) -> "Ranking":
        """The identity ranking ``0 ≺ 1 ≺ ... ≺ n-1``."""
        return Ranking(range(n))

    @staticmethod
    def random(n: int, rng) -> "Ranking":
        """A uniformly random ranking of ``n`` objects."""
        from .rng import ensure_rng

        return Ranking(ensure_rng(rng).permutation(n))


@dataclass(frozen=True, eq=False)
class VoteArrays:
    """Columnar (struct-of-arrays) view of a vote set.

    The inference hot path is dominated by re-flattening :class:`Vote`
    objects in Python loops; this type flattens them **once** into
    parallel ``numpy`` arrays so Steps 1-3 and the baselines can run as
    pure array kernels.  Built via :meth:`VoteSet.arrays` (cached on the
    vote set) or :meth:`from_votes`.

    Per-vote arrays (all of length ``n_votes``, in original vote order):

    * ``winner`` / ``loser`` — raw object ids of each vote;
    * ``worker_idx`` — index into :attr:`worker_ids`;
    * ``pair_idx`` — index into the pair table;
    * ``value`` — the paper's ``x_ij^k``: 1.0 iff the vote prefers the
      canonical-low object (``winner < loser``).

    Id tables:

    * ``pair_lo`` / ``pair_hi`` — the distinct canonical pairs, sorted
      lexicographically (matching :meth:`VoteSet.pairs`);
    * ``worker_ids`` — distinct worker ids, sorted (matching
      :meth:`VoteSet.workers`).

    All arrays are treated as immutable; callers must not mutate them.
    """

    n_objects: int
    winner: np.ndarray
    loser: np.ndarray
    worker_idx: np.ndarray
    pair_idx: np.ndarray
    value: np.ndarray
    pair_lo: np.ndarray
    pair_hi: np.ndarray
    worker_ids: np.ndarray

    @staticmethod
    def from_votes(n_objects: int, votes: Sequence[Vote]) -> "VoteArrays":
        """Flatten a sequence of votes into columnar arrays."""
        count = len(votes)
        return VoteArrays.from_columns(
            n_objects,
            np.fromiter((v.worker for v in votes), dtype=np.int64,
                        count=count),
            np.fromiter((v.winner for v in votes), dtype=np.int64,
                        count=count),
            np.fromiter((v.loser for v in votes), dtype=np.int64,
                        count=count),
        )

    @staticmethod
    def from_columns(n_objects: int, worker: np.ndarray, winner: np.ndarray,
                     loser: np.ndarray) -> "VoteArrays":
        """Build the id tables from per-vote int64 columns.

        ``winner`` and ``loser`` are kept as given (no copy), so a
        :class:`VoteSet`'s read-only columns are shared, not duplicated.
        """
        count = int(winner.shape[0])
        lo = np.minimum(winner, loser)
        hi = np.maximum(winner, loser)
        value = (winner == lo).astype(np.float64)
        # Encode each canonical pair as one integer so np.unique yields
        # the pair table already in lexicographic (lo, hi) order.
        base = int(max(n_objects, (int(hi.max()) + 1) if count else 1))
        pair_keys, pair_idx = np.unique(lo * base + hi, return_inverse=True)
        worker_ids, worker_idx = np.unique(worker, return_inverse=True)
        return VoteArrays(
            n_objects=n_objects,
            winner=winner,
            loser=loser,
            worker_idx=worker_idx.astype(np.int64, copy=False),
            pair_idx=pair_idx.astype(np.int64, copy=False),
            value=value,
            pair_lo=(pair_keys // base).astype(np.int64, copy=False),
            pair_hi=(pair_keys % base).astype(np.int64, copy=False),
            worker_ids=worker_ids,
        )

    _FIELDS = ("n_objects", "winner", "loser", "worker_idx", "pair_idx",
               "value", "pair_lo", "pair_hi", "worker_ids")

    def __getstate__(self):
        # Keep pickles (process-backend dispatch, cache spills) lean:
        # derived memo slots (e.g. the sparse incidence cache of
        # repro.inference.incidence) rebuild on demand.
        return {name: getattr(self, name) for name in self._FIELDS}

    def __setstate__(self, state) -> None:
        for name in self._FIELDS:
            object.__setattr__(self, name, state[name])

    # -- sizes ----------------------------------------------------------------
    @property
    def n_votes(self) -> int:
        return int(self.value.shape[0])

    @property
    def n_pairs(self) -> int:
        return int(self.pair_lo.shape[0])

    @property
    def n_workers(self) -> int:
        return int(self.worker_ids.shape[0])

    def __len__(self) -> int:
        return self.n_votes

    # -- object-layer views ---------------------------------------------------
    def pairs(self) -> List[Pair]:
        """The pair table as canonical tuples (sorted, = VoteSet.pairs()).

        Tuples share one ``int`` object per object id.  The list often
        outlives the request as the keys of a cached result's
        ``direct_preferences``, and at n=1000 this keeps about a fifth
        less memory per result than one fresh ``int`` per tuple slot.
        """
        ids: Dict[int, int] = {}
        return list(zip(
            [ids.setdefault(obj, obj) for obj in self.pair_lo.tolist()],
            [ids.setdefault(obj, obj) for obj in self.pair_hi.tolist()],
        ))

    def workers(self) -> List[WorkerId]:
        """Distinct worker ids, sorted (= VoteSet.workers())."""
        return self.worker_ids.tolist()

    def pair_index(self) -> Dict[Pair, int]:
        """Mapping canonical pair -> row in the pair table."""
        return {pair: idx for idx, pair in enumerate(self.pairs())}

    def worker_index(self) -> Dict[WorkerId, int]:
        """Mapping worker id -> row in the worker table."""
        return {worker: idx for idx, worker in enumerate(self.workers())}

    def to_votes(self) -> Tuple[Vote, ...]:
        """Reconstruct the original votes (order preserved; round-trip)."""
        return tuple(
            Vote(worker=w, winner=win, loser=lose)
            for w, win, lose in zip(
                self.worker_ids[self.worker_idx].tolist(),
                self.winner.tolist(),
                self.loser.tolist(),
            )
        )

    def to_vote_set(self) -> "VoteSet":
        """An equal :class:`VoteSet` whose ``arrays()`` is this object.

        Sound because :meth:`VoteSet.arrays` over the same columns is
        bit-identical to any ``VoteArrays`` built from those votes (the
        tables are canonical: sorted pairs, sorted workers).
        """
        vote_set = VoteSet.from_columns(
            self.n_objects, self.worker_ids[self.worker_idx], self.winner,
            self.loser,
        )
        vote_set._memo("arrays", lambda: self)
        return vote_set


#: The largest id or ``n_objects`` the int64 vote columns can hold;
#: decoders of outside input refuse anything larger with a typed error.
INT64_MAX = int(np.iinfo(np.int64).max)

#: The per-vote columns of a :class:`VoteSet`, in pickle/field order.
_VOTE_COLUMNS = ("worker", "winner", "loser")


def _frozen_column(values: object) -> np.ndarray:
    """A fresh read-only 1-D int64 copy of ``values``.

    Only lossless casts are accepted: floats, strings and ``uint64``
    raise instead of being truncated or wrapped.
    """
    array = np.asarray(values)
    if array.size == 0:
        array = array.astype(np.int64)
    try:
        column = array.astype(np.int64, casting="safe")
    except TypeError:
        raise ConfigurationError(
            f"vote ids must be integers, got dtype {array.dtype}"
        ) from None
    if column.ndim != 1:
        raise ConfigurationError(
            f"vote columns must be 1-D, got shape {column.shape}"
        )
    column.setflags(write=False)
    return column


@dataclass(frozen=True, eq=False)
class VoteSet:
    """All votes collected in one crowdsourcing round, with fast grouping.

    This is the interchange format between the platform simulator and every
    inference algorithm (ours and the baselines).

    Votes are stored as three parallel read-only ``int64`` columns
    (``worker``, ``winner``, ``loser``; one row per vote, in collection
    order).  Build a set with :meth:`from_votes` (object layer) or
    :meth:`from_columns` (decoders, streaming snapshots).  The
    :class:`Vote` tuple (:attr:`votes`, iteration, :meth:`by_pair`,
    :meth:`by_worker`) is built lazily, only for object-layer callers
    that ask for it; :meth:`arrays` is built from the columns with no
    Python loop.

    Every derived view is memoized.  That is sound because nothing can
    change the votes: the dataclass is frozen and the columns are not
    writeable, so a write to either fails at the source.  Callers must
    treat the returned containers as read-only.  Code that needs to
    *accumulate* votes uses :class:`repro.streaming.VoteBuffer`, the
    append-only builder, and takes frozen snapshots via its
    ``to_vote_set()``.
    """

    n_objects: int
    worker: np.ndarray
    winner: np.ndarray
    loser: np.ndarray

    def __post_init__(self) -> None:
        columns = [_frozen_column(getattr(self, name))
                   for name in _VOTE_COLUMNS]
        worker, winner, loser = columns
        if not worker.shape == winner.shape == loser.shape:
            raise ConfigurationError(
                "vote columns differ in length: "
                f"{[column.shape[0] for column in columns]}"
            )
        clash = np.flatnonzero(winner == loser)
        if clash.size:
            row = int(clash[0])
            raise ConfigurationError(
                f"vote by worker {int(worker[row])} compares object "
                f"{int(winner[row])} with itself"
            )
        object.__setattr__(self, "n_objects", int(self.n_objects))
        for name, column in zip(_VOTE_COLUMNS, columns):
            object.__setattr__(self, name, column)

    @staticmethod
    def from_votes(n_objects: int, votes: Iterable[Vote]) -> "VoteSet":
        """Build a vote set from any iterable of votes."""
        votes = tuple(votes)
        count = len(votes)
        vote_set = VoteSet(
            n_objects,
            np.fromiter((v.worker for v in votes), np.int64, count),
            np.fromiter((v.winner for v in votes), np.int64, count),
            np.fromiter((v.loser for v in votes), np.int64, count),
        )
        vote_set._memo("votes", lambda: votes)
        return vote_set

    @staticmethod
    def from_columns(n_objects: int, worker: object, winner: object,
                     loser: object) -> "VoteSet":
        """Build a vote set from per-vote id columns (copied, read-only).

        Raises
        ------
        ConfigurationError
            If a column is not integer, the lengths differ, or a vote
            compares an object with itself.
        """
        return VoteSet(n_objects, worker, winner, loser)

    def __len__(self) -> int:
        return int(self.winner.shape[0])

    def __iter__(self) -> Iterator[Vote]:
        return iter(self.votes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VoteSet):
            return NotImplemented
        return self.n_objects == other.n_objects and all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in _VOTE_COLUMNS
        )

    def __hash__(self) -> int:
        return hash((self.n_objects,) + tuple(
            getattr(self, name).tobytes() for name in _VOTE_COLUMNS
        ))

    def _memo(self, key: str, build):
        """Per-instance memo table of derived views (sound because the
        votes cannot change; see the class docstring)."""
        cache = self.__dict__.setdefault("_cache", {})
        if key not in cache:
            cache[key] = build()
        return cache[key]

    def __getstate__(self):
        # Keep pickles (process-backend dispatch, cache spills) lean:
        # the memoized views are derived data and rebuild on demand.
        return {"n_objects": self.n_objects,
                **{name: getattr(self, name) for name in _VOTE_COLUMNS}}

    def __setstate__(self, state) -> None:
        object.__setattr__(self, "n_objects", state["n_objects"])
        for name in _VOTE_COLUMNS:
            # Unpickled arrays come back writeable; freeze them again.
            column = state[name]
            column.setflags(write=False)
            object.__setattr__(self, name, column)

    @property
    def votes(self) -> Tuple[Vote, ...]:
        """The votes as :class:`Vote` objects, in order (built lazily)."""
        return self._memo("votes", lambda: tuple(
            Vote(worker=w, winner=a, loser=b)
            for w, a, b in zip(self.worker.tolist(), self.winner.tolist(),
                               self.loser.tolist())
        ))

    def arrays(self) -> VoteArrays:
        """The columnar view of these votes, built once and cached."""
        return self._memo("arrays", lambda: VoteArrays.from_columns(
            self.n_objects, self.worker, self.winner, self.loser
        ))

    def by_pair(self) -> Dict[Pair, List[Vote]]:
        """Group votes by their canonical comparison pair (memoized)."""

        def build() -> Dict[Pair, List[Vote]]:
            grouped: Dict[Pair, List[Vote]] = {}
            for vote in self.votes:
                grouped.setdefault(vote.pair, []).append(vote)
            return grouped

        return self._memo("by_pair", build)

    def by_worker(self) -> Dict[WorkerId, List[Vote]]:
        """Group votes by the worker who cast them (memoized)."""

        def build() -> Dict[WorkerId, List[Vote]]:
            grouped: Dict[WorkerId, List[Vote]] = {}
            for vote in self.votes:
                grouped.setdefault(vote.worker, []).append(vote)
            return grouped

        return self._memo("by_worker", build)

    def workers(self) -> List[WorkerId]:
        """Sorted list of distinct worker ids appearing in the votes."""
        return self._memo("workers", lambda: self.arrays().workers())

    def pairs(self) -> List[Pair]:
        """Sorted list of distinct canonical pairs appearing in the votes."""
        return self._memo("pairs", lambda: self.arrays().pairs())


@dataclass(frozen=True)
class InferenceResult:
    """The output of a full result-inference run.

    Attributes
    ----------
    ranking:
        The inferred full ranking.
    log_preference:
        ``log Pr[P]`` of the chosen Hamiltonian path (sum of log edge
        weights); comparable across algorithms on the same closure.
    worker_quality:
        Estimated quality ``q_k`` per worker id (empty for baselines that
        do not model workers).
    direct_preferences:
        The Step-1 direct preference ``x_ij`` per canonical pair.
    step_seconds:
        Wall-clock seconds per named pipeline step (for Fig. 4's breakdown).
    metadata:
        Free-form extras (iteration counts, 1-edge counts, ...).
    """

    ranking: Ranking
    log_preference: float
    worker_quality: Dict[WorkerId, float] = field(default_factory=dict)
    direct_preferences: Dict[Pair, float] = field(default_factory=dict)
    step_seconds: Dict[str, float] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)
