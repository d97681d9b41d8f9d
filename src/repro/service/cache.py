"""Content-addressed result cache for the batch ranking service.

Two identical jobs — same canonicalised votes (or scenario), same
pipeline configuration, same seed — must produce the same ranking, so
the second one never needs to run.  :func:`fingerprint_job` derives a
stable SHA-256 key from the job's semantic content (vote *order* is
irrelevant; dict key order is irrelevant) by hashing the vote columns'
bytes, never per-vote Python objects, and :class:`ResultCache`
maps keys to inference results through a thread-safe in-memory LRU,
optionally spilling every entry to a directory of :mod:`repro.io`-schema
JSON files so caches survive process restarts.  Both tiers hold each
result as its canonical JSON encoding (compact, sorted keys), the bytes
the service sends: a hit is answered by splicing them into the response,
and an entry costs about its encoded size in memory rather than a
decoded object graph several times larger.  An entry also keeps the
job's JSON-scalar ``extras`` (a scenario job's ``accuracy``), so a hit
answers exactly what the cold run did.  Spill writes are atomic and
journaled in an on-disk index (:mod:`repro.service.shared_cache`), so
one spill directory can be shared by several processes — a restarted
server that warms from its predecessor's spill, or concurrent ``repro
batch --cache-dir`` runs — and each process's memory tier misses fall
through to the common disk tier.

A job without a seed is *not* deterministic (fresh entropy per run) and
therefore gets a unique, uncacheable fingerprint.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import threading
from collections import OrderedDict
from pathlib import Path
from typing import (Dict, Generic, Hashable, List, NamedTuple, Optional,
                    Sequence, Tuple, TypeVar, Union)

import numpy as np

from ..diagnostics import get_logger
from ..exceptions import ConfigurationError, DataFormatError
from ..io import (
    EncodedResult,
    atomic_write_bytes,
    decode_json,
    json_scalars,
    result_from_payload,
    splice_json,
)
from ..types import INT64_MAX, InferenceResult, VoteSet
from .jobs import RankingJob, config_to_payload
from .shared_cache import SpillIndex, spill_index_for

_log = get_logger("service.cache")

#: Monotonic source for the fingerprints of uncacheable (seedless) jobs.
_unique_counter = itertools.count()


#: Schema tag of a spill file that carries extras next to its result;
#: a spill file without extras is the bare :mod:`repro.io` result.
CACHE_ENTRY_SCHEMA = "repro.cache_entry/1"

#: Version tag hashed first into every fingerprint.  Bump it whenever
#: the hashed material changes, so old spill files become misses.
FINGERPRINT_VERSION = "repro.fp/3"


def fingerprint_job(job: RankingJob) -> str:
    """Return the content hash (hex SHA-256) identifying a job's work.

    The hash covers a canonical JSON header — :data:`FINGERPRINT_VERSION`,
    the full pipeline config, the seed, and ``n_objects`` or the
    scenario spec — followed, for vote jobs, by the raw little-endian
    bytes of the ``worker``, ``winner`` and ``loser`` columns with the
    rows in lexicographic ``(worker, winner, loser)`` order, so
    collection order does not matter (:func:`sorted_vote_columns`).
    Jobs without a seed draw fresh entropy on every run, so each call
    returns a distinct ``unseeded/...`` key that can never collide with
    a real content hash.
    """
    if job.seed is None:
        return f"unseeded/{next(_unique_counter)}"
    header: Dict[str, object] = {
        "fingerprint": FINGERPRINT_VERSION,
        "config": config_to_payload(job.config),
        "seed": job.seed,
    }
    votes = job.votes
    if votes is not None:
        header["n_objects"] = votes.n_objects
    if job.scenario is not None:
        header["scenario"] = dataclasses.asdict(job.scenario)
    digest = hashlib.sha256(json.dumps(
        header, sort_keys=True, separators=(",", ":")
    ).encode("utf-8"))
    if votes is not None:
        for column in sorted_vote_columns(votes):
            digest.update(column.astype("<i8", copy=False).tobytes())
    return digest.hexdigest()


def sorted_vote_columns(votes: VoteSet) -> Tuple[np.ndarray, ...]:
    """The ``worker``, ``winner`` and ``loser`` columns of ``votes``
    with the rows sorted lexicographically, in that column order.

    When every object id lies in ``[0, n)`` and ``(max|worker| + 1)·n²``
    fits in int64 (checked with Python ints), each row is one int64 key
    ``worker·n² + winner·n + loser``, which orders rows exactly as the
    three columns do; one sort of that key replaces a three-key
    :func:`numpy.lexsort`, and the columns are read back out of the
    sorted keys.  Any other vote set takes the ``lexsort``.  Both give
    the same columns, so the fingerprint does not depend on the path.
    """
    worker, winner, loser = votes.worker, votes.winner, votes.loser
    n = votes.n_objects
    if len(votes) and _fits_one_key(worker, winner, loser, n):
        keys = np.sort((worker * n + winner) * n + loser)
        sorted_worker, rest = np.divmod(keys, n * n)
        return (sorted_worker,) + np.divmod(rest, n)
    order = np.lexsort((loser, winner, worker))
    return worker[order], winner[order], loser[order]


def _fits_one_key(worker: np.ndarray, winner: np.ndarray,
                  loser: np.ndarray, n: int) -> bool:
    """Whether :func:`sorted_vote_columns` may pack rows in one int64."""
    if min(int(winner.min()), int(loser.min())) < 0 or \
            max(int(winner.max()), int(loser.max())) >= n:
        return False
    span = max(-int(worker.min()), int(worker.max())) + 1
    return span * n * n <= INT64_MAX


#: A memory-tier entry: ``(result_json, ranking_json, extras)``.
_Entry = Tuple[bytes, bytes, Dict[str, object]]

_K = TypeVar("_K", bound=Hashable)
_V = TypeVar("_V")


class BoundedLRU(Generic[_K, _V]):
    """A map of at most ``max_entries`` items that drops the least
    recently used one first.

    Not locked: callers hold their own lock around every call.  The
    memory tier of :class:`ResultCache` and the request memo of
    ``repro serve`` are both one of these.
    """

    def __init__(self, max_entries: int):
        self._max_entries = max_entries
        self._items: "OrderedDict[_K, _V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def get(self, key: _K) -> Optional[_V]:
        """The value under ``key``, made most recently used; ``None``
        when absent."""
        value = self._items.get(key)
        if value is not None:
            self._items.move_to_end(key)
        return value

    def peek(self, key: _K) -> Optional[_V]:
        """The value under ``key`` without touching its recency."""
        return self._items.get(key)

    def put(self, key: _K, value: _V) -> List[_K]:
        """Store ``value`` as the most recently used item; returns the
        keys evicted to make room, oldest first."""
        self._items[key] = value
        self._items.move_to_end(key)
        evicted = []
        while len(self._items) > self._max_entries:
            evicted.append(self._items.popitem(last=False)[0])
        return evicted

    def clear(self) -> None:
        self._items.clear()


class CacheEntry(NamedTuple):
    """What a cache hit hands back: the result and the job's extras."""

    encoded: EncodedResult
    extras: Dict[str, object]


class ResultCache:
    """Thread-safe LRU cache of inference results, keyed by content hash.

    Entries are stored as encodings only — an
    :class:`~repro.io.EncodedResult`'s ``result_json`` and
    ``ranking_json`` bytes, plus the job's JSON-scalar extras — never as
    decoded objects.  :meth:`get_entry` hands out a fresh
    :class:`~repro.io.EncodedResult` over those bytes (the serving path
    splices them into its response); :meth:`get` decodes one for
    library callers that want the :class:`~repro.types.InferenceResult`.

    Parameters
    ----------
    max_entries:
        In-memory capacity; the least recently *used* entry is evicted
        first.  Persisted files are never evicted by the memory tier.
    persist_dir:
        Optional directory for JSON spill files (created on demand).
        Every stored entry is written **atomically** as ``<key>.json``,
        compact with sorted keys: the result's canonical encoding in the
        :mod:`repro.io` schema, the same bytes the memory tier holds,
        wrapped in a :data:`CACHE_ENTRY_SCHEMA` object when the job
        reported extras.  Files are journaled in the directory's
        :class:`~repro.service.shared_cache.SpillIndex`; in-memory
        misses fall back to the directory.  Because writes are atomic,
        the directory is safe to share between processes — caches
        pointed at one ``persist_dir`` serve each other's entries
        (``disk_loads`` counts those cross-tier hits).  A spill file
        that exists but does not decode is genuinely corrupt (disk
        fault, schema drift); it is logged, deleted and treated as a
        miss — never an error — and the drop is guarded so a peer's
        concurrent replacement or concurrent drop is never deleted or
        double-counted.
    max_spill_files:
        Optional bound on the number of spill files; beyond it the
        oldest entries are pruned (under the directory's advisory file
        lock, so concurrent pruners cooperate).  ``None`` keeps every
        spill file forever.
    """

    def __init__(
        self,
        max_entries: int = 256,
        persist_dir: Optional[Union[str, Path]] = None,
        max_spill_files: Optional[int] = None,
    ):
        if max_entries < 1:
            raise ConfigurationError(
                f"max_entries must be >= 1, got {max_entries}"
            )
        if max_spill_files is not None and max_spill_files < 1:
            raise ConfigurationError(
                f"max_spill_files must be >= 1 or None, got {max_spill_files}"
            )
        if max_spill_files is not None and persist_dir is None:
            raise ConfigurationError(
                "max_spill_files requires persist_dir"
            )
        self._max_entries = max_entries
        self._persist_dir = Path(persist_dir) if persist_dir else None
        self._max_spill_files = max_spill_files
        self._index: Optional[SpillIndex] = spill_index_for(self._persist_dir)
        self._entries: "BoundedLRU[str, _Entry]" = BoundedLRU(max_entries)
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._disk_loads = 0
        self._corrupt_dropped = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def max_entries(self) -> int:
        """The configured in-memory capacity."""
        return self._max_entries

    def get(self, key: str) -> Optional[InferenceResult]:
        """Look up a fingerprint and decode the hit; ``None`` on a miss.

        Same lookup as :meth:`get_entry`, for callers that want the
        :class:`~repro.types.InferenceResult` itself.
        """
        entry = self.get_entry(key)
        return None if entry is None else entry.encoded.result

    def get_entry(self, key: str) -> Optional[CacheEntry]:
        """Look up a fingerprint; returns ``None`` on a miss.

        Unseeded fingerprints (``unseeded/...``) always miss.  A hit
        refreshes the entry's LRU recency and returns a new
        :class:`~repro.io.EncodedResult` over the stored bytes, so a
        caller that decodes it never attaches the decoded object to the
        cache.  When a persistence directory is configured, an in-memory
        miss consults it and re-warms the memory tier on success.
        """
        if key.startswith("unseeded/"):
            with self._lock:
                self._misses += 1
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._hits += 1
        if entry is None:
            entry = self._load_persisted(key)
            with self._lock:
                if entry is None:
                    self._misses += 1
                    return None
                self._hits += 1
                self._disk_loads += 1
                self._store(key, entry)
        return _cache_entry(entry)

    def get_entries(self, keys: Sequence[str]) -> Optional[List[CacheEntry]]:
        """Look up several fingerprints, all or nothing: their entries
        when every key is in the memory tier, else ``None``.

        An all-hit lookup refreshes each entry's recency and counts a
        hit per key, like :meth:`get_entry`.  Otherwise nothing is
        touched (no recency, no hit or miss counted) and the spill
        directory is not consulted: the caller falls back to
        :meth:`get_entry` per key, which counts and reads the spill.
        """
        with self._lock:
            stored = [self._entries.peek(key) for key in keys]
            if any(entry is None for entry in stored):
                return None
            for key in keys:
                self._entries.get(key)
            self._hits += len(keys)
        return [_cache_entry(entry) for entry in stored]

    def put(self, key: str, result: Union[InferenceResult, EncodedResult],
            extras: Optional[Dict[str, object]] = None) -> None:
        """Store a result under its fingerprint (and persist if enabled).

        ``result`` may be an :class:`~repro.io.EncodedResult`, whose
        encoding is then reused for the memory entry and the spill file
        alike.  ``extras`` are the job's additions to its result line;
        their JSON-scalar members are kept.  Unseeded fingerprints are
        not stored — the work they label is not reproducible.
        """
        if key.startswith("unseeded/"):
            return
        if not isinstance(result, EncodedResult):
            result = EncodedResult(result)
        # Encode (if not done yet) before taking the lock.
        entry = (result.result_json, result.ranking_json,
                 json_scalars(extras or {}))
        with self._lock:
            self._store(key, entry)
        if self._persist_dir is not None:
            try:
                self._persist_dir.mkdir(parents=True, exist_ok=True)
                atomic_write_bytes(self._persist_dir / f"{key}.json",
                                   _spill_bytes(entry))
                self._index.record(key)
                if self._max_spill_files is not None:
                    self._index.prune(self._max_spill_files)
            except OSError as error:
                _log.warning("cache persist failed for %s: %s", key, error)

    def clear(self) -> None:
        """Drop every in-memory entry (persisted files are kept)."""
        with self._lock:
            self._entries.clear()

    # -- shared spill tier ---------------------------------------------------

    def persisted_keys(self) -> List[str]:
        """Keys currently journaled in the spill directory, oldest first.

        Falls back to (and repairs the index from) a directory scan
        when spill files exist that the journal does not know — a
        pre-index directory, or one populated by an older library.
        """
        if self._index is None:
            return []
        keys = self._index.keys()
        known = set(keys)
        if any(path.stem not in known
               for path in self._persist_dir.glob("*.json")):
            keys = self._index.rebuild()
        return keys

    def warm(self, limit: Optional[int] = None) -> int:
        """Preload the most recently written spill entries into memory.

        A fresh process (a restarted server, a new ``repro batch``
        run) pointed at a shared ``persist_dir`` starts with an empty memory
        tier; warming pulls up to ``limit`` entries (default: the
        memory capacity) so its first requests hit RAM instead of disk.
        Counts neither hits nor misses — it is prefetch, not lookup.
        Returns the number of entries loaded.
        """
        if self._persist_dir is None:
            return 0
        budget = self._max_entries if limit is None else limit
        if budget < 1:
            return 0
        loaded = 0
        # Oldest-to-newest over the newest `budget` keys, so the most
        # recent write ends up most-recent in the LRU as well.
        for key in self.persisted_keys()[-budget:]:
            entry = self._load_persisted(key)
            if entry is None:
                continue
            with self._lock:
                self._store(key, entry)
            loaded += 1
        if loaded:
            _log.debug("warmed %d entr%s from %s", loaded,
                       "y" if loaded == 1 else "ies", self._persist_dir)
        return loaded

    def stats(self) -> Dict[str, int]:
        """Counters snapshot: hits, misses, evictions, disk loads, size."""
        with self._lock:
            return {
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
                "disk_loads": self._disk_loads,
                "corrupt_dropped": self._corrupt_dropped,
                "size": len(self._entries),
            }

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when none yet)."""
        with self._lock:
            total = self._hits + self._misses
            return self._hits / total if total else 0.0

    # -- internals ----------------------------------------------------------

    def _store(self, key: str, entry: _Entry) -> None:
        # Caller holds the lock.
        for evicted in self._entries.put(key, entry):
            self._evictions += 1
            _log.debug("evicted cache entry %s", evicted)

    def _load_persisted(self, key: str) -> Optional[_Entry]:
        """Decode and validate a spill file, then re-encode it.

        Files in any JSON layout load, including the indented one older
        versions wrote; the entry's encoding is canonical whatever the
        file's layout.
        """
        if self._persist_dir is None:
            return None
        path = self._persist_dir / f"{key}.json"
        try:
            with open(path, "rb") as handle:
                # The identity of what we read: if the decode fails, we
                # may only drop the file while it still *is* this file.
                read_stat = os.fstat(handle.fileno())
                raw = handle.read()
        except FileNotFoundError:
            return None  # plain miss, nothing to drop
        except OSError as error:
            _log.warning("cannot read cache file %s: %s", path, error)
            return None
        try:
            payload = decode_json(raw, str(path))
            extras: object = {}
            if isinstance(payload, dict) and \
                    payload.get("schema") == CACHE_ENTRY_SCHEMA:
                extras = payload.get("extras")
                payload = payload.get("result")
            if not isinstance(extras, dict):
                raise DataFormatError(f"{path}: extras must be an object")
            result = result_from_payload(payload, source=str(path))
        except DataFormatError as error:
            # Spill writes are atomic (repro.io.atomic_write_bytes), so a
            # file that opened but does not decode is genuinely corrupt
            # (disk fault, schema drift) — never a torn in-progress
            # write.  Drop it so the failed parse is paid once, not on
            # every future lookup.
            self._drop_corrupt(path, read_stat, error)
            return None
        encoded = EncodedResult(result)
        return encoded.result_json, encoded.ranking_json, json_scalars(extras)

    def _drop_corrupt(self, path: Path, read_stat: os.stat_result,
                      error: Exception) -> None:
        """Delete a corrupt spill file without racing peers.

        Two guards keep concurrent cache instances (other threads or
        other processes on a shared ``persist_dir``) safe:

        * the file is only unlinked while it is still the same inode we
          read — a writer that *replaced* it since (``os.replace``
          publishes a complete new file) keeps its fresh entry;
        * a peer reader that dropped the same corrupt file first wins
          the unlink; we observe ``FileNotFoundError`` and do **not**
          count, so ``corrupt_dropped`` totals once per corrupt file
          across all racers, not once per observer.
        """
        try:
            current = os.stat(path)
        except OSError:
            return  # already gone — a peer dropped (and counted) it
        if (current.st_ino, current.st_dev) != \
                (read_stat.st_ino, read_stat.st_dev):
            return  # replaced by a fresh write since we read; keep it
        try:
            path.unlink()
        except FileNotFoundError:
            return  # lost the unlink race to a peer reader
        except OSError as unlink_error:
            _log.warning("could not delete corrupt cache file %s: %s",
                         path, unlink_error)
            return
        _log.warning("dropped corrupt cache file %s: %s", path, error)
        with self._lock:
            self._corrupt_dropped += 1


def _cache_entry(entry: _Entry) -> CacheEntry:
    """A hit's :class:`CacheEntry`: a new :class:`~repro.io.EncodedResult`
    over the stored bytes and a copy of the extras."""
    result_json, ranking_json, extras = entry
    return CacheEntry(EncodedResult(result_json=result_json,
                                    ranking_json=ranking_json),
                      dict(extras))


def _spill_bytes(entry: _Entry) -> bytes:
    """A spill file's content: the bare result, or a wrapper with extras."""
    result_json, _, extras = entry
    if extras:
        result_json = splice_json(
            {"schema": CACHE_ENTRY_SCHEMA, "extras": extras},
            {"result": result_json},
        )
    return result_json + b"\n"
