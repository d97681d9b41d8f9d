"""Content-addressed result cache for the batch ranking service.

Two identical jobs — same canonicalised votes (or scenario), same
pipeline configuration, same seed — must produce the same ranking, so
the second one never needs to run.  :func:`fingerprint_job` derives a
stable SHA-256 key from the job's semantic content (vote *order* is
irrelevant; dict key order is irrelevant) by hashing the vote columns'
bytes, never per-vote Python objects, and :class:`ResultCache`
maps keys to :class:`~repro.types.InferenceResult` values through a
thread-safe in-memory LRU, optionally spilling every entry to a
directory of :mod:`repro.io`-schema JSON files so caches survive
process restarts.  Spill writes are atomic and journaled in an on-disk
index (:mod:`repro.service.shared_cache`), so one spill directory can
be shared by N processes — each process's memory tier misses fall
through to the common disk tier, which is how the pre-fork server
shares cache hits across its children.

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
from typing import Dict, List, Optional, Union

import numpy as np

from ..diagnostics import get_logger
from ..exceptions import ConfigurationError, DataFormatError
from ..io import result_from_payload, save_result
from ..types import InferenceResult
from .jobs import RankingJob, config_to_payload
from .shared_cache import SpillIndex, spill_index_for

_log = get_logger("service.cache")

#: Monotonic source for the fingerprints of uncacheable (seedless) jobs.
_unique_counter = itertools.count()


#: Version tag hashed first into every fingerprint.  Bump it whenever
#: the hashed material changes, so old spill files become misses.
FINGERPRINT_VERSION = "repro.fp/2"


def fingerprint_job(job: RankingJob) -> str:
    """Return the content hash (hex SHA-256) identifying a job's work.

    The hash covers a canonical JSON header — :data:`FINGERPRINT_VERSION`,
    the full pipeline config, the seed, and ``n_objects`` or the
    scenario spec — followed, for vote jobs, by the raw little-endian
    bytes of the ``worker``, ``winner`` and ``loser`` columns with the
    rows lexsorted, so collection order does not matter.  Jobs without
    a seed draw fresh entropy on every run, so each call returns a
    distinct ``unseeded/...`` key that can never collide with a real
    content hash.
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
        order = np.lexsort((votes.loser, votes.winner, votes.worker))
        for column in (votes.worker, votes.winner, votes.loser):
            digest.update(column[order].astype("<i8", copy=False).tobytes())
    return digest.hexdigest()


class ResultCache:
    """Thread-safe LRU cache of inference results, keyed by content hash.

    Parameters
    ----------
    max_entries:
        In-memory capacity; the least recently *used* entry is evicted
        first.  Persisted files are never evicted by the memory tier.
    persist_dir:
        Optional directory for JSON spill files (created on demand).
        Every stored entry is written **atomically** as ``<key>.json``
        in the :mod:`repro.io` schema and journaled in the directory's
        :class:`~repro.service.shared_cache.SpillIndex`; in-memory
        misses fall back to the directory.  Because writes are atomic,
        the directory is safe to share between processes — N caches
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
        self._entries: "OrderedDict[str, InferenceResult]" = OrderedDict()
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
        """Look up a fingerprint; returns ``None`` on a miss.

        Unseeded fingerprints (``unseeded/...``) always miss.  A hit
        refreshes the entry's LRU recency.  When a persistence directory
        is configured, an in-memory miss consults it and re-warms the
        memory tier on success.
        """
        if key.startswith("unseeded/"):
            with self._lock:
                self._misses += 1
            return None
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self._hits += 1
                return self._entries[key]
        result = self._load_persisted(key)
        with self._lock:
            if result is not None:
                self._hits += 1
                self._disk_loads += 1
                self._store(key, result)
            else:
                self._misses += 1
        return result

    def put(self, key: str, result: InferenceResult) -> None:
        """Store a result under its fingerprint (and persist if enabled).

        Unseeded fingerprints are not stored — the work they label is
        not reproducible.
        """
        if key.startswith("unseeded/"):
            return
        with self._lock:
            self._store(key, result)
        if self._persist_dir is not None:
            try:
                self._persist_dir.mkdir(parents=True, exist_ok=True)
                save_result(result, self._persist_dir / f"{key}.json")
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

        A fresh process (a pre-fork server child, a respawned worker)
        pointed at a shared ``persist_dir`` starts with an empty memory
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
            result = self._load_persisted(key)
            if result is None:
                continue
            with self._lock:
                self._store(key, result)
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

    def _store(self, key: str, result: InferenceResult) -> None:
        # Caller holds the lock.
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._evictions += 1
            _log.debug("evicted cache entry %s", evicted)

    def _load_persisted(self, key: str) -> Optional[InferenceResult]:
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
            payload = json.loads(raw.decode("utf-8"))
            return result_from_payload(payload, source=str(path))
        except (UnicodeDecodeError, json.JSONDecodeError,
                DataFormatError) as error:
            # Spill writes are atomic (repro.io.atomic_write_text), so a
            # file that opened but does not decode is genuinely corrupt
            # (disk fault, schema drift) — never a torn in-progress
            # write.  Drop it so the failed parse is paid once, not on
            # every future lookup.
            self._drop_corrupt(path, read_stat, error)
            return None

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
