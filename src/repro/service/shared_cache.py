"""Cross-process coordination for the result cache's spill directory.

One spill directory can outlive the process that wrote it and be
shared by several at once: a restarted ``repro serve`` warms from the
spill its predecessor left, and concurrent ``repro batch --cache-dir``
runs read and write one directory.  The paper's non-interactive setting
makes every ranking job independent, so those processes only need the
*cache* to be shared, not the compute.  Two primitives make that
sharing safe and cheap:

:class:`FileLock`
    An advisory cross-process lock over one lock file, built on
    ``fcntl.flock``.  flock ties the lock to the open file description,
    so two ``FileLock`` holders exclude each other whether they live in
    one process (separate opens of the same path conflict) or in many.
    On platforms without :mod:`fcntl` it degrades to a process-local
    lock — correct for a single process, best-effort across several —
    and the degradation is observable via :data:`HAVE_FCNTL`.

:class:`SpillIndex`
    An append-only key journal (``cache.index``) next to the spill
    files, written under the directory's ``cache.lock``.  Appends are
    serialized across processes; the *last* occurrence of a key is its
    most recent write, so deduplicating from the tail yields keys in
    recency order — which is what lets :meth:`SpillIndex.prune` bound
    the spill directory by deleting oldest-first, and what lets a fresh
    process warm its memory tier with the hottest entries first.

The spill *files* themselves need no locking: :func:`repro.io.
save_result` writes them atomically (tempfile + ``os.replace``), so any
file a reader can open is complete.  The lock only guards the index and
the prune/rewrite cycle.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, List, Optional, Union

from ..diagnostics import get_logger
from ..exceptions import ConfigurationError

try:  # pragma: no cover - import guard exercised only off-POSIX
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback
    fcntl = None  # type: ignore[assignment]

_log = get_logger("service.shared_cache")

#: True when real cross-process locking (``fcntl.flock``) is available.
HAVE_FCNTL = fcntl is not None

#: File names the shared tier owns inside a spill directory.  Both are
#: invisible to the ``<key>.json`` spill namespace.
INDEX_FILENAME = "cache.index"
LOCK_FILENAME = "cache.lock"

#: Journal compaction trigger: rewrite once the journal holds this many
#: times more lines than unique keys (and at least _COMPACT_FLOOR lines).
_COMPACT_FACTOR = 8
_COMPACT_FLOOR = 256

# Process-local fallback locks for platforms without fcntl, keyed by
# resolved lock-file path so two FileLock instances still exclude.
_fallback_locks: dict = {}
_fallback_registry_lock = threading.Lock()


class FileLock:
    """Advisory lock over one lock file, shared- or exclusive-mode.

    Usage::

        lock = FileLock(spill_dir / "cache.lock")
        with lock.exclusive():
            ...  # mutate the index / prune spill files
        with lock.shared():
            ...  # read the index

    Each acquisition opens its own file descriptor, so concurrent
    holders in the *same* process exclude each other too (flock
    conflicts between distinct open file descriptions).  Locks release
    on file-descriptor close, so a crashed process can never leave the
    directory wedged — the kernel drops its locks with it.
    """

    def __init__(self, path: Union[str, Path]):
        self._path = Path(path)

    @property
    def path(self) -> Path:
        return self._path

    @contextmanager
    def exclusive(self) -> Iterator[None]:
        """Hold the write lock (one holder total)."""
        with self._hold(exclusive=True):
            yield

    @contextmanager
    def shared(self) -> Iterator[None]:
        """Hold the read lock (any number of shared holders)."""
        with self._hold(exclusive=False):
            yield

    @contextmanager
    def _hold(self, exclusive: bool) -> Iterator[None]:
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            with _fallback_lock(self._path):
                yield
            return
        self._path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH)
            yield
        finally:
            # Closing the descriptor releases the flock.
            os.close(fd)

    def __repr__(self) -> str:
        return f"FileLock({str(self._path)!r})"


def _fallback_lock(path: Path) -> threading.RLock:  # pragma: no cover
    key = str(path.resolve()) if path.parent.exists() else str(path)
    with _fallback_registry_lock:
        return _fallback_locks.setdefault(key, threading.RLock())


class SpillIndex:
    """On-disk index of the keys spilled into one cache directory.

    The index is a newline-separated journal of keys: every persisted
    write appends its key (under the exclusive lock), so replaying the
    journal and keeping each key's *last* occurrence reconstructs all
    keys in oldest-to-newest write order.  The journal self-compacts
    once rewrites dominate, and :meth:`rebuild` recovers it from a
    plain directory scan (pre-index spill directories, deleted index).
    """

    def __init__(self, directory: Union[str, Path]):
        self._dir = Path(directory)
        self._index_path = self._dir / INDEX_FILENAME
        self._lock = FileLock(self._dir / LOCK_FILENAME)

    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def path(self) -> Path:
        return self._index_path

    @property
    def lock(self) -> FileLock:
        return self._lock

    # -- writes -------------------------------------------------------------

    def record(self, key: str) -> None:
        """Journal one persisted key (called after its spill file landed)."""
        if "\n" in key or "/" in key or not key:
            raise ConfigurationError(
                f"invalid spill index key: {key!r}"
            )
        self._dir.mkdir(parents=True, exist_ok=True)
        with self._lock.exclusive():
            with open(self._index_path, "a") as handle:
                handle.write(key + "\n")
            self._maybe_compact()

    def prune(self, max_files: int) -> List[str]:
        """Bound the spill directory to ``max_files`` entries.

        Deletes the oldest spill files beyond the bound (newest writes
        survive), drops keys whose files are already gone, and rewrites
        the journal to the survivor set — all under the exclusive lock,
        so two processes pruning concurrently cannot double-delete or
        tear the index.  Returns the keys whose files were removed.
        """
        if max_files < 1:
            raise ConfigurationError(
                f"max_files must be >= 1, got {max_files}"
            )
        removed: List[str] = []
        with self._lock.exclusive():
            keys = [key for key in self._read_keys()
                    if (self._dir / f"{key}.json").exists()]
            survivors = keys[-max_files:]
            for key in keys[: max(0, len(keys) - max_files)]:
                try:
                    (self._dir / f"{key}.json").unlink()
                except FileNotFoundError:
                    continue
                except OSError as error:
                    _log.warning("could not prune spill file %s: %s",
                                 key, error)
                    survivors.insert(0, key)
                    continue
                removed.append(key)
            self._rewrite(survivors)
        if removed:
            _log.debug("pruned %d spill file(s)", len(removed))
        return removed

    def rebuild(self) -> List[str]:
        """Regenerate the journal from a directory scan (oldest first).

        Used when the index is missing or stale relative to the spill
        files (a pre-index directory, or files written by an older
        library).  Ordering falls back to file modification time.
        """
        with self._lock.exclusive():
            files = sorted(
                self._dir.glob("*.json"),
                key=lambda p: (p.stat().st_mtime, p.name),
            )
            keys = [path.stem for path in files]
            self._rewrite(keys)
        return keys

    # -- reads --------------------------------------------------------------

    def keys(self) -> List[str]:
        """All journaled keys, oldest write first (deduplicated)."""
        with self._lock.shared():
            return self._read_keys()

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return key in set(self.keys())

    # -- internals (caller holds the lock) ----------------------------------

    def _read_keys(self) -> List[str]:
        try:
            lines = self._index_path.read_text().splitlines()
        except FileNotFoundError:
            return []
        except OSError as error:
            _log.warning("cannot read spill index %s: %s",
                         self._index_path, error)
            return []
        seen = set()
        ordered: List[str] = []
        for key in reversed(lines):
            if key and key not in seen:
                seen.add(key)
                ordered.append(key)
        ordered.reverse()
        return ordered

    def _rewrite(self, keys: List[str]) -> None:
        text = "".join(key + "\n" for key in keys)
        tmp = self._index_path.with_name(self._index_path.name + ".tmp")
        tmp.write_text(text)
        os.replace(tmp, self._index_path)

    def _maybe_compact(self) -> None:
        try:
            lines = self._index_path.read_text().splitlines()
        except OSError:
            return
        if len(lines) < _COMPACT_FLOOR:
            return
        unique = len(set(lines))
        if len(lines) > _COMPACT_FACTOR * max(unique, 1):
            self._rewrite(self._read_keys())


def spill_index_for(
    persist_dir: Optional[Union[str, Path]],
) -> Optional[SpillIndex]:
    """Build a :class:`SpillIndex` for a cache's persist dir (or None)."""
    if persist_dir is None:
        return None
    return SpillIndex(persist_dir)
