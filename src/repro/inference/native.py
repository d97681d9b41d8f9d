"""Build, cache and call the native library.

The library holds four C functions, each in its own source file:

* ``saps_anneal_block`` (``_anneal.c``), Step 4's SAPS anneal, called
  through :func:`anneal_block`;
* ``vote_rows_scan`` (``_vote_rows.c``), which lifts the vote rows out
  of a JSON request body, called through :func:`vote_rows`;
* ``crh_iterate`` (``_crh.c``), Step 1's CRH iteration loop, called
  through :func:`crh_iterate`;
* ``direct_preferences_json`` (``_result_json.c``), which writes a
  result's ``direct_preferences`` member as ``json.dumps`` would,
  called through :func:`direct_preferences_json`.

It is compiled by the system C compiler on first use and loaded with
stdlib :mod:`ctypes`, which releases the GIL for the length of each
call.  The shared library is cached per user in
``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` when that is unset or
relative), named by a SHA-256 of the sources, the compile command and
the platform, so an edited source or another machine type builds its
own copy and every later process only loads it.  Deleting the
directory forces a rebuild.

A build writes to a temporary file in the cache directory and
``os.replace``-s it into place, so processes that build at once (the
workers of a pool, say) each end with a complete library and the
directory holds one.  The directory must belong to the user and be
writable by no one else: a library loaded from it runs in-process.

A host that cannot build the library gets an :class:`InferenceError`
naming the compile command and the tail of the compiler's stderr.
There is no pure-Python fallback; ``repro serve`` calls :func:`load`
before it forks its pool, so such a host fails at start-up.
"""

from __future__ import annotations

import functools
import hashlib
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from ..exceptions import InferenceError

#: The library's sources, shipped as package data next to this module.
SOURCES: Tuple[Path, ...] = tuple(
    Path(__file__).with_name(name)
    for name in ("_anneal.c", "_vote_rows.c", "_crh.c", "_result_json.c"))

#: Compiler and flags.  ``-ffp-contract=off`` and no ``-ffast-math`` /
#: ``-march``: the anneal and the CRH loop must round exactly like the
#: Python kernels they replaced, on any machine of the same type.
COMPILE_COMMAND: Tuple[str, ...] = (
    "cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared",
)

#: Seconds a build may take before it counts as failed.
_BUILD_TIMEOUT = 120.0

#: ``saps_anneal_block`` return codes (``_anneal.c``).
BLOCK_DONE, RESYNC, DRIFTED = 0, 1, 2

#: ``vote_rows_scan``'s return code for a completed scan
#: (``_vote_rows.c``).
SCANNED = 0

#: Uniforms drawn per iteration: Rotate 3 + 1, Reverse 2 + 1,
#: RandomSwap 2 + 1 (``DRAWS`` in ``_anneal.c``).
DRAWS_PER_ITERATION = 10

#: The largest ``int64_t``, the C type of the kernel's integer arguments.
_INT64_MAX = 2**63 - 1

#: The output bytes ``direct_preferences_json`` needs per member, and
#: the exponent range of its power-of-ten table (``POW10_MIN`` and
#: ``POW10_MAX`` in ``_result_json.c``).
_MAX_MEMBER = 72
_POW10_RANGE = range(-292, 325)

#: Bytes of one ``struct lex_key`` (``_result_json.c``).
_LEX_KEY_BYTES = 16


def cache_dir() -> Path:
    """The private per-user directory the library is cached in, created
    (mode 0700) if missing.

    Raises :class:`InferenceError` when it cannot be created, belongs
    to another user, or is group- or world-writable.
    """
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = Path(base) / "repro"
    try:
        path.mkdir(mode=0o700, parents=True, exist_ok=True)
        info = path.stat()
    except OSError as error:
        raise InferenceError(
            f"cannot create the native library cache {path}: {error}"
        ) from None
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise InferenceError(
            f"the native library cache {path} must be owned by this user "
            f"and writable by no one else (mode "
            f"{info.st_mode & 0o777:o}); fix or delete it"
        )
    return path


def library_path() -> Path:
    """The compiled library in :func:`cache_dir`, built if missing."""
    try:
        sources = [source.read_bytes() for source in SOURCES]
    except OSError as error:
        raise InferenceError(
            f"cannot read the native library source: {error}") from None
    key = hashlib.sha256()
    for part in (*sources, " ".join(COMPILE_COMMAND).encode(),
                 f"{sys.platform} {platform.machine()}".encode()):
        key.update(part)
        key.update(b"\0")
    directory = cache_dir()
    target = directory / f"native-{key.hexdigest()[:32]}.so"
    if target.exists():
        return target
    try:
        handle, partial = tempfile.mkstemp(prefix=".native-", suffix=".so",
                                           dir=directory)
    except OSError as error:
        raise InferenceError(
            f"cannot write to the native library cache {directory}: "
            f"{error}") from None
    os.close(handle)
    command = [*COMPILE_COMMAND, "-o", partial, *map(str, SOURCES), "-lm"]
    try:
        try:
            completed = subprocess.run(
                command, capture_output=True, text=True,
                timeout=_BUILD_TIMEOUT,
            )
        except (OSError, subprocess.TimeoutExpired) as error:
            raise _build_error(command, str(error)) from None
        if completed.returncode != 0:
            raise _build_error(
                command, f"exit status {completed.returncode}: "
                + _tail(completed.stderr))
        try:
            os.replace(partial, target)
        except OSError as error:
            raise InferenceError(
                f"cannot write to the native library cache {directory}: "
                f"{error}") from None
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    return target


def _tail(stderr: str, lines: int = 4, chars: int = 600) -> str:
    """The last lines of ``stderr`` on one line."""
    tail = " | ".join(line.strip() for line in stderr.strip().splitlines()
                      [-lines:] if line.strip())
    return tail[-chars:] if tail else "no output"


def _build_error(command, detail: str) -> InferenceError:
    return InferenceError(
        "cannot build the native library (a C compiler is required): "
        f"`{' '.join(command)}` failed: {detail}"
    )


def load():
    """The native library, built or loaded once per process (see the
    module docstring), with both functions' signatures declared.

    A failed build or load is remembered too, and raised again on every
    later call: a host whose compiler fails runs it once per process,
    not once per call.  Fix the cause and start a new process.
    """
    library = _build_and_load()
    if isinstance(library, str):
        raise InferenceError(library)
    return library


@functools.lru_cache(maxsize=None)
def _build_and_load():
    """:func:`load`'s library, or the message of the error building or
    loading it raised."""
    try:
        return _open(library_path())
    except InferenceError as error:
        return str(error)


def _open(path: Path):
    """The library at ``path``, its functions' signatures declared."""
    import ctypes

    try:
        library = ctypes.CDLL(str(path))
    except OSError as error:
        raise InferenceError(
            f"cannot load the native library {path}: {error}; delete "
            f"{path.parent} to rebuild it"
        ) from None
    pointer, int64 = ctypes.c_void_p, ctypes.c_int64
    anneal = library.saps_anneal_block
    anneal.argtypes = [pointer, pointer, int64, pointer, pointer, pointer,
                       int64, ctypes.c_double, int64, int64, pointer, pointer]
    anneal.restype = int64
    scan = library.vote_rows_scan
    scan.argtypes = [pointer, int64, pointer, pointer, pointer]
    scan.restype = int64
    crh = library.crh_iterate
    crh.argtypes = [pointer, pointer, pointer, int64, int64, int64, pointer,
                    ctypes.c_double, ctypes.c_double, int64, pointer,
                    pointer, pointer, pointer, pointer, pointer]
    crh.restype = None
    encode = library.direct_preferences_json
    encode.argtypes = [pointer, pointer, pointer, int64, pointer, pointer,
                       pointer, pointer]
    encode.restype = int64
    return library


def anneal_block(cost: np.ndarray, diff: np.ndarray, path: np.ndarray,
                 best_path: np.ndarray, draws: np.ndarray, iterations: int,
                 cooling: float, resync_every: int, debug: bool,
                 state: np.ndarray, counts: np.ndarray) -> int:
    """Run the rest of a block of ``iterations`` (from move ``counts[1]``)
    in the kernel; returns :data:`BLOCK_DONE`, :data:`RESYNC` or
    :data:`DRIFTED`.  ``path``, ``best_path``, ``state`` and ``counts``
    are updated in place (layouts in ``_anneal.c``).

    Every buffer's dtype, contiguity and shape is checked first: the
    kernel trusts them.  ``path`` must be a permutation of ``0..n-1``
    (moves keep it one), which the caller checks once.
    """
    n = len(path)
    _check(cost, np.float64, (n, n), "cost")
    _check(diff, np.float64, (n, n), "diff")
    _check(path, np.int64, (n,), "path", writable=True)
    _check(best_path, np.int64, (n,), "best_path", writable=True)
    _check(draws, np.float64, (DRAWS_PER_ITERATION * iterations,), "draws")
    _check(state, np.float64, (4,), "state", writable=True)
    _check(counts, np.int64, (2,), "counts", writable=True)
    # ctypes wraps an int outside int64 instead of refusing it: 2**64
    # would reach the kernel as 0, a modulus of zero.
    if not (2 <= n and 1 <= iterations <= _INT64_MAX
            and 1 <= resync_every <= _INT64_MAX
            and 0 <= counts[1] <= 3 * iterations):
        raise InferenceError("SAPS kernel called out of contract")
    return load().saps_anneal_block(
        cost.ctypes.data, diff.ctypes.data, n, path.ctypes.data,
        best_path.ctypes.data, draws.ctypes.data, iterations, cooling,
        resync_every, int(debug), state.ctypes.data, counts.ctypes.data)


def vote_rows(body: bytes) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The vote rows ``vote_rows_scan`` lifts out of the JSON ``body``
    (rules in ``_vote_rows.c``): an int64 ``(k, 3)`` array of every
    lifted value's rows in document order, and an int64 ``(s, 3)``
    array of ``[start, end, rows]`` per lifted value.  ``None`` when
    nothing was lifted or the body holds a ``NaN`` or ``Infinity`` of
    its own.

    A counting call sizes both arrays exactly; a second call fills them.
    """
    scan = load().vote_rows_scan
    counts = np.zeros(2, dtype=np.int64)
    if scan(body, len(body), None, None, counts.ctypes.data) != SCANNED \
            or not counts[1]:
        return None
    rows = np.empty((int(counts[0]), 3), dtype=np.int64)
    spans = np.empty((int(counts[1]), 3), dtype=np.int64)
    if scan(body, len(body), rows.ctypes.data, spans.ctypes.data,
            counts.ctypes.data) != SCANNED:
        raise InferenceError("vote row scan counted differently twice")
    return rows, spans


def crh_iterate(pair_idx: np.ndarray, worker_idx: np.ndarray,
                value: np.ndarray, chi2_scale: np.ndarray, truth: np.ndarray,
                quality: np.ndarray, min_error: float, tolerance: float,
                max_iterations: int) -> Tuple[int, bool, np.ndarray]:
    """Run Step 1's CRH loop (Eq. 4-5, ``_crh.c``) from ``truth`` and
    ``quality``, which end as the last iteration's; returns the
    iteration count, whether the deltas fell below ``tolerance``, and
    an ``(max_iterations, 2)`` array whose first rows hold each
    iteration's ``(pref_delta, qual_delta)``: the mean absolute
    change.

    Every buffer's dtype, contiguity and shape is checked first, and
    every vote's pair and worker index must address ``truth`` and
    ``quality``: the kernel trusts them.
    """
    n_votes, n_pairs, n_workers = len(pair_idx), len(truth), len(quality)
    _check(pair_idx, np.int64, (n_votes,), "pair_idx")
    _check(worker_idx, np.int64, (n_votes,), "worker_idx")
    _check(value, np.float64, (n_votes,), "value")
    _check(chi2_scale, np.float64, (n_workers,), "chi2_scale")
    _check(truth, np.float64, (n_pairs,), "truth", writable=True)
    _check(quality, np.float64, (n_workers,), "quality", writable=True)
    if not (n_votes and 1 <= max_iterations <= _INT64_MAX
            and 0 <= pair_idx.min() and pair_idx.max() < n_pairs
            and 0 <= worker_idx.min() and worker_idx.max() < n_workers):
        raise InferenceError("CRH kernel called out of contract")
    deltas = np.empty((max_iterations, 2), dtype=np.float64)
    index_scratch = np.empty(n_pairs + n_workers + 2 + 2 * n_votes,
                             dtype=np.int64)
    value_scratch = np.empty(n_pairs + n_workers + 2 * n_votes,
                             dtype=np.float64)
    counts = np.empty(2, dtype=np.int64)
    load().crh_iterate(
        pair_idx.ctypes.data, worker_idx.ctypes.data, value.ctypes.data,
        n_votes, n_pairs, n_workers, chi2_scale.ctypes.data, min_error,
        tolerance, max_iterations, truth.ctypes.data,
        quality.ctypes.data, deltas.ctypes.data, index_scratch.ctypes.data,
        value_scratch.ctypes.data, counts.ctypes.data)
    return int(counts[0]), bool(counts[1]), deltas


def direct_preferences_json(lo: np.ndarray, hi: np.ndarray,
                            values: np.ndarray) -> bytes:
    """The JSON object ``{"lo,hi": value}`` of the three columns,
    byte for byte as ``json.dumps(..., sort_keys=True)`` writes it
    (rules in ``_result_json.c``)."""
    n = len(values)
    _check(lo, np.int64, (n,), "lo")
    _check(hi, np.int64, (n,), "hi")
    _check(values, np.float64, (n,), "values")
    out = np.empty(_MAX_MEMBER * n + 2, dtype=np.uint8)
    keys = np.empty(2 * n * _LEX_KEY_BYTES, dtype=np.uint8)
    order = np.empty(2 * n, dtype=np.int64)
    length = load().direct_preferences_json(
        lo.ctypes.data, hi.ctypes.data, values.ctypes.data, n,
        _pow10_table().ctypes.data, keys.ctypes.data, order.ctypes.data,
        out.ctypes.data)
    return out[:length].tobytes()


@functools.lru_cache(maxsize=None)
def _pow10_table() -> np.ndarray:
    """``_result_json.c``'s table: for each ``e`` of :data:`_POW10_RANGE`,
    ``g = floor(10**e * 2**(127 - floor(log2(10**e)))) + 1`` as its
    high and low 64-bit words, in exact integer arithmetic."""
    words = []
    for e in _POW10_RANGE:
        if e >= 0:
            power = 10**e
            shift = 127 - (power.bit_length() - 1)
            g = (power << shift if shift >= 0 else power >> -shift) + 1
        else:
            # floor(log2(10**e)) = -bit_length(10**-e): no power of ten
            # above 1 is a power of two.
            power = 10**-e
            g = (1 << (127 + power.bit_length())) // power + 1
        words += (g >> 64, g & (2**64 - 1))
    table = np.array(words, dtype=np.uint64)
    table.setflags(write=False)
    return table


def _check(array: np.ndarray, dtype, shape, name: str,
           writable: bool = False) -> None:
    if not (isinstance(array, np.ndarray) and array.dtype == dtype
            and array.shape == shape and array.flags.c_contiguous
            and (array.flags.writeable or not writable)):
        raise InferenceError(
            f"native kernel buffer {name!r} must be a C-contiguous "
            f"{np.dtype(dtype).name} array of shape {shape}"
        )
