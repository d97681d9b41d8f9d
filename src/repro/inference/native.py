"""Build, cache and call the native SAPS anneal (``_anneal.c``).

The kernel is one C function, compiled by the system C compiler on
first use and loaded with stdlib :mod:`ctypes`, which releases the GIL
for the length of each call.  The shared library is cached per user in
``$XDG_CACHE_HOME/repro`` (``~/.cache/repro`` when that is unset or
relative), named by a SHA-256 of the source, the compile command and
the platform, so an edited source or another machine type builds its
own copy and every later process only loads it.  Deleting the
directory forces a rebuild.

A build writes to a temporary file in the cache directory and
``os.replace``-s it into place, so processes that build at once (the
workers of a pool, say) each end with a complete library and the
directory holds one.  The directory must belong to the user and be
writable by no one else: a library loaded from it runs in-process.

A host that cannot build the kernel gets an :class:`InferenceError`
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
from typing import Tuple

import numpy as np

from ..exceptions import InferenceError

#: The kernel's source, shipped as package data next to this module.
SOURCE = Path(__file__).with_name("_anneal.c")

#: Compiler and flags.  ``-ffp-contract=off`` and no ``-ffast-math`` /
#: ``-march``: the kernel must round exactly like the Python kernel it
#: replaced, on any machine of the same type.
COMPILE_COMMAND: Tuple[str, ...] = (
    "cc", "-O2", "-ffp-contract=off", "-fPIC", "-shared",
)

#: Seconds a build may take before it counts as failed.
_BUILD_TIMEOUT = 120.0

#: ``saps_anneal_block`` return codes (``_anneal.c``).
BLOCK_DONE, RESYNC, DRIFTED = 0, 1, 2

#: Uniforms drawn per iteration: Rotate 3 + 1, Reverse 2 + 1,
#: RandomSwap 2 + 1 (``DRAWS`` in ``_anneal.c``).
DRAWS_PER_ITERATION = 10

#: The largest ``int64_t``, the C type of the kernel's integer arguments.
_INT64_MAX = 2**63 - 1


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
            f"cannot create the SAPS kernel cache {path}: {error}"
        ) from None
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise InferenceError(
            f"the SAPS kernel cache {path} must be owned by this user "
            f"and writable by no one else (mode "
            f"{info.st_mode & 0o777:o}); fix or delete it"
        )
    return path


def library_path() -> Path:
    """The compiled kernel in :func:`cache_dir`, built if missing."""
    try:
        source = SOURCE.read_bytes()
    except OSError as error:
        raise InferenceError(
            f"cannot read the SAPS kernel source: {error}") from None
    key = hashlib.sha256()
    for part in (source, " ".join(COMPILE_COMMAND).encode(),
                 f"{sys.platform} {platform.machine()}".encode()):
        key.update(part)
        key.update(b"\0")
    directory = cache_dir()
    target = directory / f"anneal-{key.hexdigest()[:32]}.so"
    if target.exists():
        return target
    try:
        handle, partial = tempfile.mkstemp(prefix=".anneal-", suffix=".so",
                                           dir=directory)
    except OSError as error:
        raise InferenceError(
            f"cannot write to the SAPS kernel cache {directory}: {error}"
        ) from None
    os.close(handle)
    command = [*COMPILE_COMMAND, "-o", partial, str(SOURCE), "-lm"]
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
                f"cannot write to the SAPS kernel cache {directory}: "
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
        "cannot build the native SAPS kernel (a C compiler is required): "
        f"`{' '.join(command)}` failed: {detail}"
    )


def load():
    """The kernel's ``saps_anneal_block``, built or loaded once per
    process (see the module docstring).

    A failed build or load is remembered too, and raised again on every
    later call: a host whose compiler fails runs it once per process,
    not once per anneal.  Fix the cause and start a new process.
    """
    kernel = _build_and_load()
    if isinstance(kernel, str):
        raise InferenceError(kernel)
    return kernel


@functools.lru_cache(maxsize=None)
def _build_and_load():
    """:func:`load`'s kernel, or the message of the error building or
    loading it raised."""
    try:
        return _open(library_path())
    except InferenceError as error:
        return str(error)


def _open(path: Path):
    """``saps_anneal_block`` of the library at ``path``."""
    import ctypes

    try:
        library = ctypes.CDLL(str(path))
    except OSError as error:
        raise InferenceError(
            f"cannot load the native SAPS kernel {path}: {error}; delete "
            f"{path.parent} to rebuild it"
        ) from None
    kernel = library.saps_anneal_block
    pointer, int64 = ctypes.c_void_p, ctypes.c_int64
    kernel.argtypes = [pointer, pointer, int64, pointer, pointer, pointer,
                       int64, ctypes.c_double, int64, int64, pointer, pointer]
    kernel.restype = int64
    return kernel


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
    return load()(cost.ctypes.data, diff.ctypes.data, n, path.ctypes.data,
                  best_path.ctypes.data, draws.ctypes.data, iterations,
                  cooling, resync_every, int(debug), state.ctypes.data,
                  counts.ctypes.data)


def _check(array: np.ndarray, dtype, shape, name: str,
           writable: bool = False) -> None:
    if not (isinstance(array, np.ndarray) and array.dtype == dtype
            and array.shape == shape and array.flags.c_contiguous
            and (array.flags.writeable or not writable)):
        raise InferenceError(
            f"SAPS kernel buffer {name!r} must be a C-contiguous "
            f"{np.dtype(dtype).name} array of shape {shape}"
        )
