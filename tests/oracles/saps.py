"""Step 4 oracles: the two Python SAPS anneals the native kernel replaced.

* :func:`python_search_report` runs the incremental Python kernel
  (:func:`_anneal_python`) that :func:`repro.inference.saps._anneal_incremental`
  ran before it moved to C (``src/repro/inference/_anneal.c``).  Same
  draws, same arithmetic in the same order, so the native kernel must
  match it exactly: ranking, ``log_preference`` bit for bit, and
  accepted moves.
* :func:`reference_search_report` runs the full-re-sum anneal
  (:func:`_anneal_reference`) that preceded both: every proposal copies
  the path and re-sums all ``n - 1`` edges.  It draws from each
  restart's stream in the same order (three index floats + one
  acceptance float per Rotate, two + one per Reverse/RandomSwap), so a
  fixed seed accepts the same move sequence; its cost is a different
  sum, equal to 1e-9.

Both drive their kernel through the production restart plan —
:func:`~repro.inference.saps._restart_vertices`,
:func:`~repro.inference.saps._initial_path` and one
:func:`~repro.rng.spawn_rngs` child stream per restart — so their
reports are comparable field for field with
:func:`~repro.inference.saps.saps_search_report` (``config.polish`` is
not applied).
"""

from __future__ import annotations

import math
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SAPSConfig
from repro.inference.delta import (
    apply_rotate,
    apply_swap,
    path_cost,
    reverse_diff_matrix,
)
from repro.inference.saps import (
    SAPSReport,
    _cost_matrix,
    _initial_path,
    _restart_vertices,
    _schedule_iterations,
)
from repro.inference.taps import _as_matrix
from repro.rng import SeedLike, ensure_rng, spawn_rngs
from repro.types import Ranking
from repro.workers.pool import parallel_map

#: Iterations' worth of random draws fetched per block by
#: :func:`_anneal_python` (10 floats per iteration: 4 + 3 + 3).  The
#: native kernel uses bigger blocks; ``Generator.random`` fills in
#: order, so the block size never changes the draws.
_RNG_BLOCK = 256

#: Floats consumed per iteration (Rotate 4, Reverse 3, RandomSwap 3).
_DRAWS_PER_ITERATION = 10

#: A restart kernel: ``(cost, initial, iterations, config, stream)`` to
#: ``(best_cost, best_path, accepted, proposed)``.
Anneal = Callable[..., Tuple[float, List[int], int, int]]


def python_search_report(
    weights: np.ndarray,
    config: Optional[SAPSConfig] = None,
    rng: SeedLike = None,
    warm_start: Optional[Sequence[int]] = None,
) -> SAPSReport:
    """:func:`~repro.inference.saps.saps_search_report` on the Python
    incremental kernel (``config.polish`` is not applied)."""
    return _search_report(weights, config, rng, warm_start, _anneal_python)


def reference_search_report(
    weights: np.ndarray,
    config: Optional[SAPSConfig] = None,
    rng: SeedLike = None,
    warm_start: Optional[Sequence[int]] = None,
) -> SAPSReport:
    """:func:`~repro.inference.saps.saps_search_report` on the
    full-re-sum anneal (``config.polish`` is not applied)."""
    return _search_report(weights, config, rng, warm_start,
                          _anneal_reference)


def _search_report(weights, config: Optional[SAPSConfig], rng: SeedLike,
                   warm_start: Optional[Sequence[int]],
                   anneal: Anneal) -> SAPSReport:
    """The production restart plan around ``anneal``.

    Restarts run through ``parallel_map`` with the config's
    ``parallel_restarts`` and ``backend``, like production, and reduce
    with the same strict ``<`` (the earliest restart keeps ties).
    """
    config = config if config is not None else SAPSConfig()
    matrix = _as_matrix(weights)
    n = matrix.shape[0]
    if n == 1:
        return SAPSReport(Ranking([0]), 0.0, 0, config.iterations, 0, 0)
    cost = _cost_matrix(matrix)
    generator = ensure_rng(rng)
    start_vertices = _restart_vertices(matrix, config, n, generator)
    if warm_start is not None:
        start_vertices[0] = np.array(warm_start, dtype=np.int64)
    iterations = _schedule_iterations(config, n)
    streams = spawn_rngs(generator, len(start_vertices))
    tasks = [(matrix, cost, start, iterations, config, stream, anneal)
             for start, stream in zip(start_vertices, streams)]
    outcomes = parallel_map(_restart, tasks,
                            max_workers=config.parallel_restarts,
                            backend=config.backend)

    best_cost = math.inf
    best_order: List[int] = []
    accepted = 0
    proposed = 0
    for restart_cost, restart_path, restart_accepted, restart_proposed \
            in outcomes:
        accepted += restart_accepted
        proposed += restart_proposed
        if restart_cost < best_cost:
            best_cost = restart_cost
            best_order = restart_path
    return SAPSReport(
        ranking=Ranking(best_order),
        log_preference=-best_cost,
        restarts=len(start_vertices),
        iterations_per_restart=iterations,
        accepted_moves=accepted,
        proposed_moves=proposed,
    )


def _restart(task) -> Tuple[float, List[int], int, int]:
    """One restart; module-level so the process backend can pickle it."""
    matrix, cost, start, iterations, config, stream, anneal = task
    if isinstance(start, np.ndarray):
        initial = start
    else:
        initial = _initial_path(matrix, cost, start, config, stream)
    return anneal(cost, initial, iterations, config, stream)


# ---------------------------------------------------------------------------
# The Python incremental kernel
# ---------------------------------------------------------------------------

def cost_rows(cost: np.ndarray) -> List[List[float]]:
    """The cost matrix as a nested list for fast scalar lookups."""
    return cost.tolist()


def reverse_diff_rows(cost: np.ndarray) -> List[List[float]]:
    """:func:`~repro.inference.delta.reverse_diff_matrix` as a nested
    list (scalar lookups)."""
    return reverse_diff_matrix(cost).tolist()


def _anneal_python(
    cost: np.ndarray,
    initial: np.ndarray,
    iterations: int,
    config: SAPSConfig,
    stream: np.random.Generator,
) -> Tuple[float, List[int], int, int]:
    """One restart with incremental move evaluation, in Python.

    The path is a Python list (scalar list-of-lists lookups beat
    ``ndarray[a, b]`` severalfold here) kept beside two edge lists:
    ``forward[i] = diff[p_i][p_{i+1}]``, the change in ``d(P)`` from
    flipping edge ``i``, and its mirror ``backward[i] = -forward[i]``.
    Rotate and RandomSwap cost O(1) boundary lookups; a Reverse's
    internal change sums a slice of ``forward`` left to right from 0.0
    (an explicit loop: from Python 3.12 ``sum()`` of floats is
    compensated, which would change the last bits).
    The deltas are those of :mod:`repro.inference.delta`, inlined.
    Move indices are decoded per block of draws (:func:`_slice_bounds`).
    Requires every off-diagonal cost to be finite (:func:`_cost_matrix`
    checks).
    """
    rows = cost_rows(cost)
    diff = reverse_diff_rows(cost)
    n = len(initial)
    path: List[int] = [int(v) for v in initial]
    forward = [diff[a][b] for a, b in zip(path, path[1:])]
    backward = [diff[b][a] for a, b in zip(path, path[1:])]
    current = path_cost(cost, path)
    best_cost = current
    best_path = path[:]
    accepted = 0
    temperature = config.temperature
    cooling = config.cooling_rate
    resync_every = config.resync_every
    debug = config.debug_checks
    exp = math.exp

    done = 0
    while done < iterations:
        todo = min(iterations - done, _RNG_BLOCK)
        done += todo
        block = stream.random(_DRAWS_PER_ITERATION * todo).reshape(
            todo, _DRAWS_PER_ITERATION)
        rot_first, rot_last = _slice_bounds(block[:, 0], block[:, 1], n)
        rot_middle = rot_first + 1 + (
            block[:, 2] * (rot_last - rot_first - 1)).astype(np.int64)
        rev_first, rev_last = _slice_bounds(block[:, 4], block[:, 5], n)
        # A swap is symmetric in (i, j); order them once here.
        swap_a = (block[:, 7] * n).astype(np.int64)
        swap_b = (block[:, 8] * n).astype(np.int64)
        swap_i = np.minimum(swap_a, swap_b)
        swap_j = np.maximum(swap_a, swap_b)
        # .tolist(): scalar reads from a Python list are ~3x cheaper
        # than ndarray item access.
        for (first, middle, last, u, rfirst, rlast, v, i, j, w) in zip(
                rot_first.tolist(), rot_middle.tolist(), rot_last.tolist(),
                block[:, 3].tolist(), rev_first.tolist(), rev_last.tolist(),
                block[:, 6].tolist(), swap_i.tolist(), swap_j.tolist(),
                block[:, 9].tolist()):
            # Rotate(first, middle, last): P[first:last] becomes
            # P[middle:last] + P[first:middle].
            a = path[first]
            b = path[middle - 1]
            m = path[middle]
            e = path[last - 1]
            delta = rows[e][a] - rows[b][m]
            if first > 0:
                p = path[first - 1]
                delta += rows[p][m] - rows[p][a]
            if last < n:
                q = path[last]
                delta += rows[b][q] - rows[e][q]
            if delta < 0.0 or u < exp(-delta / temperature):
                path[first:last] = path[middle:last] + path[first:middle]
                forward[first:last - 1] = (forward[middle:last - 1]
                                           + [diff[e][a]]
                                           + forward[first:middle - 1])
                backward[first:last - 1] = (backward[middle:last - 1]
                                            + [diff[a][e]]
                                            + backward[first:middle - 1])
                if first > 0:
                    forward[first - 1] = diff[p][m]
                    backward[first - 1] = diff[m][p]
                if last < n:
                    forward[last - 1] = diff[b][q]
                    backward[last - 1] = diff[q][b]
                current += delta
                accepted += 1
                if debug:
                    _check_running(cost, diff, path, forward, backward,
                                   current)
                if accepted % resync_every == 0:
                    current = path_cost(cost, path)
                if current < best_cost:
                    best_cost, best_path = current, path[:]

            # Reverse(first, last): every internal edge flips.
            first, last = rfirst, rlast
            a = path[first]
            e = path[last - 1]
            delta = 0.0
            for flip in forward[first:last - 1]:
                delta += flip
            if first > 0:
                p = path[first - 1]
                delta += rows[p][e] - rows[p][a]
            if last < n:
                q = path[last]
                delta += rows[a][q] - rows[e][q]
            if delta < 0.0 or v < exp(-delta / temperature):
                path[first:last] = path[first:last][::-1]
                forward[first:last - 1], backward[first:last - 1] = (
                    backward[first:last - 1][::-1],
                    forward[first:last - 1][::-1])
                if first > 0:
                    forward[first - 1] = diff[p][e]
                    backward[first - 1] = diff[e][p]
                if last < n:
                    forward[last - 1] = diff[a][q]
                    backward[last - 1] = diff[q][a]
                current += delta
                accepted += 1
                if debug:
                    _check_running(cost, diff, path, forward, backward,
                                   current)
                if accepted % resync_every == 0:
                    current = path_cost(cost, path)
                if current < best_cost:
                    best_cost, best_path = current, path[:]

            # RandomSwap(i, j), i <= j: at most four edges change.
            delta = 0.0
            if i != j:
                a = path[i]
                b = path[j]
                if j == i + 1:
                    delta = rows[b][a] - rows[a][b]
                if i > 0:
                    p = path[i - 1]
                    delta += rows[p][b] - rows[p][a]
                if j > i + 1:
                    s = path[i + 1]
                    delta += rows[b][s] - rows[a][s]
                    t = path[j - 1]
                    delta += rows[t][a] - rows[t][b]
                if j < n - 1:
                    q = path[j + 1]
                    delta += rows[a][q] - rows[b][q]
            if delta < 0.0 or w < exp(-delta / temperature):
                if i != j:
                    path[i], path[j] = path[j], path[i]
                    for k in (i - 1, i, j - 1, j):
                        if 0 <= k < n - 1:
                            forward[k] = diff[path[k]][path[k + 1]]
                            backward[k] = diff[path[k + 1]][path[k]]
                current += delta
                accepted += 1
                if debug:
                    _check_running(cost, diff, path, forward, backward,
                                   current)
                if accepted % resync_every == 0:
                    current = path_cost(cost, path)
                if current < best_cost:
                    best_cost, best_path = current, path[:]

            temperature *= cooling
            if temperature < 1e-300:
                temperature = 1e-300
    return best_cost, best_path, accepted, 3 * iterations


def _slice_bounds(
    first_draws: np.ndarray, last_draws: np.ndarray, n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Slice bounds ``(first, last)`` for a block of draws.

    For any ``n >= 2``: ``0 <= first < last <= n`` and
    ``last - first >= 2`` — ``first`` uniform on ``[0, n-2]``, ``last``
    uniform on ``[first+2, n]``.  Each bound is one float product
    truncated to an int, so a fixed seed gives fixed moves.
    """
    first = (first_draws * (n - 1)).astype(np.int64)
    return first, first + 2 + (last_draws * (n - first - 1)).astype(np.int64)


def _check_running(
    cost: np.ndarray,
    diff: List[List[float]],
    path: List[int],
    forward: List[float],
    backward: List[float],
    current: float,
) -> None:
    """``debug_checks``: the running cost matches a full re-sum and both
    edge lists match ``diff`` along the path."""
    resummed = path_cost(cost, path)
    assert abs(resummed - current) <= 1e-9 * max(1.0, abs(resummed)), (
        f"incremental cost drifted: running={current!r} "
        f"recomputed={resummed!r}"
    )
    assert forward == [diff[a][b] for a, b in zip(path, path[1:])], \
        "forward edge list out of sync with the path"
    assert backward == [diff[b][a] for a, b in zip(path, path[1:])], \
        "backward edge list out of sync with the path"



# ---------------------------------------------------------------------------
# The full-re-sum kernel
# ---------------------------------------------------------------------------

def _anneal_reference(
    cost: np.ndarray,
    initial: np.ndarray,
    iterations: int,
    config: SAPSConfig,
    stream: np.random.Generator,
) -> Tuple[float, List[int], int, int]:
    """One restart with full re-evaluation per proposal.

    Every proposal copies the path and re-sums all ``n - 1`` edges —
    the pre-optimisation cost model, and the benchmark baseline.
    """
    path = initial
    current = path_cost(cost, path)
    best_cost = current
    best_path = path.copy()
    accepted = 0
    proposed = 0
    temperature = config.temperature
    for _ in range(iterations):
        for move in (_rotate, _reverse, _random_swap):
            candidate = move(path, stream)
            cand_cost = path_cost(cost, candidate)
            proposed += 1
            # The acceptance draw is always consumed so both kernels
            # walk the random stream identically.
            u = stream.random()
            if cand_cost < current:
                accept = True
            elif math.isinf(cand_cost):
                accept = False
            else:
                accept = bool(
                    u < math.exp(-(cand_cost - current) / temperature)
                )
            if accept:
                path, current = candidate, cand_cost
                accepted += 1
                if current < best_cost:
                    best_cost = current
                    best_path = path.copy()
        temperature *= config.cooling_rate
        if temperature < 1e-300:
            temperature = 1e-300
    return best_cost, [int(v) for v in best_path], accepted, proposed


# ---------------------------------------------------------------------------
# Moves (pure forms: copy, then apply)
# ---------------------------------------------------------------------------

def _rotate(path: np.ndarray, generator) -> np.ndarray:
    """Rotate(P, first, middle, last): std::rotate semantics on a slice.

    ``_two_indices`` guarantees ``last - first >= 2``, so both blocks
    are non-empty and no degenerate-span guard is needed.
    """
    n = len(path)
    first, last = _two_indices(n, generator)
    middle = first + 1 + int(generator.random() * (last - first - 1))
    out = path.copy()
    apply_rotate(out, first, middle, last)
    return out


def _reverse(path: np.ndarray, generator) -> np.ndarray:
    """Reverse(P, first, last): reverse the slice between two indices."""
    n = len(path)
    first, last = _two_indices(n, generator)
    out = path.copy()
    out[first:last] = path[first:last][::-1]
    return out


def _random_swap(path: np.ndarray, generator) -> np.ndarray:
    """RandomSwap(P, first, last): swap two random positions."""
    n = len(path)
    i = int(generator.random() * n)
    j = int(generator.random() * n)
    out = path.copy()
    apply_swap(out, i, j)
    return out


def _two_indices(n: int, generator) -> Tuple[int, int]:
    """Two slice bounds spanning at least two elements.

    Contract (checked by the property suite): for any ``n >= 2``,
    returns ``(first, last)`` with ``0 <= first < last <= n`` and
    ``last - first >= 2`` — ``first`` uniform on ``[0, n-2]``, ``last``
    uniform on ``[first+2, n]``.  Exactly two floats are consumed from
    ``generator``, the same products and truncation as
    :func:`_slice_bounds` on a block of draws.
    """
    first = int(generator.random() * (n - 1))
    last = first + 2 + int(generator.random() * (n - first - 1))
    return first, last
