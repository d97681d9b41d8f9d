"""Step 4 heuristic: simulated-annealing path search (Sec. V-D2).

Faithful implementation of Algorithms 2 and 3.  The objective is the
negative-log form: find the Hamiltonian path ``P`` minimising
``d(P) = sum_{(u,v) in P} -log w_uv`` (equivalently maximising
``Pr[P] = prod w_uv``).  Each iteration proposes three permutations of the
current path — Rotate, Reverse, RandomSwap — and accepts each through the
Boltzmann rule of Algorithm 3 (better always; worse with probability
``exp(-(d_next - d_i) / T)``), then cools ``T <- T * c``.

Algorithm 2 restarts the anneal from every vertex with a greedy initial
path ("selecting the nearest neighbors, or by ranking the nodes based on
the difference of their out-/in- edge weights"); the config can cap the
restart count, since on large complete closures a handful of restarts
already reaches the plateau the paper reports.

The anneal scores each proposal by the ``d(P') - d(P)`` of the few
edges the move actually changes (the formulas of
:mod:`repro.inference.delta`, inlined).  It keeps the flip cost
``cost[b, a] - cost[a, b]`` of every path edge in a list beside the
path, so a Reverse's O(k) internal sum is one C-level slice ``sum``;
accepted moves update path and edge lists with slice assignments, and
the running cost is re-synced against a full re-sum every
``resync_every`` accepted moves to bound float drift.  Deltas need a
finite cost on every edge, so the input must be a complete closure:
every off-diagonal weight positive, as Step 3 guarantees (Theorem 5.1).
An incomplete matrix raises :class:`InferenceError` up front.

Restarts each get their own child stream spawned from the run RNG up
front, which makes the restart loop embarrassingly parallel
(``SAPSConfig.parallel_restarts``) without changing results: serial and
parallel runs reduce the same per-restart outcomes in the same order.
The restart loop dispatches through :mod:`repro.workers.backends`
(``SAPSConfig.backend``), so the same guarantee extends across the
serial, thread and process backends — the anneal is pure Python and
GIL-bound, which makes the process backend the only one that actually
uses multiple cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..config import SAPSConfig
from ..exceptions import InferenceError
from ..rng import SeedLike, ensure_rng, spawn_rngs
from ..types import Ranking
from ..workers.pool import parallel_map
from .delta import cost_rows, path_cost, reverse_diff_rows
from .taps import _as_matrix

#: Iterations' worth of random draws pre-fetched per block by the
#: anneal (10 floats per iteration: 4 + 3 + 3).
_RNG_BLOCK = 256

#: Floats consumed per iteration (Rotate 4, Reverse 3, RandomSwap 3).
_DRAWS_PER_ITERATION = 10


@dataclass(frozen=True)
class SAPSReport:
    """Diagnostics of one SAPS run (exposed for the benchmarks).

    Field semantics — precise, so benchmark attribution stays honest:

    ranking / log_preference:
        The final result, *including* the optional deterministic polish
        pass when ``config.polish`` is set.
    restarts:
        Number of anneal restarts actually run.
    iterations_per_restart:
        Annealing iterations per restart (after ``scale_with_objects``).
    accepted_moves / proposed_moves:
        Boltzmann-accepted / proposed moves of the *anneal only* — the
        polish pass is deterministic first-improvement search and its
        work is excluded from both counters.
    polish_improved / polish_delta:
        Whether the polish pass strictly improved the objective, and by
        how much (its log-preference gain, >= 0).  Both are zero/False
        when ``config.polish`` is off, so the polish contribution to
        ``log_preference`` is always attributable.
    """

    ranking: Ranking
    log_preference: float
    restarts: int
    iterations_per_restart: int
    accepted_moves: int
    proposed_moves: int
    polish_improved: bool = False
    polish_delta: float = 0.0


def saps_search(
    weights: np.ndarray,
    config: Optional[SAPSConfig] = None,
    rng: SeedLike = None,
) -> Tuple[Ranking, float]:
    """Find a high-preference HP; returns ``(ranking, log_probability)``.

    The input must be a complete closure — every off-diagonal weight
    positive and finite, as the Step-3 output always is (Theorem 5.1);
    anything else raises :class:`InferenceError`.
    """
    report = saps_search_report(weights, config, rng)
    return report.ranking, report.log_preference


def saps_search_report(
    weights: np.ndarray,
    config: Optional[SAPSConfig] = None,
    rng: SeedLike = None,
    warm_start: Optional[Sequence[int]] = None,
) -> SAPSReport:
    """As :func:`saps_search`, returning full diagnostics.

    ``warm_start`` (a permutation of the ``n`` objects) replaces the
    *first* restart's initial path: that restart anneals from the given
    path instead of building one from a start vertex.  Because the
    initial path seeds the restart's best-so-far cost, the warm restart
    can never return a worse path than the one handed in.  With
    ``warm_start=None`` the run is unchanged, bit for bit.
    """
    config = config if config is not None else SAPSConfig()
    matrix = _as_matrix(weights)
    n = matrix.shape[0]
    if n == 0:
        raise InferenceError("SAPS needs at least one object")
    if n == 1:
        return SAPSReport(Ranking([0]), 0.0, 0, config.iterations, 0, 0)
    cost = _cost_matrix(matrix)
    generator = ensure_rng(rng)

    start_vertices: List[Union[int, np.ndarray]] = \
        _restart_vertices(matrix, config, n, generator)
    if warm_start is not None:
        warm = np.array([int(v) for v in warm_start], dtype=np.int64)
        if warm.shape != (n,) or \
                not np.array_equal(np.sort(warm), np.arange(n)):
            raise InferenceError(
                f"SAPS warm start must be a permutation of the {n} "
                "objects"
            )
        start_vertices[0] = warm
    iterations = _schedule_iterations(config, n)

    shared = _RestartShared(matrix=matrix, cost=cost,
                            iterations=iterations, config=config)

    # One child stream per restart: restarts become order-independent
    # (parallelisable) while staying reproducible from the run RNG.
    # Each task is a picklable (shared, start, stream) triple, so the
    # restart loop runs unchanged on the serial, thread and process
    # backends — scheduling never touches the random streams.
    streams = spawn_rngs(generator, len(start_vertices))
    tasks = [(shared, start, stream)
             for start, stream in zip(start_vertices, streams)]
    outcomes = parallel_map(_run_restart, tasks,
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
        # Strict < : the earliest restart keeps ties, exactly as the
        # serial loop would, so parallel order cannot change the result.
        if restart_cost < best_cost:
            best_cost = restart_cost
            best_order = restart_path

    ranking = Ranking([int(v) for v in best_order])
    polish_improved = False
    polish_delta = 0.0
    if config.polish:
        from .local_search import polish_ranking

        ranking, log_pref = polish_ranking(matrix, ranking)
        polish_delta = max(0.0, log_pref - (-best_cost))
        polish_improved = polish_delta > 1e-12
        best_cost = -log_pref
    return SAPSReport(
        ranking=ranking,
        log_preference=-best_cost,
        restarts=len(start_vertices),
        iterations_per_restart=iterations,
        accepted_moves=accepted,
        proposed_moves=proposed,
        polish_improved=polish_improved,
        polish_delta=polish_delta,
    )


def _cost_matrix(matrix: np.ndarray) -> np.ndarray:
    """``cost[u, v] = -log w_uv`` (``+inf`` on the diagonal), so ``d(P)``
    sums edge costs.

    Raises :class:`InferenceError` unless every off-diagonal weight is
    positive and finite: the incremental deltas are undefined on a
    missing edge, and Step 3 never hands one over.
    """
    n = matrix.shape[0]
    off_diagonal = matrix[~np.eye(n, dtype=bool)]
    if not ((off_diagonal > 0.0) & (off_diagonal < np.inf)).all():
        raise InferenceError(
            "SAPS needs a complete closure: every off-diagonal weight "
            "must be positive and finite (Theorem 5.1); run Steps 2-3 "
            "first"
        )
    cost = -np.log(np.maximum(matrix, 1e-300))
    np.fill_diagonal(cost, np.inf)
    return cost


def _schedule_iterations(config: SAPSConfig, n: int) -> int:
    """Iterations per restart at ``n`` objects: ``config.iterations``,
    grown linearly past 100 objects when ``scale_with_objects`` is set."""
    if config.scale_with_objects and n > 100:
        return int(config.iterations * n / 100)
    return config.iterations


def tail_temperature(config: SAPSConfig, n: int, iterations: int) -> float:
    """``T0 * c**(N - iterations)``: the full schedule's temperature with
    its last ``iterations`` of :func:`_schedule_iterations` ``N`` to run
    (``T0`` if ``iterations >= N``), clamped to the ``1e-300`` floor."""
    skipped = max(_schedule_iterations(config, n) - iterations, 0)
    return max(config.temperature * config.cooling_rate ** skipped, 1e-300)


def degree_order(matrix: np.ndarray) -> np.ndarray:
    """Objects by decreasing out-minus-in weight (Algorithm 2 line 3),
    ties by id; on a Step-3 closure, the row-sum (Borda) order."""
    score = matrix.sum(axis=1) - matrix.sum(axis=0)
    return np.argsort(-score, kind="stable")


def _restart_vertices(
    matrix: np.ndarray, config: SAPSConfig, n: int, generator
) -> List[int]:
    """Start vertices: all (faithful Algorithm 2) or a sampled cap."""
    if config.restarts is None or config.restarts >= n:
        return list(range(n))
    chosen = generator.choice(n, size=config.restarts, replace=False)
    return [int(v) for v in chosen]


def _initial_path(
    matrix: np.ndarray,
    cost: np.ndarray,
    start: int,
    config: SAPSConfig,
    generator,
) -> np.ndarray:
    """Algorithm 2 line 3: greedy / degree-difference / random init."""
    n = matrix.shape[0]
    if config.init == "random":
        path = generator.permutation(n)
        # Rotate the start vertex to the front to honour the restart.
        idx = int(np.where(path == start)[0][0])
        return np.roll(path, -idx)
    if config.init == "degree":
        order = degree_order(matrix)
        return np.concatenate(([start], order[order != start]))
    # "greedy": nearest neighbour by weight (lowest cost edge).
    visited = np.zeros(n, dtype=bool)
    visited[start] = True
    path = [start]
    current = start
    for _ in range(n - 1):
        row = np.where(visited, np.inf, cost[current])
        nxt = int(np.argmin(row))
        visited[nxt] = True
        path.append(nxt)
        current = nxt
    return np.array(path, dtype=np.int64)


# ---------------------------------------------------------------------------
# Restart task (module-level so every execution backend can dispatch it)
# ---------------------------------------------------------------------------

class _RestartShared:
    """Read-only per-run state shared by every restart task.

    One instance is referenced by all restart tasks: the thread and
    serial backends share it (and its lazily built kernel tables) in
    memory, while the process backend pickles only the raw matrices —
    the derived tables are rebuilt once per worker process (O(n^2),
    negligible next to the anneal) rather than shipped over the pipe.
    """

    __slots__ = ("matrix", "cost", "iterations", "config", "_tables")

    def __init__(self, matrix: np.ndarray, cost: np.ndarray,
                 iterations: int, config: SAPSConfig):
        self.matrix = matrix
        self.cost = cost
        self.iterations = iterations
        self.config = config
        self._tables = None

    def tables(self):
        """(rows, diff) for the anneal.

        Built on first use; the single-attribute assignment keeps the
        lazy initialisation safe under concurrent restart threads.
        """
        tables = self._tables
        if tables is None:
            tables = (cost_rows(self.cost), reverse_diff_rows(self.cost))
            self._tables = tables
        return tables

    def __getstate__(self):
        return (self.matrix, self.cost, self.iterations, self.config)

    def __setstate__(self, state):
        (self.matrix, self.cost, self.iterations, self.config) = state
        self._tables = None


def _run_restart(task) -> Tuple[float, List[int], int, int]:
    """One anneal restart: ``(shared, start_vertex, stream)`` in,
    ``(best_cost, best_path, accepted, proposed)`` out.

    Module-level (not a closure) so the process backend can pickle it
    by reference; the outcome depends only on the task — never on which
    backend or worker ran it.
    """
    shared, start, stream = task
    config = shared.config
    if isinstance(start, np.ndarray):
        # Warm restart: the task carries the initial path itself.
        initial = start
    else:
        initial = _initial_path(shared.matrix, shared.cost, start, config,
                                stream)
    rows, diff = shared.tables()
    return _anneal_incremental(shared.cost, rows, diff, initial,
                               shared.iterations, config, stream)


# ---------------------------------------------------------------------------
# Annealing kernel
# ---------------------------------------------------------------------------

def _anneal_incremental(
    cost: np.ndarray,
    rows: List[List[float]],
    diff: List[List[float]],
    initial: np.ndarray,
    iterations: int,
    config: SAPSConfig,
    stream: np.random.Generator,
) -> Tuple[float, List[int], int, int]:
    """One restart with incremental move evaluation.

    The path is a Python list (scalar list-of-lists lookups beat
    ``ndarray[a, b]`` severalfold here) kept beside two edge lists:
    ``forward[i] = diff[p_i][p_{i+1}]``, the change in ``d(P)`` from
    flipping edge ``i``, and its mirror ``backward[i] = -forward[i]``.
    Rotate and RandomSwap cost O(1) boundary lookups; a Reverse's
    internal change is a C-level ``sum`` over a slice of ``forward``.
    The deltas are those of :mod:`repro.inference.delta`, inlined.
    Move indices are decoded per block of draws (:func:`_slice_bounds`).
    Requires every off-diagonal cost to be finite (:func:`_cost_matrix`
    checks).
    """
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
        # Every array op below runs over one column of at most 256
        # values: numpy drops the GIL on loops over 500 elements, and
        # each drop hands it to a concurrent request's thread (measured
        # 1.7-2x slower with two concurrent searches on 2 vCPUs).
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
            delta = sum(forward[first:last - 1])
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

