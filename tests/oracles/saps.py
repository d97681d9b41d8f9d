"""Step 4 oracle: the full-re-sum SAPS anneal.

The kernel that :func:`repro.inference.saps._anneal_incremental`
replaced: every proposal copies the path and re-sums all ``n - 1``
edges.  It draws from each restart's stream in exactly the production
order (three index floats + one acceptance float per Rotate, two + one
per Reverse/RandomSwap), so a fixed seed accepts the same move
sequence.  :func:`reference_search_report` drives it through the
production restart plan — :func:`~repro.inference.saps._restart_vertices`,
:func:`~repro.inference.saps._initial_path` and one
:func:`~repro.rng.spawn_rngs` child stream per restart — so its report
is comparable field for field with
:func:`~repro.inference.saps.saps_search_report`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.config import SAPSConfig
from repro.inference.delta import apply_rotate, apply_swap, path_cost
from repro.inference.saps import (
    SAPSReport,
    _cost_matrix,
    _initial_path,
    _restart_vertices,
)
from repro.inference.taps import _as_matrix
from repro.rng import SeedLike, ensure_rng, spawn_rngs
from repro.types import Ranking
from repro.workers.pool import parallel_map


def reference_search_report(
    weights: np.ndarray,
    config: Optional[SAPSConfig] = None,
    rng: SeedLike = None,
) -> SAPSReport:
    """:func:`~repro.inference.saps.saps_search_report` on the reference
    anneal (no warm start; ``config.polish`` is not applied).

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
    iterations = config.iterations
    if config.scale_with_objects and n > 100:
        iterations = int(config.iterations * n / 100)
    streams = spawn_rngs(generator, len(start_vertices))
    tasks = [(matrix, cost, start, iterations, config, stream)
             for start, stream in zip(start_vertices, streams)]
    outcomes = parallel_map(_reference_restart, tasks,
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


def _reference_restart(task) -> Tuple[float, List[int], int, int]:
    """One restart; module-level so the process backend can pickle it."""
    matrix, cost, start, iterations, config, stream = task
    initial = _initial_path(matrix, cost, start, config, stream)
    return _anneal_reference(cost, initial, iterations, config, stream)


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
    :func:`repro.inference.saps._slice_bounds` on a block of draws.
    """
    first = int(generator.random() * (n - 1))
    last = first + 2 + int(generator.random() * (n - first - 1))
    return first, last
