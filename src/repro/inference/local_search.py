"""Deterministic local-search polish for Step-4 rankings.

Simulated annealing leaves small residual disorder; a deterministic
first-improvement pass over two classical neighbourhoods removes it at
negligible cost:

* **adjacent swaps** (bubble moves) — fixes single transpositions, the
  dominant residual error mode on near-tie pairs;
* **single-vertex reinsertion** (Or-opt with segment length 1) — fixes
  one object parked a few positions away from home.

Both neighbourhoods are scored through the shared incremental kernel
(:mod:`repro.inference.delta`): an adjacent swap is
:func:`~repro.inference.delta.swap_delta` (3 edges) and a reinsertion is
a rotation of the slice between the vertex and its target slot, so
:func:`~repro.inference.delta.rotate_delta` prices it from at most 4
edges.  A full sweep is therefore O(n) / O(n * window) *edge lookups*,
not path re-summations.  Used via
:class:`~repro.config.SAPSConfig.polish` or standalone.

Infinite edges are safe here: every edge *removed* from the current path
is finite (the path's total cost is finite throughout), so a delta is
either finite or ``+inf`` (the candidate uses a missing edge) — never
NaN — and ``+inf`` deltas are simply never improvements.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from ..exceptions import InferenceError
from ..types import Ranking
from .delta import apply_rotate, apply_swap, path_cost, rotate_delta, swap_delta
from .taps import _as_matrix


def polish_ranking(
    weights: np.ndarray,
    ranking: Ranking,
    *,
    max_sweeps: int = 20,
    reinsertion_window: int = 8,
) -> Tuple[Ranking, float]:
    """First-improvement local search from ``ranking``.

    Alternates adjacent-swap sweeps and bounded-window reinsertion
    sweeps until neither improves, or ``max_sweeps`` is hit.

    Returns
    -------
    (ranking, log_preference):
        The polished ranking and its log preference (``-d(P)``).

    Raises
    ------
    InferenceError
        If the initial ranking has no finite-cost path in ``weights``.
    """
    matrix = _as_matrix(weights)
    n = matrix.shape[0]
    if len(ranking) != n:
        raise InferenceError(
            f"ranking covers {len(ranking)} objects, weights cover {n}"
        )
    with np.errstate(divide="ignore"):
        cost = np.where(matrix > 0.0, -np.log(np.maximum(matrix, 1e-300)),
                        np.inf)
    np.fill_diagonal(cost, np.inf)

    path = list(ranking.order)
    if math.isinf(path_cost(cost, path)):
        raise InferenceError("initial ranking has no finite-cost path")

    rows = cost.tolist()
    for _ in range(max_sweeps):
        improved = _swap_sweep(rows, path)
        improved |= _reinsertion_sweep(rows, path, reinsertion_window)
        if not improved:
            break
    return Ranking(path), -path_cost(cost, path)


def _swap_sweep(rows: List[List[float]], path: List[int]) -> bool:
    """One pass of first-improvement adjacent swaps (in place)."""
    improved = False
    for k in range(len(path) - 1):
        if swap_delta(rows, path, k, k + 1) < -1e-12:
            apply_swap(path, k, k + 1)
            improved = True
    return improved


def _reinsertion_sweep(
    rows: List[List[float]], path: List[int], window: int
) -> bool:
    """Move single vertices to their best slot within ``window`` positions.

    Moving ``path[k]`` to slot ``s < k`` is ``Rotate(s, k, k+1)``; to
    slot ``s > k`` it is ``Rotate(k, k+1, s+1)`` — so each candidate is
    priced by :func:`~repro.inference.delta.rotate_delta` from at most
    four edges instead of a full path re-sum.
    """
    n = len(path)
    improved = False
    for k in range(n):
        best_delta = -1e-12
        best_slot = None
        lo = max(0, k - window)
        hi = min(n - 1, k + window)
        for slot in range(lo, hi + 1):
            if slot == k:
                continue
            if slot < k:
                delta = rotate_delta(rows, path, slot, k, k + 1)
            else:
                delta = rotate_delta(rows, path, k, k + 1, slot + 1)
            if delta < best_delta:
                best_delta = delta
                best_slot = slot
        if best_slot is not None:
            if best_slot < k:
                apply_rotate(path, best_slot, k, k + 1)
            else:
                apply_rotate(path, k, k + 1, best_slot + 1)
            improved = True
    return improved
