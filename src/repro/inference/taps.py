"""Step 4 exact search: TAPS and branch-and-bound (Sec. V-D1).

**TAPS** adapts Fagin's threshold algorithm (TA) to Hamiltonian-path
preference maximisation.  It builds ``n - 1`` lists — list ``i`` holds
``(path_id, weight of the i-th edge of that path)`` for *every* HP, sorted
by weight descending — then performs sorted access in parallel across the
lists, random-accessing each newly seen path to compute its full
preference probability, and halts as soon as the best probability seen
reaches the threshold ``theta = prod_i w_i`` of the last sorted-access
weights.  Faithful to the paper, and therefore factorial in space — gated
by :class:`~repro.config.TAPSConfig.max_objects`.

**Branch-and-bound** is this library's scalable exact alternative: a DFS
over path prefixes in log space with an admissible upper bound from each
vertex's best outgoing weight.  It returns the same argmax as TAPS (ties
may resolve differently) and handles ``n`` in the tens on sharp instances.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..config import TAPSConfig
from ..exceptions import InferenceError
from ..types import Ranking


def _as_matrix(weights: np.ndarray) -> np.ndarray:
    """The searches' input as a square float matrix."""
    mat = np.asarray(weights, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise InferenceError(f"weight matrix must be square, got {mat.shape}")
    return mat


def taps_search(
    weights: np.ndarray,
    config: Optional[TAPSConfig] = None,
) -> Tuple[List[Ranking], float]:
    """Threshold-based path search: all top-1 HPs and their probability.

    Returns
    -------
    (paths, probability):
        Every Hamiltonian path attaining the maximum preference
        probability (ties included, as in the paper's Step 1), and that
        probability.

    Raises
    ------
    InferenceError
        If ``n`` exceeds ``config.max_objects`` or no HP has positive
        probability (incomplete graph with no viable path).
    """
    config = config if config is not None else TAPSConfig()
    matrix = _as_matrix(weights)
    n = matrix.shape[0]
    if n > config.max_objects:
        raise InferenceError(
            f"TAPS is factorial; n={n} exceeds max_objects="
            f"{config.max_objects}.  Use branch_and_bound_search or SAPS."
        )
    if n == 1:
        return [Ranking([0])], 1.0

    paths = list(itertools.permutations(range(n)))
    n_lists = n - 1
    # lists[i] = [(weight of i-th edge, path_id)], sorted descending.
    lists: List[List[Tuple[float, int]]] = []
    for i in range(n_lists):
        entries = [
            (float(matrix[path[i], path[i + 1]]), path_id)
            for path_id, path in enumerate(paths)
        ]
        entries.sort(key=lambda e: -e[0])
        lists.append(entries)

    def preference(path: Sequence[int]) -> float:
        prob = 1.0
        for u, v in zip(path, path[1:]):
            prob *= matrix[u, v]
        return float(prob)

    best: float = -1.0
    output: List[int] = []
    seen: Set[int] = set()
    for depth in range(len(paths)):
        # Sorted access in parallel to each list (Step 1).
        last_weights = []
        for i in range(n_lists):
            weight, path_id = lists[i][depth]
            last_weights.append(weight)
            if path_id not in seen:
                seen.add(path_id)
                # Random access: full preference probability of the path.
                prob = preference(paths[path_id])
                if prob > best:
                    best, output = prob, [path_id]
                elif prob == best:
                    output.append(path_id)
        # Threshold check (Step 2).
        threshold = math.prod(last_weights)
        if best >= threshold:
            break

    if best <= 0.0:
        raise InferenceError("no Hamiltonian path with positive probability")
    return [Ranking(paths[pid]) for pid in sorted(set(output))], best


def branch_and_bound_search(
    weights: np.ndarray,
    *,
    max_objects: int = 30,
) -> Tuple[Ranking, float]:
    """Exact max-probability HP by DFS with an admissible bound.

    Works in log space.  The bound for a prefix ending at ``v`` with
    remaining set ``R`` is the prefix score plus ``v``'s best outgoing
    log weight plus the ``|R| - 1`` largest best-outgoing log weights of
    the vertices in ``R`` — an upper bound because a completion uses one
    outgoing edge from ``v`` and from all but the final vertex of ``R``.

    Returns
    -------
    (ranking, log_probability)

    Raises
    ------
    InferenceError
        If ``n`` exceeds ``max_objects`` or no HP exists.
    """
    matrix = _as_matrix(weights)
    n = matrix.shape[0]
    if n > max_objects:
        raise InferenceError(
            f"branch-and-bound on n={n} exceeds max_objects={max_objects}"
        )
    if n == 1:
        return Ranking([0]), 0.0

    with np.errstate(divide="ignore"):
        log_w = np.where(matrix > 0.0, np.log(np.maximum(matrix, 1e-300)),
                         -np.inf)
    np.fill_diagonal(log_w, -np.inf)
    best_out = log_w.max(axis=1)  # best outgoing log weight per vertex

    best_score = -math.inf
    best_path: Optional[List[int]] = None

    # Order start vertices by optimism so good incumbents appear early.
    starts = sorted(range(n), key=lambda v: -best_out[v])

    def dfs(vertex: int, remaining: Set[int], score: float,
            path: List[int]) -> None:
        nonlocal best_score, best_path
        if not remaining:
            if score > best_score:
                best_score = score
                best_path = list(path)
            return
        # Admissible bound for this prefix.
        outs = sorted((best_out[r] for r in remaining), reverse=True)
        bound = score + best_out[vertex] + sum(outs[: len(outs) - 1])
        if bound <= best_score:
            return
        # Explore heaviest edges first for tighter early incumbents.
        children = sorted(remaining, key=lambda u: -log_w[vertex, u])
        for nxt in children:
            edge = log_w[vertex, nxt]
            if edge == -math.inf:
                continue
            remaining.remove(nxt)
            path.append(nxt)
            dfs(nxt, remaining, score + edge, path)
            path.pop()
            remaining.add(nxt)

    for start in starts:
        remaining = set(range(n)) - {start}
        dfs(start, remaining, 0.0, [start])

    if best_path is None:
        raise InferenceError("no Hamiltonian path exists")
    return Ranking(best_path), best_score
