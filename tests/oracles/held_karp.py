"""Step 4 oracle: exact max-probability Hamiltonian path by Held-Karp.

A third exact search next to TAPS and branch-and-bound, independent of
both: a bitmask DP over (visited set, last vertex) in log space,
O(2^n * n^2) time, practical to roughly ``n = 16``.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.exceptions import GraphError, InferenceError
from repro.types import Ranking

#: The DP table is O(2^n * n); beyond this it does not fit in memory.
DP_LIMIT = 20


def best_hamiltonian_path_dp(weights: np.ndarray) -> Ranking:
    """The max-probability HP of the weight matrix ``weights``.

    Zero entries mean "no edge".

    Raises
    ------
    InferenceError
        If no Hamiltonian path exists.
    GraphError
        If ``n`` exceeds :data:`DP_LIMIT`.
    """
    weights = np.asarray(weights, dtype=np.float64)
    n = weights.shape[0]
    if n > DP_LIMIT:
        raise GraphError(f"DP search infeasible for n={n} (> {DP_LIMIT})")
    if n == 1:
        return Ranking([0])

    neg_inf = float("-inf")
    with np.errstate(divide="ignore"):
        log_w = np.where(weights > 0.0, np.log(np.maximum(weights, 1e-300)),
                         neg_inf)
    np.fill_diagonal(log_w, neg_inf)
    successors = [np.nonzero(log_w[v] > neg_inf)[0].tolist()
                  for v in range(n)]

    size = 1 << n
    best = np.full((size, n), neg_inf, dtype=np.float64)
    parent = np.full((size, n), -1, dtype=np.int32)
    for v in range(n):
        best[1 << v][v] = 0.0
    for mask in range(size):
        row = best[mask]
        for v in range(n):
            score = row[v]
            if score == neg_inf:
                continue
            for nxt in successors[v]:
                bit = 1 << nxt
                if mask & bit:
                    continue
                candidate = score + log_w[v, nxt]
                if candidate > best[mask | bit][nxt]:
                    best[mask | bit][nxt] = candidate
                    parent[mask | bit][nxt] = v

    full = size - 1
    end = int(np.argmax(best[full]))
    if best[full][end] == neg_inf:
        raise InferenceError("graph has no Hamiltonian path")
    order: List[int] = []
    mask, vertex = full, end
    while vertex != -1:
        order.append(vertex)
        prev = int(parent[mask][vertex])
        mask ^= 1 << vertex
        vertex = prev
    order.reverse()
    return Ranking(order)
