"""Top-k ranking — the conclusion's "interesting research direction".

The paper's machinery adapts naturally: the closure built by Steps 1-3
already scores every ordered pair, and a *top-k ranking* is a maximum-
preference simple path of ``k`` vertices whose last vertex still beats
the remaining objects.  Two searchers are provided:

* :func:`topk_exact` — Held-Karp-style DP over vertex subsets of size
  ``<= k``, maximising ``prod(path edges) * prod_{u not in path}
  w(last, u)`` (the "dominates the rest" tail term keeps the selected
  prefix honest); exact, feasible for moderate ``n`` and small ``k``;
* :func:`topk_ranking` — full pipeline + SAPS, then the prefix; the
  pragmatic large-``n`` route.

Both return a :class:`~repro.types.Ranking` over the selected ``k``
objects only.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from .config import PipelineConfig
from .exceptions import ConfigurationError, InferenceError
from .inference.pipeline import RankingPipeline
from .inference.taps import _as_matrix
from .rng import SeedLike
from .types import Ranking, VoteSet

#: Subset-DP memory is C(n, k)-shaped; this guards accidental blow-ups.
_EXACT_LIMIT = 22


def topk_exact(
    weights: np.ndarray,
    k: int,
) -> Tuple[Ranking, float]:
    """Exact top-k prefix by subset DP on the closure weights.

    Maximises ``log prod(path) + log prod(tail)`` where *path* ranges
    over simple paths of ``k`` vertices and *tail* is the product of the
    last path vertex's weights against every unselected object.

    Returns
    -------
    (ranking, log_score):
        The top-k ranking (length ``k``) and its log score.

    Raises
    ------
    ConfigurationError
        For ``k`` outside ``[1, n]`` or ``n`` beyond the DP guard.
    InferenceError
        When no positive-probability prefix exists.
    """
    matrix = _as_matrix(weights)
    n = matrix.shape[0]
    if not 1 <= k <= n:
        raise ConfigurationError(f"k={k} outside [1, {n}]")
    if n > _EXACT_LIMIT:
        raise ConfigurationError(
            f"exact top-k on n={n} exceeds the DP guard {_EXACT_LIMIT}; "
            "use topk_ranking instead"
        )

    with np.errstate(divide="ignore"):
        log_w = np.where(matrix > 0.0, np.log(np.maximum(matrix, 1e-300)),
                         -np.inf)
    np.fill_diagonal(log_w, 0.0)
    # Tail term: log prod over all u != v of w(v, u), minus the path
    # members, is expensive to track per-state; instead precompute each
    # vertex's total outgoing log weight and subtract path members at
    # the end via the stored path itself.
    total_out = np.where(np.isinf(log_w), 0.0, log_w).sum(axis=1)

    size = 1 << n
    neg_inf = float("-inf")
    best = {}
    parent = {}
    for v in range(n):
        best[(1 << v, v)] = 0.0
        parent[(1 << v, v)] = -1
    frontier = [(1 << v, v) for v in range(n)]
    for _ in range(k - 1):
        next_frontier = []
        for mask, v in frontier:
            score = best[(mask, v)]
            for u in range(n):
                bit = 1 << u
                if mask & bit or math.isinf(log_w[v, u]):
                    continue
                cand = score + log_w[v, u]
                key = (mask | bit, u)
                if cand > best.get(key, neg_inf):
                    if key not in best:
                        next_frontier.append(key)
                    best[key] = cand
                    parent[key] = v
        seen = set()
        frontier = [key for key in next_frontier
                    if not (key in seen or seen.add(key))]
        if not frontier:
            raise InferenceError("no simple path of the requested length")

    best_key, best_score = None, neg_inf
    for mask, v in frontier:
        path_score = best[(mask, v)]
        # Tail: v must beat every unselected object.
        tail = total_out[v]
        for u in range(n):
            if mask & (1 << u):
                tail -= 0.0 if math.isinf(log_w[v, u]) else log_w[v, u]
        score = path_score + tail
        if score > best_score:
            best_score, best_key = score, (mask, v)
    if best_key is None:
        raise InferenceError("no feasible top-k prefix")

    order = []
    mask, v = best_key
    while v != -1:
        order.append(v)
        prev = parent[(mask, v)]
        mask ^= 1 << v
        v = prev
    order.reverse()
    return Ranking(order), best_score


def topk_ranking(
    votes: VoteSet,
    k: int,
    config: Optional[PipelineConfig] = None,
    rng: SeedLike = None,
) -> Ranking:
    """Top-k via the full pipeline: infer the total order, take its head.

    The paper's transitive machinery makes the head of the full ranking
    a strong top-k estimate — Steps 1-3 pool evidence globally, so the
    prefix is informed by every vote, not only votes among the top
    objects.
    """
    if not 1 <= k <= votes.n_objects:
        raise ConfigurationError(
            f"k={k} outside [1, {votes.n_objects}]"
        )
    result = RankingPipeline(config or PipelineConfig()).run(votes, rng)
    return Ranking(result.ranking.order[:k])
