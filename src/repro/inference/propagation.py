"""Step 3: indirect preferences by transitivity (Sec. V-C).

From the smoothed graph, the indirect preference of every ordered pair is
the aggregated product-weight over paths between them
(:mod:`repro.graphs.closure`); the final preference blends direct and
indirect evidence,

    ``w_check_ij = alpha * w_ij + (1 - alpha) * w*_ij``,

and is then pair-normalised to satisfy the probability constraint
``w_ij + w_ji = 1``.  The output graph is **complete** (every ordered pair
carries a strictly positive weight), which is what makes Theorem 5.1's
"an HP always exists" guarantee hold downstream.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..config import PropagationConfig
from ..exceptions import InferenceError
from ..graphs.closure import propagate_exact_paths, propagate_walks


def propagate_matrix(
    smoothed: np.ndarray,
    config: Optional[PropagationConfig] = None,
) -> np.ndarray:
    """Step 3: the normalised complete closure ``G_P^*`` as a matrix.

    Parameters
    ----------
    smoothed:
        The Step-2 output as a dense ``(n, n)`` weight matrix (zero
        entries mean "no edge").
    config:
        Blend factor ``alpha``, hop bound and kernel selection.

    Returns
    -------
    numpy.ndarray
        ``(n, n)`` matrix with zero diagonal, ``W + W.T = 1`` off the
        diagonal, entries clipped inside ``(0, 1)``.
    """
    config = config if config is not None else PropagationConfig()
    direct = np.asarray(smoothed, dtype=np.float64)
    if direct.ndim != 2 or direct.shape[0] != direct.shape[1]:
        raise InferenceError(
            f"smoothed matrix must be square, got {direct.shape}"
        )
    n = direct.shape[0]
    if n < 2:
        raise InferenceError("propagation needs at least 2 objects")

    max_hops = config.max_hops
    if max_hops is None:
        max_hops = _adaptive_hops(n, int(np.count_nonzero(direct)))
    method = config.method
    if method == "auto":
        method = "exact" if n <= config.exact_threshold else "walks"
    if method == "exact":
        indirect = propagate_exact_paths(direct, max_length=max_hops,
                                         max_vertices=n)
    else:
        indirect = propagate_walks(direct, max_hops, ensure_coverage=True)

    combined = config.alpha * direct + (1.0 - config.alpha) * indirect
    return _normalise_matrix(combined)


def _adaptive_hops(n: int, n_directed_edges: int) -> int:
    """Density-adaptive walk depth (PropagationConfig.max_hops = None).

    ``mean_degree = n_directed_edges / n`` equals the task-graph degree
    ``2l/n`` on a smoothed graph (each compared pair carries both
    directions).  Sparse plans need proportionally deeper walks before
    the mid-range transitivity signal saturates; depth beyond ~20 hops
    has shown no further accuracy gain (DESIGN.md §5).
    """
    mean_degree = max(n_directed_edges / max(n, 1), 1.0)
    depth = int(np.ceil(1.5 * n / mean_degree))
    return max(2, min(max(depth, 8), 20, n - 1))


#: Weights are clipped into [_MIN_CLIP, 1 - _MIN_CLIP] after
#: normalisation so every ordered pair keeps a representable edge
#: (a weight of exactly 0 would mean "no edge" per the graph model).
_MIN_CLIP = 1e-9


def _normalise_matrix(combined: np.ndarray) -> np.ndarray:
    """Pair-normalise a combined weight matrix.

    For each unordered pair ``{i, j}``: ``p = c_ij / (c_ij + c_ji)``
    (0.5 when both are zero — no evidence either way), clipped away from
    {0, 1} so both directed edges exist.

    Raises
    ------
    InferenceError
        When an entry is not finite: a NaN total would otherwise read as
        "no evidence" and become 0.5 without a word.
    """
    if not np.isfinite(combined).all():
        raise InferenceError(
            "Step 3: the propagated preference matrix is not finite (its "
            "walk sums overflowed, as they do on a dense core far from "
            "Algorithm 1's near-regular task graph); a sparse engine "
            "(engine \"hodge\" or \"lsq\") ranks such votes"
        )
    total = combined + combined.T
    # Divide by the true total even when it is subnormal (a tiny alpha
    # on a pair without indirect evidence): flooring it would push both
    # directions to the clip and break w_ij + w_ji = 1.
    p = np.divide(combined, total, out=np.full_like(combined, 0.5),
                  where=total > 0.0)
    p = np.clip(p, _MIN_CLIP, 1.0 - _MIN_CLIP)
    np.fill_diagonal(p, 0.0)
    return p
