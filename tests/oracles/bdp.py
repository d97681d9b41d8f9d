"""BDP oracle: literal loop-based VOI scoring.

The textbook form of :class:`~repro.acquisition.BDPScorer`'s score:
the pair-resolution term walks every pair and evaluates both simulated
outcomes scalar by scalar, and the strength term (when weighted in)
re-sums the full separation functional per candidate and outcome —
O(K^4), small universes only.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from repro.acquisition.posterior import PairPosterior


def bdp_scores_reference(
    posterior: PairPosterior,
    update_weight: float = 1.0,
    preference: np.ndarray = None,
    *,
    kappa: float = 6.0,
    strength_weight: float = 0.0,
) -> np.ndarray:
    """BDP scores of every pair in ``posterior``, one loop at a time.

    Arguments mirror :class:`~repro.acquisition.BDPScorer`;
    ``preference`` defaults to the posterior mean.  The vectorized
    scorer must match it to float tolerance.
    """
    alpha = posterior.strength.copy()
    n = posterior.n_objects
    p = posterior.mean() if preference is None else preference
    w = update_weight
    normaliser = n * (n - 1) / 2.0

    def f(x: float, y: float) -> float:
        return float(special.betainc(min(x, y), max(x, y), 0.5))

    def quality(strengths: np.ndarray) -> float:
        total = 0.0
        for i in range(n):
            for j in range(i + 1, n):
                total += f(strengths[i], strengths[j])
        return total / normaliser

    pair_alpha = posterior.alpha()
    pair_beta = posterior.beta()
    base_quality = quality(alpha) if strength_weight else 0.0
    scores = np.zeros(posterior.n_pairs, dtype=np.float64)
    for index in range(posterior.n_pairs):
        a = float(pair_alpha[index]) + kappa * float(p[index])
        b = float(pair_beta[index]) + kappa * (1.0 - float(p[index]))
        base = f(a, b)
        p_hat = a / (a + b)
        scores[index] = (
            p_hat * (f(a + w, b) - base)
            + (1.0 - p_hat) * (f(a, b + w) - base)
        )
        if strength_weight:
            lo, hi = posterior.pair_at(index)
            lo_wins = alpha.copy()
            lo_wins[lo] += w
            hi_wins = alpha.copy()
            hi_wins[hi] += w
            scores[index] += strength_weight * (
                p_hat * (quality(lo_wins) - base_quality)
                + (1.0 - p_hat) * (quality(hi_wins) - base_quality)
            )
    return scores
