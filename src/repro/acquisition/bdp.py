"""BDP-style expected value-of-information pair scoring, vectorized.

The Bayesian Decision Process for crowdsourced ranking (Chen et al.;
PAPERS.md arXiv:1612.07222) selects the next comparison stage-wise: for
every candidate pair, simulate both outcomes, measure how much each
would improve a global *ranking-quality* functional of the posterior,
and take the outcome-probability-weighted expectation.  The shipped
scorer evaluates that expectation over a two-part functional, both parts
built from the same separation primitive

    ``f(x, y) = I_0.5(min(x, y), max(x, y))``

where ``I_x(a, b)`` is the regularised incomplete beta function
(``scipy.special.betainc``): ``I_0.5`` of a sorted parameter pair is the
probability mass a ``Beta(min, max)`` posterior puts below one half —
0.5 for a tied pair, approaching 1 as the parameters separate.

**Pair-resolution term (dominant).**  Each pair ``(i, j)`` carries an
effective Beta belief ``(A, B)`` combining its observed quality-weighted
win counts (:class:`~repro.acquisition.PairPosterior`) with ``kappa``
pseudo-counts encoding the interim Steps 1-3 closure preference ``p``:
``A = alpha_ij + kappa * p`` and ``B = beta_ij + kappa * (1 - p)``.  A
vote on ``(i, j)`` moves only that pair's Beta, so the expected gain in
its resolution ``f(A, B)`` is

    ``voi(i, j) = p_hat * [f(A + w, B) - f(A, B)]
                + (1 - p_hat) * [f(A, B + w) - f(A, B)]``

with ``p_hat = A / (A + B)`` and ``w = update_weight``.  The term has
exactly the dynamics budget-constrained acquisition needs: it peaks for
genuinely contested pairs (``p_hat`` near one half, few observations),
decays for pairs the transitive closure has already decided (the
``kappa`` pseudo-counts), and shows diminishing returns on pairs queried
over and over — which spreads batches across the universe instead of
piling votes onto a handful of "informative" objects.

**Strength-separation term (optional, ``strength_weight``).**  The
textbook BDP functional is global: the mean separation confidence over
per-object strengths, ``Q(alpha) = 2 / (K (K - 1)) * sum_{i<j}
f(a_i, a_j)``.  Re-summing all ``C(K, 2)`` terms per candidate and
outcome — the exemplar implementation's shape — is O(K^4) (minutes at
K=100, hopeless at K=200).  Two observations collapse it:

1. an outcome changes exactly one strength, so only the ``K - 1`` terms
   involving the winner change — the rest of the sum cancels in the
   difference;
2. the changed terms depend only on *which object won*, not on the
   opponent: ``Q(alpha | i wins) - Q(alpha) = gain[i] / C(K, 2)`` with
   ``gain[i] = sum_{k != i} [f(a_i + w, a_k) - f(a_i, a_k)]``.

So two dense ``(K, K)`` betainc tables precompute every per-object gain
(:func:`strength_gains`) and each candidate's contribution is two
gathered multiplies: O(K^2) total, milliseconds at K=200 (the ISSUE's
< 1 s acceptance bar with two orders of margin).  The term is *off by
default* (``strength_weight=0``): per-object gains are shared by every
pair containing the object, so ranking by them clusters whole batches
onto few objects and starves the Steps 1-4 pipeline of pair coverage —
measurably worse than random selection at n=100 in the acquisition
benchmark.  It remains available for small-batch regimes where the
global functional's preference for separating contenders helps.

The literal loops — the O(K^4) quadruple loop for the strength term,
the per-pair loop for the resolution term — live in ``tests/oracles/``
as the differential oracle for small K.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from ..exceptions import ConfigurationError
from .posterior import PairPosterior


def _separation(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``f(x, y) = I_0.5(min(x, y), max(x, y))``, broadcasting."""
    return special.betainc(np.minimum(x, y), np.maximum(x, y), 0.5)


def strength_gains(
    strength: np.ndarray, update_weight: float
) -> np.ndarray:
    """Per-object change of the separation sum if object ``i`` wins.

    ``gains[i] = sum_{k != i} [f(a_i + w, a_k) - f(a_i, a_k)]`` — the
    un-normalised ``Q`` delta shared by every candidate pair containing
    ``i``, computed with two (K, K) betainc tables.
    """
    alpha = np.asarray(strength, dtype=np.float64)
    column = alpha[None, :]
    current = _separation(alpha[:, None], column)
    updated = _separation((alpha + update_weight)[:, None], column)
    # Row sums minus the self term (k == i is excluded from both sums).
    gain_rows = updated.sum(axis=1) - np.diagonal(updated)
    base_rows = current.sum(axis=1) - np.diagonal(current)
    return gain_rows - base_rows


def _pair_beliefs(
    posterior: PairPosterior,
    preference: np.ndarray,
    kappa: float,
):
    """Effective per-pair Beta parameters: observed counts plus
    ``kappa`` pseudo-counts at the closure preference."""
    a = posterior.alpha() + kappa * preference
    b = posterior.beta() + kappa * (1.0 - preference)
    return a, b


class BDPScorer:
    """Stage-wise expected value-of-information over the pair universe.

    Parameters
    ----------
    update_weight:
        Pseudo-count a simulated win adds to the winner's side — match
        the weight real votes carry (quality-weighted votes average
        below 1, so the default of 1.0 scores the VOI of one
        full-confidence vote).
    kappa:
        Pseudo-count mass the interim closure preference contributes to
        each pair's effective Beta belief.  Zero ignores the closure
        entirely (every unseen pair then scores alike); larger values
        let transitively-decided pairs drop out of the batch sooner.
    strength_weight:
        Weight of the global strength-separation term (the vectorized
        exemplar functional).  Off by default — see the module
        docstring for why per-object gains cluster batches.
    """

    name = "bdp"

    def __init__(
        self,
        update_weight: float = 1.0,
        *,
        kappa: float = 6.0,
        strength_weight: float = 0.0,
    ) -> None:
        if update_weight <= 0.0:
            raise ConfigurationError(
                f"update_weight must be positive, got {update_weight}"
            )
        if kappa < 0.0:
            raise ConfigurationError(
                f"kappa must be >= 0, got {kappa}"
            )
        if strength_weight < 0.0:
            raise ConfigurationError(
                f"strength_weight must be >= 0, got {strength_weight}"
            )
        self.update_weight = float(update_weight)
        self.kappa = float(kappa)
        self.strength_weight = float(strength_weight)

    def score(self, state) -> np.ndarray:
        posterior = state.posterior
        w = self.update_weight
        p = state.preference_means()
        a, b = _pair_beliefs(posterior, p, self.kappa)
        base = _separation(a, b)
        p_hat = a / (a + b)
        scores = (
            p_hat * (_separation(a + w, b) - base)
            + (1.0 - p_hat) * (_separation(a, b + w) - base)
        )
        if self.strength_weight:
            gains = strength_gains(posterior.strength, w)
            lo, hi = posterior.pair_lo, posterior.pair_hi
            n = posterior.n_objects
            normaliser = n * (n - 1) / 2.0
            scores = scores + self.strength_weight * (
                p_hat * gains[lo] + (1.0 - p_hat) * gains[hi]
            ) / normaliser
        return scores

