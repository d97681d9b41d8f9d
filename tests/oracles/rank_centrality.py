"""Rank Centrality oracle: the dense ``n x n`` chain.

The construction :func:`repro.baselines.rank_centrality` ran below 128
objects before the CSR chain became its only path.  It computes the
same transition entries with dense arithmetic, so rankings agree with
the CSR chain and scores to float tolerance (only the mat-vec summation
order differs).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import InferenceError
from repro.types import Ranking, VoteSet


def dense_rank_centrality(
    votes: VoteSet,
    *,
    max_iterations: int = 10_000,
    tolerance: float = 1e-10,
    regularization: float = 0.1,
) -> Tuple[Ranking, np.ndarray]:
    """:func:`~repro.baselines.rank_centrality` on the dense chain."""
    if len(votes) == 0:
        raise InferenceError("Rank Centrality needs at least one vote")
    n = votes.n_objects
    transition = _dense_transition(votes, regularization)
    pi = _power_iteration_dense(transition, max_iterations, tolerance)
    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum() if pi.sum() > 0 else np.full(n, 1.0 / n)
    order = np.argsort(-pi, kind="stable")
    return Ranking(order.tolist()), pi


def _dense_transition(
    votes: VoteSet, regularization: float
) -> np.ndarray:
    """Transition matrix with the self-loop mass on the diagonal."""
    n = votes.n_objects
    arrays = votes.arrays()
    wins = np.zeros((n, n), dtype=np.float64)  # wins[i, j] = #(i beat j)
    np.add.at(wins, (arrays.winner, arrays.loser), 1.0)
    observed = (wins + wins.T) > 0
    wins = wins + regularization * observed

    totals = wins + wins.T
    with np.errstate(invalid="ignore", divide="ignore"):
        # Transition i -> j proportional to j's win share against i.
        share = np.where(totals > 0, wins.T / np.maximum(totals, 1e-300), 0.0)
    # Normalise by the maximum degree so rows sum to <= 1; the remainder
    # is a self-loop (the standard Rank Centrality construction).
    degree = np.count_nonzero(totals, axis=1)
    d_max = max(int(degree.max()), 1)
    transition = share / d_max
    np.fill_diagonal(transition, 0.0)
    self_loop = 1.0 - transition.sum(axis=1)
    return transition + np.diag(self_loop)


def _power_iteration_dense(
    transition: np.ndarray, max_iterations: int, tolerance: float
) -> np.ndarray:
    n = transition.shape[0]
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        new_pi = pi @ transition
        if float(np.abs(new_pi - pi).sum()) < tolerance:
            pi = new_pi
            break
        pi = new_pi
    return pi
