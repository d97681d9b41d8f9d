"""Rank Centrality (Negahban, Oh, Shah) — spectral pairwise aggregation.

A well-known score-based aggregator from the pairwise-preference family
the paper surveys: build a random walk on the comparison graph where the
walk moves from ``i`` to ``j`` proportionally to the fraction of votes
``j`` won against ``i``; the stationary distribution ranks the objects
(a stronger object accumulates more stationary mass).  Included as an
extra baseline for the ablation benches — under the BTL worker model its
scores are consistent, so it is a strong score-based reference.

The chain is assembled as a ``scipy.sparse`` CSR matrix from the shared
edge table (:func:`repro.inference.incidence.build_incidence`), with
power iteration as sparse mat-vecs: memory and per-iteration cost are
O(observed pairs), so the baseline scales to the same large ``n`` as the
sparse inference engines.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
from scipy import sparse

from ..exceptions import InferenceError
from ..inference.incidence import build_incidence
from ..types import Ranking, VoteSet


def rank_centrality(
    votes: VoteSet,
    *,
    max_iterations: int = 10_000,
    tolerance: float = 1e-10,
    regularization: float = 0.1,
) -> Tuple[Ranking, np.ndarray]:
    """Rank objects by the stationary distribution of the vote walk.

    Parameters
    ----------
    votes:
        Collected pairwise votes.
    max_iterations / tolerance:
        Power-iteration stopping rule on the L1 change of the
        stationary estimate.
    regularization:
        Pseudo-votes added in both directions of every *observed* pair,
        keeping the chain irreducible on its comparison graph.

    Returns
    -------
    (ranking, scores):
        The ranking (most preferred first) and the stationary
        probabilities, indexed by object id.

    Raises
    ------
    InferenceError
        On an empty vote set.
    """
    if len(votes) == 0:
        raise InferenceError("Rank Centrality needs at least one vote")
    n = votes.n_objects
    transition, self_loop = _sparse_transition(votes, regularization)
    pi = _power_iteration_sparse(
        transition, self_loop, max_iterations, tolerance
    )

    pi = np.maximum(pi, 0.0)
    pi = pi / pi.sum() if pi.sum() > 0 else np.full(n, 1.0 / n)
    order = np.argsort(-pi, kind="stable")
    return Ranking(order.tolist()), pi


def _sparse_transition(
    votes: VoteSet, regularization: float
) -> Tuple[sparse.csr_matrix, np.ndarray]:
    """The Rank Centrality chain as CSR + self-loop vector.

    Win counts aggregate per observed pair, the regulariser is added in
    both directions of observed pairs only, and rows are normalised by
    the maximum comparison degree.  The self-loop mass is returned as a
    separate vector so the matrix stays at 2 entries per observed pair.
    """
    n = votes.n_objects
    incidence = build_incidence(votes.arrays())
    lo, hi = incidence.edge_lo, incidence.edge_hi
    wins_lo = incidence.value_sum + regularization      # lo beat hi
    wins_hi = (incidence.counts - incidence.value_sum) + regularization
    totals = incidence.counts + 2.0 * regularization

    degree = (np.bincount(lo, minlength=n)
              + np.bincount(hi, minlength=n))
    d_max = max(int(degree.max()), 1)

    # transition[i -> j] = wins[j over i] / totals / d_max.
    rows = np.concatenate([lo, hi])
    cols = np.concatenate([hi, lo])
    data = np.concatenate([wins_hi / totals, wins_lo / totals]) / d_max
    transition = sparse.csr_matrix(
        (data, (rows, cols)), shape=(n, n)
    )
    self_loop = 1.0 - np.asarray(transition.sum(axis=1)).ravel()
    return transition, self_loop


def _power_iteration_sparse(
    transition: sparse.csr_matrix,
    self_loop: np.ndarray,
    max_iterations: int,
    tolerance: float,
) -> np.ndarray:
    n = transition.shape[0]
    # pi @ T as T^T @ pi, pre-transposed once so every iteration is a
    # single CSR mat-vec plus the elementwise self-loop term.
    transposed = transition.T.tocsr()
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iterations):
        new_pi = transposed @ pi + self_loop * pi
        if float(np.abs(new_pi - pi).sum()) < tolerance:
            pi = new_pi
            break
        pi = new_pi
    return pi
