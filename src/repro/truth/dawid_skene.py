"""Dawid-Skene-style EM truth discovery for pairwise comparisons.

An alternative Step-1 engine from the truth-discovery family the paper
surveys (Sec. VII).  Each pair's true preference is a latent Bernoulli
variable; each worker has a latent *accuracy* ``a_k`` (probability of
voting with the truth, the two-coin Dawid-Skene model restricted to the
symmetric binary case):

* **E-step** — posterior of each pair's truth given votes and worker
  accuracies:
  ``P(x_ij = 1 | votes) ∝ prod_k a_k^{v_k} (1 - a_k)^{1 - v_k}``;
* **M-step** — each worker's accuracy is their posterior-weighted
  agreement rate, with add-one smoothing so nobody pins to 0 or 1.

Compared to the paper's CRH iteration (Eq. 4-5), Dawid-Skene can exploit
*systematically inverted* workers — an accuracy of 0.1 flips that
worker's votes into evidence — whereas weighted averaging can only
downweight them.  The spam-resilience ablation quantifies this.

The output is interface-compatible with
:func:`repro.truth.crh.discover_truth`, so the pipeline can swap engines.
"""

from __future__ import annotations

import time
from typing import Optional, Union

import numpy as np

from ..config import TruthDiscoveryConfig
from ..exceptions import ConvergenceError, InferenceError
from ..types import PairValues, VoteArrays, VoteSet
from .convergence import ConvergenceTrace
from .crh import TruthDiscoveryResult, TruthWarmStart

#: Worker accuracies are kept inside [_ACC_FLOOR, 1 - _ACC_FLOOR].
_ACC_FLOOR = 1e-3


def discover_truth_em(
    votes: Union[VoteSet, VoteArrays],
    config: Optional[TruthDiscoveryConfig] = None,
    warm_start: Optional[TruthWarmStart] = None,
) -> TruthDiscoveryResult:
    """EM (Dawid-Skene) truth discovery over a vote set.

    Returns the same :class:`TruthDiscoveryResult` shape as the CRH
    engine: per-pair preference posteriors and per-worker quality.
    Worker quality is reported as ``q_k = exp(-sigma_hat_k)`` with
    ``sigma_hat_k = (1 - a_k) * sqrt(pi/2)`` so Step 2's
    ``-log q_k`` recovers the error deviation implied by the estimated
    accuracy, exactly mirroring the CRH engine's calibration.

    Accepts a pre-built :class:`~repro.types.VoteArrays` in place of a
    vote set (the streaming path), and an optional
    :class:`~repro.truth.crh.TruthWarmStart` whose ``truth`` is the
    previous posterior vector and ``weights`` the previous accuracy
    vector; ``warm_start=None`` reproduces the cold start bit for bit.

    Raises
    ------
    InferenceError
        If the vote set is empty, or a warm start's vectors do not
        match the vote set's pair/worker tables.
    ConvergenceError
        If ``config.strict`` and the iteration cap is reached first.
    """
    config = config if config is not None else TruthDiscoveryConfig()
    if len(votes) == 0:
        raise InferenceError("cannot discover truth from an empty vote set")
    start = time.perf_counter()

    # Columnar vote view, flattened once and cached on the vote set.
    arrays = votes.arrays() if isinstance(votes, VoteSet) else votes
    vote_pair, vote_worker = arrays.pair_idx, arrays.worker_idx
    vote_value = arrays.value
    n_pairs, n_workers = arrays.n_pairs, arrays.n_workers

    tasks_per_worker = np.bincount(vote_worker, minlength=n_workers)
    if warm_start is None:
        accuracy = np.full(n_workers, 0.7, dtype=np.float64)
        posterior = np.full(n_pairs, 0.5, dtype=np.float64)
    else:
        posterior = np.asarray(warm_start.truth, dtype=np.float64)
        accuracy = np.asarray(warm_start.weights, dtype=np.float64)
        if posterior.shape != (n_pairs,) or accuracy.shape != (n_workers,):
            raise InferenceError(
                f"warm start of shapes {posterior.shape}/{accuracy.shape} "
                f"does not match the {n_pairs}-pair / {n_workers}-worker "
                "vote tables"
            )
        posterior, accuracy = posterior.copy(), accuracy.copy()
    trace = ConvergenceTrace()

    for _ in range(config.max_iterations):
        # E-step: per-pair log-likelihood ratio of x = 1 vs x = 0.
        acc = np.clip(accuracy, _ACC_FLOOR, 1.0 - _ACC_FLOOR)
        log_acc = np.log(acc)[vote_worker]
        log_err = np.log(1.0 - acc)[vote_worker]
        # A vote v supports x=1 with log a (if v=1) else log(1-a), and
        # x=0 with the roles swapped.
        support_one = vote_value * log_acc + (1.0 - vote_value) * log_err
        support_zero = vote_value * log_err + (1.0 - vote_value) * log_acc
        llr = np.bincount(vote_pair, weights=support_one - support_zero,
                          minlength=n_pairs)
        new_posterior = 1.0 / (1.0 + np.exp(-np.clip(llr, -500, 500)))

        # M-step: posterior-weighted agreement with add-one smoothing.
        agreement = (vote_value * new_posterior[vote_pair]
                     + (1.0 - vote_value) * (1.0 - new_posterior[vote_pair]))
        agree_per_worker = np.bincount(vote_worker, weights=agreement,
                                       minlength=n_workers)
        new_accuracy = (agree_per_worker + 1.0) / (tasks_per_worker + 2.0)

        pref_delta = float(np.mean(np.abs(new_posterior - posterior)))
        acc_delta = float(np.mean(np.abs(new_accuracy - accuracy)))
        posterior, accuracy = new_posterior, new_accuracy
        trace.record(pref_delta, acc_delta)
        if pref_delta < config.tolerance and acc_delta < config.tolerance:
            trace.converged = True
            break

    if config.strict and not trace.converged:
        raise ConvergenceError(
            f"EM truth discovery did not converge within "
            f"{config.max_iterations} iterations"
        )

    # Calibrated reported quality, mirroring the CRH engine: the error
    # probability implied by the accuracy estimate maps to the deviation
    # sigma_hat with E|N(0, sigma^2)| equal to it.
    error_rate = np.clip(1.0 - accuracy, 0.0, 1.0)
    sigma_hat = error_rate * np.sqrt(np.pi / 2.0)
    reported_quality = np.exp(-sigma_hat)

    elapsed = time.perf_counter() - start
    return TruthDiscoveryResult(
        preferences=PairValues.from_table(arrays, posterior),
        worker_quality=dict(zip(arrays.workers(), reported_quality.tolist())),
        trace=trace,
        elapsed_seconds=elapsed,
        preference_vector=posterior,
        quality_vector=reported_quality,
        iteration_weights=accuracy,
    )
