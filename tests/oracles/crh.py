"""Step 1 oracle: the numpy CRH iteration the native loop replaced.

:func:`crh_iterations` runs Eq. 4 and Eq. 5 and the convergence test
with ``np.bincount`` sums and numpy reductions, exactly as
:func:`repro.truth.discover_truth` ran them before the loop moved to C
(``src/repro/inference/_crh.c``).  :func:`discover_truth_reference`
wraps it in the production set-up and calibration, so its result is
comparable field for field with :func:`repro.truth.discover_truth`:
truth, weights, reported quality and every delta bit for bit.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple, Union

import numpy as np

from repro.config import TruthDiscoveryConfig
from repro.exceptions import InferenceError
from repro.truth.convergence import ConvergenceTrace
from repro.truth.crh import (
    TruthDiscoveryResult,
    TruthWarmStart,
    _chi2_scale,
    _initial_state,
    _result,
)
from repro.types import VoteArrays, VoteSet


def crh_iterations(
    arrays: VoteArrays,
    chi2_scale: np.ndarray,
    quality: np.ndarray,
    truth: np.ndarray,
    config: TruthDiscoveryConfig,
) -> Tuple[np.ndarray, np.ndarray, ConvergenceTrace]:
    """The iteration loop from ``(quality, truth)``: the last truth and
    weights and the trace."""
    vote_pair, vote_worker = arrays.pair_idx, arrays.worker_idx
    vote_value = arrays.value
    n_pairs, n_workers = arrays.n_pairs, arrays.n_workers
    trace = ConvergenceTrace()
    for _ in range(config.max_iterations):
        # Eq. 4: weighted average of votes per pair.
        weights = quality[vote_worker]
        numer = np.bincount(vote_pair, weights=weights * vote_value,
                            minlength=n_pairs)
        denom = np.bincount(vote_pair, weights=weights, minlength=n_pairs)
        new_truth = numer / np.maximum(denom, 1e-300)

        # Eq. 5: quality inversely proportional to squared disagreement.
        sq_err = (vote_value - new_truth[vote_pair]) ** 2
        err_per_worker = np.bincount(vote_worker, weights=sq_err,
                                     minlength=n_workers)
        new_quality = chi2_scale / np.maximum(err_per_worker, config.min_error)
        new_quality = new_quality / new_quality.max()

        pref_delta = float(np.mean(np.abs(new_truth - truth)))
        qual_delta = float(np.mean(np.abs(new_quality - quality)))
        truth, quality = new_truth, new_quality
        trace.record(pref_delta, qual_delta)
        if pref_delta < config.tolerance and qual_delta < config.tolerance:
            trace.converged = True
            break
    return truth, quality, trace


def discover_truth_reference(
    votes: Union[VoteSet, VoteArrays],
    config: Optional[TruthDiscoveryConfig] = None,
    warm_start: Optional[TruthWarmStart] = None,
) -> TruthDiscoveryResult:
    """:func:`repro.truth.discover_truth` with the numpy loop."""
    config = config if config is not None else TruthDiscoveryConfig()
    if len(votes) == 0:
        raise InferenceError("cannot discover truth from an empty vote set")
    start = time.perf_counter()
    arrays = votes.arrays() if isinstance(votes, VoteSet) else votes
    tasks_per_worker, chi2_scale = _chi2_scale(arrays, config)
    quality, truth = _initial_state(warm_start, arrays.n_pairs,
                                    arrays.n_workers)
    truth, quality, trace = crh_iterations(arrays, chi2_scale, quality,
                                           truth, config)
    return _result(arrays, config, truth, quality, trace, tasks_per_worker,
                   start)
