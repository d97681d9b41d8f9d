"""Iterative truth discovery of direct pairwise preferences (Sec. V-A).

The algorithm alternates two coupled estimates until they stop moving:

* **Truth update (Eq. 4)** — the estimated preference of each pair is the
  quality-weighted average of the workers' 0/1 votes:
  ``x_ij = sum_k x_ij^k q_k / sum_k q_k``;
* **Quality update (Eq. 5)** — each worker's quality is inversely
  proportional to their squared disagreement with the current truth,
  scaled by a chi-square percentile in their task count:
  ``q_k ∝ chi2_ppf(alpha/2, |T_k|) / sum_t (x^k_t - x_t)^2``.

The chi-square weights drive the iteration exactly as written, but they
span orders of magnitude (they scale with the worker's task count and
blow up for near-zero disagreement), so *reported* worker quality — which
the paper requires in ``[0, 1]`` and Step 2 consumes through
``sigma_k = -log(q_k)`` — needs a calibrated normalisation.  We expose
``q_k = exp(-sigma_hat_k)`` with ``sigma_hat_k = p_k * sqrt(pi/2)``,
where ``p_k`` is the worker's misvote rate against the rounded discovered
truth.  Under the paper's error model (``eps ~ |N(0, sigma^2)|`` with
``E[eps] = sigma * sqrt(2/pi)``), ``sigma_hat_k`` is exactly the
deviation whose expected error equals the observed misvote rate, so
Step 2's ``-log(q_k)`` recovers it and the smoothing shift equals the
answering workers' estimated error probability (see DESIGN.md §5).
Workers start at equal weight 1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np
from scipy import special

from ..config import TruthDiscoveryConfig
from ..exceptions import ConvergenceError, InferenceError
from ..types import PairValues, VoteArrays, VoteSet, WorkerId
from .convergence import ConvergenceTrace


@dataclass(frozen=True)
class TruthWarmStart:
    """Initial iteration state for warm-started truth discovery.

    Streaming sessions re-run Step 1 after every small vote delta; the
    previous run's fixed point is an excellent initial guess, cutting
    the iteration count from dozens to a handful.  Both vectors must be
    aligned with the *current* vote set's columnar tables
    (:class:`~repro.types.VoteArrays`): ``truth`` with the pair table
    and ``weights`` with the worker table.  For CRH, ``weights`` is the
    internal Eq. 4/5 iteration weight (max-normalised); for the EM
    engine it is the worker-accuracy vector.  A warm start never
    changes *what* fixed point the iteration targets — only where it
    starts — and with ``warm_start=None`` both engines behave exactly
    as before.
    """

    truth: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True)
class TruthDiscoveryResult:
    """Output of Step 1.

    Attributes
    ----------
    preferences:
        ``preferences[(i, j)]`` (canonical ``i < j``) is the estimated
        probability that ``O_i ≺ O_j`` — the paper's direct preference
        ``x_ij``, used as the edge weight ``w_ij`` of ``G_P``.  A
        read-only :class:`~repro.types.PairValues` over the vote set's
        pair table and ``preference_vector``: no per-pair dict is built
        unless a caller looks a pair up or iterates.
    worker_quality:
        Estimated quality ``q_k in (0, 1]`` per worker id.
    trace:
        Per-iteration convergence record.
    elapsed_seconds:
        Wall-clock time of the iterative loop.
    preference_vector:
        The same estimates as ``preferences``, as a dense vector aligned
        with the vote set's columnar pair table
        (:meth:`repro.types.VoteSet.arrays`); the pipeline's matrix fast
        path consumes this directly.
    quality_vector:
        ``worker_quality`` aligned with the columnar worker table.
    iteration_weights:
        The engine's *internal* per-worker iteration state at the fixed
        point (CRH's max-normalised Eq. 5 weights; EM's accuracies),
        aligned with the worker table.  Feed it back through
        :class:`TruthWarmStart` to warm-start the next run.
    """

    preferences: PairValues
    worker_quality: Dict[WorkerId, float]
    trace: ConvergenceTrace
    elapsed_seconds: float = 0.0
    preference_vector: Optional[np.ndarray] = None
    quality_vector: Optional[np.ndarray] = None
    iteration_weights: Optional[np.ndarray] = None

    @property
    def iterations(self) -> int:
        return self.trace.iterations


def discover_truth(
    votes: Union[VoteSet, VoteArrays],
    config: Optional[TruthDiscoveryConfig] = None,
    warm_start: Optional[TruthWarmStart] = None,
) -> TruthDiscoveryResult:
    """Run iterative truth discovery over a vote set.

    Parameters
    ----------
    votes:
        A frozen :class:`~repro.types.VoteSet`, or a pre-built columnar
        :class:`~repro.types.VoteArrays` view (the streaming path hands
        its incrementally maintained arrays in directly).
    config:
        Step-1 configuration.
    warm_start:
        Optional initial iteration state from a previous run (see
        :class:`TruthWarmStart`); ``None`` reproduces the cold-start
        behaviour bit for bit.

    Raises
    ------
    InferenceError
        If the vote set is empty, or a warm start's vectors do not
        match the vote set's pair/worker tables or hold a non-finite
        value.
    ConvergenceError
        If ``config.strict`` and the iteration cap is reached first.
    """
    # Imported here: importing the repro.inference package imports this
    # module.
    from ..inference import native

    config = config if config is not None else TruthDiscoveryConfig()
    if len(votes) == 0:
        raise InferenceError("cannot discover truth from an empty vote set")
    start = time.perf_counter()

    # The columnar view is flattened once and cached on the vote set;
    # the native loop runs over its parallel arrays.
    arrays = votes.arrays() if isinstance(votes, VoteSet) else votes
    tasks_per_worker, chi2_scale = _chi2_scale(arrays, config)
    quality, truth = _initial_state(warm_start, arrays.n_pairs,
                                    arrays.n_workers)
    iterations, converged, deltas = native.crh_iterate(
        arrays.pair_idx, arrays.worker_idx, arrays.value, chi2_scale,
        truth, quality, config.min_error, config.tolerance,
        config.max_iterations)
    trace = ConvergenceTrace(deltas[:iterations, 0].tolist(),
                             deltas[:iterations, 1].tolist(), converged)
    return _result(arrays, config, truth, quality, trace, tasks_per_worker,
                   start)


def _chi2_scale(arrays: VoteArrays, config: TruthDiscoveryConfig) -> tuple:
    """``(tasks_per_worker, chi2_scale)``: Eq. 5's chi-square numerator
    depends only on the task count, so it is a per-worker constant
    across iterations."""
    tasks_per_worker = np.bincount(arrays.worker_idx,
                                   minlength=arrays.n_workers)
    chi2_scale = _chi2_ppf(config.alpha / 2.0, tasks_per_worker)
    return tasks_per_worker, np.maximum(chi2_scale, 1e-12)


def _result(arrays: VoteArrays, config: TruthDiscoveryConfig,
            truth: np.ndarray, quality: np.ndarray, trace: ConvergenceTrace,
            tasks_per_worker: np.ndarray,
            start: float) -> TruthDiscoveryResult:
    """The result of a finished loop, with the calibrated reported
    quality; raises :class:`ConvergenceError` if ``config.strict`` and
    the loop did not converge."""
    if config.strict and not trace.converged:
        raise ConvergenceError(
            f"truth discovery did not converge within "
            f"{config.max_iterations} iterations "
            f"(last deltas: x={trace.preference_deltas[-1]:.2e}, "
            f"q={trace.quality_deltas[-1]:.2e})"
        )

    # Calibrated reported quality: each worker's misvote rate against the
    # rounded truth estimates the error probability p_k; the deviation
    # with E|N(0, sigma^2)| = p_k is sigma_hat = p_k * sqrt(pi/2), and
    # q_k = exp(-sigma_hat) makes Step 2's -log(q_k) recover it exactly.
    rounded_truth = (truth >= 0.5).astype(np.float64)
    mismatch = np.abs(arrays.value - rounded_truth[arrays.pair_idx])
    misvote_rate = np.bincount(
        arrays.worker_idx, weights=mismatch, minlength=arrays.n_workers
    ) / np.maximum(tasks_per_worker, 1)
    sigma_hat = misvote_rate * np.sqrt(np.pi / 2.0)
    reported_quality = np.exp(-sigma_hat)

    elapsed = time.perf_counter() - start
    return TruthDiscoveryResult(
        preferences=PairValues.from_table(arrays, truth),
        worker_quality=dict(zip(arrays.workers(), reported_quality.tolist())),
        trace=trace,
        elapsed_seconds=elapsed,
        preference_vector=truth,
        quality_vector=reported_quality,
        iteration_weights=quality,
    )


def _initial_state(
    warm_start: Optional[TruthWarmStart], n_pairs: int, n_workers: int
) -> tuple:
    """``(quality, truth)`` starting vectors — cold or warm."""
    if warm_start is None:
        return (np.ones(n_workers, dtype=np.float64),
                np.full(n_pairs, 0.5, dtype=np.float64))
    truth = np.asarray(warm_start.truth, dtype=np.float64)
    weights = np.asarray(warm_start.weights, dtype=np.float64)
    if truth.shape != (n_pairs,) or weights.shape != (n_workers,):
        raise InferenceError(
            f"warm start of shapes {truth.shape}/{weights.shape} does not "
            f"match the {n_pairs}-pair / {n_workers}-worker vote tables"
        )
    if not (np.isfinite(truth).all() and np.isfinite(weights).all()):
        raise InferenceError("warm start holds a non-finite value")
    # Copies: the iteration must never mutate the caller's state.
    return weights.copy(), truth.copy()


def _chi2_ppf(q: float, df: np.ndarray) -> np.ndarray:
    """Chi-square percent point ``chi2_ppf(q, df)``, elementwise in *df*.

    This is ``2 * gammaincinv(df / 2, q)``: the formula
    ``scipy.stats.chi2.ppf`` itself evaluates, bit for bit.  Calling
    :mod:`scipy.special` directly keeps ``scipy.stats`` (most of a cold
    ``import repro``) out of every process that runs truth discovery.
    """
    return 2.0 * special.gammaincinv(df / 2.0, q)
