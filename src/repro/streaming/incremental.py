"""Warm-started incremental inference over a growing vote pool.

The batch pipeline (:class:`repro.inference.pipeline.RankingPipeline`)
recomputes Steps 1-4 from scratch; per-vote that is dominated by the
SAPS anneal and by re-running truth discovery from its cold start.  The
:class:`IncrementalEngine` keeps the previous update's converged state
and reuses it in Steps 1 and 2; Step 4 needs none of it:

* **Step 1 warm start** — the previous truth/iteration-weight vectors
  (remapped onto the grown pair/worker tables; new pairs start at 0.5,
  new workers at the engine's cold-start weight) seed the next CRH/EM
  run through :class:`repro.truth.TruthWarmStart`.  If the reported
  worker qualities shift by more than ``quality_shift_threshold``
  against the previous update, the warm fixed point is distrusted and
  the run is redone as a **damped restart**: weights reset to the cold
  start, truth damped toward the uninformative 0.5 by
  ``truth_damping`` — warm speed where the landscape is steady, cold
  robustness where it moved.
* **Step 2 dirty-pair re-smoothing** — only matrix entries of pairs
  that received new votes, or whose votes involve a worker who cast new
  votes (their sigma changed), are rebuilt
  (:func:`repro.inference.smoothing.resmooth_pairs`); the rest of the
  dense matrix carries over.  When the dirty fraction exceeds
  ``full_rebuild_fraction`` the full :func:`smooth_matrix` is cheaper
  and exact, so the engine falls back to it.
* **Step 4 cold tail** — every update, the first included, anneals
  from the fresh closure's :func:`~repro.inference.saps.degree_order`
  for the last ``warm_iterations`` iterations of the configured
  schedule (:func:`~repro.inference.saps.tail_temperature`), one
  restart.  The previous ranking, found on fewer votes, is not used.

Step 3 (propagation) is recomputed in full — it is a dense matrix
kernel, cheap next to the anneal, and its output depends globally on
every entry.

The very first update (no previous state) is a **full** update of
Steps 1-3 (cold truth discovery, full smoothing); only the session's
``recompute()`` runs the batch pipeline's full SAPS schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..config import PipelineConfig
from ..exceptions import InferenceError
from ..inference.propagation import propagate_matrix
from ..inference.saps import degree_order, saps_search_report, tail_temperature
from ..inference.smoothing import (
    direct_preference_matrix,
    resmooth_pairs,
    smooth_matrix,
)
from ..truth.crh import TruthWarmStart, discover_truth
from ..truth.dawid_skene import discover_truth_em
from ..types import Ranking, VoteArrays


@dataclass(frozen=True)
class UpdateReport:
    """Diagnostics of one engine update.

    ``mode`` is ``"full"`` (cold Steps 1-3) or ``"incremental"``
    (warm-started Step 1, dirty-pair Step 2); Step 4 is the same
    cold-tail anneal in both.  ``damped_restart``
    flags that the warm Step-1 run was redone with damped state after a
    quality shift beyond the threshold.
    """

    ranking: Ranking
    log_preference: float
    mode: str
    truth_iterations: int
    damped_restart: bool
    n_dirty_pairs: int
    n_one_edges: int
    quality_shift: float


def dirty_pair_mask(arrays: VoteArrays, new_from: int) -> np.ndarray:
    """Pairs whose smoothed entries are stale after a vote delta.

    ``new_from`` is the vote-row index where the delta begins (rows
    ``[new_from, n_votes)`` are the newly ingested votes).  A pair is
    dirty when it received a new vote directly, **or** when any of its
    votes was cast by a worker who cast a new vote — that worker's
    quality estimate (hence smoothing sigma) changed, touching every
    pair they answered.
    """
    if not 0 <= new_from <= arrays.n_votes:
        raise InferenceError(
            f"vote delta start {new_from} outside [0, {arrays.n_votes}]"
        )
    mask = np.zeros(arrays.n_pairs, dtype=bool)
    mask[arrays.pair_idx[new_from:]] = True
    dirty_workers = np.zeros(arrays.n_workers, dtype=bool)
    dirty_workers[arrays.worker_idx[new_from:]] = True
    mask[arrays.pair_idx[dirty_workers[arrays.worker_idx]]] = True
    return mask


def _remap(
    old_values: np.ndarray,
    old_keys: np.ndarray,
    new_keys: np.ndarray,
    fill: float,
) -> np.ndarray:
    """Carry per-key state across a grown sorted key table.

    Both key arrays are sorted and duplicate-free (they are pair/worker
    tables); entries of ``new_keys`` present in ``old_keys`` take the
    old value, fresh entries take ``fill``.
    """
    out = np.full(new_keys.shape[0], fill, dtype=np.float64)
    pos = np.searchsorted(old_keys, new_keys)
    pos_clipped = np.minimum(pos, max(old_keys.shape[0] - 1, 0))
    if old_keys.shape[0]:
        hit = old_keys[pos_clipped] == new_keys
        out[hit] = old_values[pos_clipped[hit]]
    return out


def _pair_keys(lo: np.ndarray, hi: np.ndarray, base: int) -> np.ndarray:
    """Encode canonical pairs as sortable scalars (matching the
    lexicographic table order for any ``base > max id``)."""
    return lo * np.int64(base) + hi


class IncrementalEngine:
    """Steps 1-4 with carried state; one instance per ranking session.

    Not thread-safe on its own — the owning session serialises updates
    through its lock.
    """

    def __init__(
        self,
        config: PipelineConfig,
        *,
        warm_iterations: int = 1500,
        quality_shift_threshold: float = 0.25,
        truth_damping: float = 0.5,
        full_rebuild_fraction: float = 0.5,
    ) -> None:
        if config.search != "saps":
            raise InferenceError(
                "incremental sessions require search='saps' (the "
                f"cold-tail anneal is undefined for {config.search!r})"
            )
        self.config = config
        self.warm_iterations = int(warm_iterations)
        self.quality_shift_threshold = float(quality_shift_threshold)
        self.truth_damping = float(truth_damping)
        self.full_rebuild_fraction = float(full_rebuild_fraction)
        self._cold_weight = 1.0 if config.truth_engine == "crh" else 0.7
        # Carried state (None until the first update).
        self._pair_keys: Optional[np.ndarray] = None
        self._worker_ids: Optional[np.ndarray] = None
        self._truth: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self._reported_quality: Optional[np.ndarray] = None
        self._smoothed: Optional[np.ndarray] = None
        self._votes_seen = 0

    def update(self, arrays: VoteArrays, rng: np.random.Generator
               ) -> UpdateReport:
        """Re-infer the ranking over the grown vote arrays.

        ``arrays`` must be a superset snapshot of the previous call's
        (rows only appended — the :class:`~repro.streaming.VoteBuffer`
        contract); ``rng`` is the session's long-lived generator.
        """
        if arrays.n_votes < self._votes_seen:
            raise InferenceError(
                f"vote arrays shrank from {self._votes_seen} to "
                f"{arrays.n_votes} rows; sessions are append-only"
            )
        config = self.config
        new_from = self._votes_seen
        full = self._truth is None
        discover = (discover_truth_em if config.truth_engine == "em"
                    else discover_truth)

        # -- Step 1: truth discovery (warm, with damped-restart guard) --
        keys = _pair_keys(arrays.pair_lo, arrays.pair_hi, arrays.n_objects)
        damped_restart = False
        quality_shift = 0.0
        if full:
            truth = discover(arrays, config.truth)
        else:
            warm = TruthWarmStart(
                truth=_remap(self._truth, self._pair_keys, keys, 0.5),
                weights=_remap(self._weights, self._worker_ids,
                               arrays.worker_ids, self._cold_weight),
            )
            truth = discover(arrays, config.truth, warm)
            previous_quality = _remap(
                self._reported_quality, self._worker_ids,
                arrays.worker_ids, np.nan,
            )
            known = ~np.isnan(previous_quality)
            if known.any():
                quality_shift = float(np.max(np.abs(
                    truth.quality_vector[known] - previous_quality[known]
                )))
            if quality_shift > self.quality_shift_threshold:
                # The worker-quality landscape moved too much for the
                # warm fixed point to be trusted: damped restart.
                damped_restart = True
                damped = TruthWarmStart(
                    truth=0.5 + self.truth_damping * (warm.truth - 0.5),
                    weights=np.full(arrays.n_workers, self._cold_weight),
                )
                truth = discover(arrays, config.truth, damped)

        # -- Step 2: smoothing (dirty pairs over the carried matrix) ----
        if full or damped_restart:
            mask = np.ones(arrays.n_pairs, dtype=bool)
        else:
            mask = dirty_pair_mask(arrays, new_from)
        n_dirty = int(mask.sum())
        incremental_smooth = (
            not full
            and not damped_restart
            and n_dirty <= self.full_rebuild_fraction * arrays.n_pairs
        )
        if incremental_smooth:
            smoothing = resmooth_pairs(
                self._smoothed, truth.preference_vector, arrays,
                truth.quality_vector, mask, config.smoothing, rng,
            )
        else:
            direct = direct_preference_matrix(
                arrays, truth.preference_vector
            )
            smoothing = smooth_matrix(
                direct, truth.preference_vector, arrays,
                truth.quality_vector, config.smoothing, rng,
            )

        # -- Step 3: full propagation (dense kernel, globally coupled) --
        closure = propagate_matrix(smoothing.matrix, config.propagation)

        # -- Step 4: cold tail of the SAPS schedule from degree order ---
        saps = replace(
            config.saps, iterations=self.warm_iterations, restarts=1,
            scale_with_objects=False,
            temperature=tail_temperature(config.saps, arrays.n_objects,
                                         self.warm_iterations),
        )
        report = saps_search_report(closure, saps, rng,
                                    warm_start=degree_order(closure))

        self._pair_keys = keys
        self._worker_ids = arrays.worker_ids
        self._truth = truth.preference_vector
        self._weights = truth.iteration_weights
        self._reported_quality = truth.quality_vector
        self._smoothed = smoothing.matrix
        self._votes_seen = arrays.n_votes
        return UpdateReport(
            ranking=report.ranking,
            log_preference=report.log_preference,
            mode="full" if full else "incremental",
            truth_iterations=truth.iterations,
            damped_restart=damped_restart,
            n_dirty_pairs=n_dirty if not (full or damped_restart) else
            arrays.n_pairs,
            n_one_edges=smoothing.n_one_edges,
            quality_shift=quality_shift,
        )
