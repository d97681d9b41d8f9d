"""Warm-started incremental inference over a growing vote pool.

The batch pipeline (:class:`repro.inference.pipeline.RankingPipeline`)
recomputes Steps 1-4 from scratch.  The :class:`IncrementalEngine`
reruns them after every ingest and carries one piece of state across
updates, the one that pays for itself:

* **Step 1 warm start** — the previous truth/iteration-weight vectors
  (remapped onto the grown pair/worker tables; new pairs start at 0.5,
  new workers at the engine's cold-start weight) seed the next CRH/EM
  run through :class:`repro.truth.TruthWarmStart`.
* **Step 2** runs the full :func:`~repro.inference.smoothing.smooth_matrix`
  and **Step 3** the full propagation: both are dense kernels, cheap
  next to Step 1, and their outputs depend on every vote.
* **Step 4 cold tail** — every update, the first included, anneals
  from the fresh closure's :func:`~repro.inference.saps.degree_order`
  for the last ``warm_iterations`` iterations of the configured
  schedule (:func:`~repro.inference.saps.tail_temperature`), one
  restart.  The previous ranking, found on fewer votes, is not used.

The very first update (no previous state) runs Step 1 from its cold
start; only the session's ``recompute()`` runs the batch pipeline's
full SAPS schedule.  The engine keeps the last update's Step 3
``closure`` and worker qualities for the session's acquisition reads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..config import PipelineConfig
from ..exceptions import InferenceError
from ..inference.propagation import propagate_matrix
from ..inference.saps import degree_order, saps_search_report, tail_temperature
from ..inference.smoothing import direct_preference_matrix, smooth_matrix
from ..truth.crh import TruthWarmStart, discover_truth
from ..truth.dawid_skene import discover_truth_em
from ..types import Ranking, VoteArrays


@dataclass(frozen=True)
class UpdateReport:
    """Diagnostics of one engine update.

    ``mode`` is ``"full"`` (Step 1 from its cold start) or
    ``"incremental"`` (Step 1 warm-started); Steps 2-4 are the same in
    both.
    """

    ranking: Ranking
    log_preference: float
    mode: str
    truth_iterations: int
    n_one_edges: int


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
    through its lock.  After an update, ``worker_ids`` and
    ``worker_quality`` hold Step 1's worker qualities and ``closure``
    Step 3's matrix (all ``None`` before the first update).
    """

    def __init__(self, config: PipelineConfig, *,
                 warm_iterations: int = 1500) -> None:
        if config.search != "saps":
            raise InferenceError(
                "incremental sessions require search='saps' (the "
                f"cold-tail anneal is undefined for {config.search!r})"
            )
        self.config = config
        self.warm_iterations = int(warm_iterations)
        self._cold_weight = 1.0 if config.truth_engine == "crh" else 0.7
        # Carried state (None until the first update).
        self._pair_keys: Optional[np.ndarray] = None
        self._truth: Optional[np.ndarray] = None
        self._weights: Optional[np.ndarray] = None
        self.worker_ids: Optional[np.ndarray] = None
        self.worker_quality: Optional[np.ndarray] = None
        self.closure: Optional[np.ndarray] = None
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
        full = self._truth is None
        discover = (discover_truth_em if config.truth_engine == "em"
                    else discover_truth)

        # -- Step 1: truth discovery, warm-started after the first ------
        keys = _pair_keys(arrays.pair_lo, arrays.pair_hi, arrays.n_objects)
        warm = None if full else TruthWarmStart(
            truth=_remap(self._truth, self._pair_keys, keys, 0.5),
            weights=_remap(self._weights, self.worker_ids,
                           arrays.worker_ids, self._cold_weight),
        )
        truth = discover(arrays, config.truth, warm)

        # -- Steps 2-3: full smoothing and propagation ------------------
        smoothing = smooth_matrix(
            direct_preference_matrix(arrays, truth.preference_vector),
            truth.preference_vector, arrays, truth.quality_vector,
            config.smoothing, rng,
        )
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
        self._truth = truth.preference_vector
        self._weights = truth.iteration_weights
        self.worker_ids = arrays.worker_ids
        self.worker_quality = truth.quality_vector
        self.closure = closure
        self._votes_seen = arrays.n_votes
        return UpdateReport(
            ranking=report.ranking,
            log_preference=report.log_preference,
            mode="full" if full else "incremental",
            truth_iterations=truth.iterations,
            n_one_edges=smoothing.n_one_edges,
        )
