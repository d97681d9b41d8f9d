"""The end-to-end result-inference pipeline (Sec. V, Steps 1-4).

:class:`RankingPipeline` wires truth discovery, smoothing, propagation and
the path search together, timing each step (the Fig. 4 breakdown) and
collecting diagnostics (iteration counts, 1-edge counts) into the returned
:class:`~repro.types.InferenceResult`.

For the common case, :func:`infer_ranking` is a one-call convenience.
"""

from __future__ import annotations

import math
import time
from typing import Optional

from ..config import PipelineConfig
from ..diagnostics import get_logger
from ..exceptions import InferenceError
from ..rng import SeedLike, ensure_rng
from ..types import InferenceResult, VoteSet
from ..truth.crh import discover_truth
from ..truth.dawid_skene import discover_truth_em
from .propagation import propagate_matrix
from .saps import saps_search_report
from .smoothing import direct_preference_matrix, smooth_matrix
from .taps import branch_and_bound_search, taps_search

_log = get_logger("inference.pipeline")


class RankingPipeline:
    """Configured Steps 1-4; reusable across vote sets."""

    def __init__(self, config: Optional[PipelineConfig] = None):
        # A dataclass default here would be evaluated once at import
        # time and silently shared by every pipeline; resolve per call.
        self._config = config if config is not None else PipelineConfig()

    @property
    def config(self) -> PipelineConfig:
        return self._config

    def run(self, votes: VoteSet, rng: SeedLike = None) -> InferenceResult:
        """Infer a full ranking from one round of collected votes.

        Raises
        ------
        InferenceError
            On empty votes, or when the requested exact search is
            infeasible for the instance size.
        """
        if votes.n_objects < 2:
            raise InferenceError("need at least 2 objects to rank")
        if len(votes) == 0:
            raise InferenceError("cannot infer a ranking from zero votes")
        generator = ensure_rng(rng)
        config = self._config

        # Sparse engines replace Steps 2-4 with one least-squares solve
        # over the comparison graph (see repro.inference.engines); the
        # dense path below is the paper's crh_saps pipeline.
        if config.engine != "crh_saps":
            from .engines import solve_sparse_engine

            report = solve_sparse_engine(votes, config, generator)
            return InferenceResult(
                ranking=report.ranking,
                log_preference=report.log_preference,
                worker_quality=report.worker_quality,
                direct_preferences=report.direct_preferences,
                step_seconds=report.step_seconds,
                metadata=report.metadata,
            )
        step_seconds = {}

        # Step 1: truth discovery of direct preferences.
        start = time.perf_counter()
        discover = (discover_truth_em if config.truth_engine == "em"
                    else discover_truth)
        truth = discover(votes, config.truth)
        arrays = votes.arrays()
        direct = direct_preference_matrix(arrays, truth.preference_vector)
        step_seconds["truth_discovery"] = time.perf_counter() - start

        # Step 2: smoothing of unanimous edges.
        start = time.perf_counter()
        smoothing = smooth_matrix(
            direct, truth.preference_vector, arrays,
            truth.quality_vector, config.smoothing, generator,
        )
        step_seconds["smoothing"] = time.perf_counter() - start

        # Step 3: indirect preferences and normalised complete closure.
        start = time.perf_counter()
        closure = propagate_matrix(smoothing.matrix, config.propagation)
        step_seconds["propagation"] = time.perf_counter() - start

        # Step 4: best-ranking search.
        start = time.perf_counter()
        if config.search == "taps":
            rankings, probability = taps_search(closure, config.taps)
            ranking = rankings[0]
            log_pref = math.log(probability) if probability > 0 else float("-inf")
            search_meta = {"tie_count": len(rankings)}
        elif config.search == "branch_and_bound":
            ranking, log_pref = branch_and_bound_search(closure)
            search_meta = {}
        else:
            report = saps_search_report(closure, config.saps, generator)
            ranking, log_pref = report.ranking, report.log_preference
            search_meta = {
                "saps_restarts": report.restarts,
                "saps_accepted_moves": report.accepted_moves,
                "saps_proposed_moves": report.proposed_moves,
                "saps_polish_improved": report.polish_improved,
            }
        step_seconds["search"] = time.perf_counter() - start

        _log.debug(
            "pipeline done: n=%d votes=%d search=%s timings=%s",
            votes.n_objects, len(votes), config.search,
            {k: round(v, 4) for k, v in step_seconds.items()},
        )
        metadata = {
            "truth_iterations": truth.iterations,
            "truth_converged": truth.trace.converged,
            "n_one_edges": smoothing.n_one_edges,
            "search_algorithm": config.search,
            **search_meta,
        }
        return InferenceResult(
            ranking=ranking,
            log_preference=log_pref,
            worker_quality=truth.worker_quality,
            direct_preferences=truth.preferences,
            step_seconds=step_seconds,
            metadata=metadata,
        )


def infer_ranking(
    votes: VoteSet,
    config: Optional[PipelineConfig] = None,
    rng: SeedLike = None,
) -> InferenceResult:
    """One-call inference with default (or supplied) configuration."""
    return RankingPipeline(config or PipelineConfig()).run(votes, rng)
