"""Steps 1-4 oracle: the pipeline through the object graph.

Step 1's preferences become a
:class:`~tests.oracles.preference_graph.PreferenceGraph`, Step 2 runs
the per-edge :func:`~tests.oracles.smoothing.smooth_preferences`, and
Step 3 propagates the smoothed graph.  The random stream is consumed in
:class:`~repro.inference.RankingPipeline`'s order (smoothing, then
SAPS), so for a fixed seed the columnar pipeline must return the same
ranking, log-preference and metadata bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.config import PipelineConfig
from repro.inference.propagation import propagate_matrix
from repro.inference.saps import saps_search_report
from repro.rng import SeedLike, ensure_rng
from repro.truth.crh import TruthDiscoveryResult, discover_truth
from repro.truth.dawid_skene import discover_truth_em
from repro.types import InferenceResult, VoteSet

from .preference_graph import PreferenceGraph
from .smoothing import SmoothingResult, smooth_preferences


@dataclass(frozen=True)
class ObjectClosure:
    """Steps 1-3 through the object graph, with per-step wall times
    under the pipeline's ``step_seconds`` keys."""

    truth: TruthDiscoveryResult
    smoothing: SmoothingResult
    closure: np.ndarray
    step_seconds: Dict[str, float]


def object_closure(
    votes: VoteSet,
    config: Optional[PipelineConfig] = None,
    rng: SeedLike = None,
) -> ObjectClosure:
    """Steps 1-3 on ``votes``; ``rng`` feeds sampled smoothing only."""
    config = config if config is not None else PipelineConfig()
    generator = ensure_rng(rng)
    step_seconds = {}

    start = time.perf_counter()
    discover = (discover_truth_em if config.truth_engine == "em"
                else discover_truth)
    truth = discover(votes, config.truth)
    direct = PreferenceGraph.from_direct_preferences(
        votes.n_objects, truth.preferences
    )
    step_seconds["truth_discovery"] = time.perf_counter() - start

    start = time.perf_counter()
    smoothing = smooth_preferences(direct, votes, truth.worker_quality,
                                   config.smoothing, generator)
    step_seconds["smoothing"] = time.perf_counter() - start

    start = time.perf_counter()
    closure = propagate_matrix(smoothing.graph.weight_matrix(),
                               config.propagation)
    step_seconds["propagation"] = time.perf_counter() - start
    return ObjectClosure(truth, smoothing, closure, step_seconds)


def object_pipeline(
    votes: VoteSet,
    config: Optional[PipelineConfig] = None,
    rng: SeedLike = None,
) -> InferenceResult:
    """Steps 1-4 with SAPS as Step 4 (``config.search`` is not read)."""
    config = config if config is not None else PipelineConfig()
    generator = ensure_rng(rng)
    steps = object_closure(votes, config, generator)
    step_seconds = dict(steps.step_seconds)

    start = time.perf_counter()
    report = saps_search_report(steps.closure, config.saps, generator)
    step_seconds["search"] = time.perf_counter() - start

    truth = steps.truth
    return InferenceResult(
        ranking=report.ranking,
        log_preference=report.log_preference,
        worker_quality=truth.worker_quality,
        direct_preferences=truth.preferences,
        step_seconds=step_seconds,
        metadata={
            "truth_iterations": truth.iterations,
            "truth_converged": truth.trace.converged,
            "n_one_edges": steps.smoothing.n_one_edges,
            "search_algorithm": "saps",
            "saps_restarts": report.restarts,
            "saps_accepted_moves": report.accepted_moves,
            "saps_proposed_moves": report.proposed_moves,
            "saps_polish_improved": report.polish_improved,
        },
    )
