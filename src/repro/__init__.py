"""repro — budget-constrained non-interactive crowdsourced ranking.

A complete reproduction of *"Pairwise Ranking Aggregation by
Non-interactive Crowdsourcing with Budget Constraints"* (ICDCS 2017):
fair budget-conscious task assignment (Sec. IV), truth-discovery-based
result inference with smoothing, transitive propagation and exact /
simulated-annealing path search (Sec. V), the paper's baselines
(RepeatChoice, QuickSort-Condorcet, CrowdBT), a simulated crowd platform,
and the full experiment harness for every table and figure.

Quickstart
----------
>>> from repro import rank_with_crowd
>>> from repro.types import Ranking
>>> from repro.workers import WorkerPool, gaussian_preset, QualityLevel
>>> truth = Ranking.random(20, rng=7)
>>> pool = WorkerPool.from_distribution(
...     30, gaussian_preset(QualityLevel.MEDIUM), rng=7)
>>> outcome = rank_with_crowd(
...     truth, pool, selection_ratio=0.5, workers_per_task=5, rng=7)
>>> 0.0 <= outcome.accuracy <= 1.0
True
"""

from ._lazy import lazy_exports
from ._version import __version__

# Every other name loads its module on first access, so that importing
# one submodule (``repro.server``, ``repro.cli``) runs only what it uses.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".config": (
        "FAST_PIPELINE",
        "PipelineConfig",
        "PropagationConfig",
        "SAPSConfig",
        "SmoothingConfig",
        "TAPSConfig",
        "TruthDiscoveryConfig",
    ),
    ".types": ("HIT", "InferenceResult", "Ranking", "Vote", "VoteSet"),
    ".budget": ("BudgetModel", "BudgetPlan", "plan_for_budget",
                "plan_for_selection_ratio"),
    ".assignment": ("assign_hits", "generate_assignment",
                    "verify_assignment"),
    ".inference": ("RankingPipeline", "infer_ranking"),
    ".session": ("CrowdRankingOutcome", "rank_with_crowd"),
    ".diagnostics": ("configure_logging", "get_logger"),
    ".service": (
        "BatchExecutor",
        "BatchReport",
        "JobResult",
        "JobStatus",
        "MetricsRegistry",
        "RankingJob",
        "ResultCache",
        "RetryPolicy",
        "ScenarioSpec",
        "run_batch",
    ),
    ".server": ("RankingServer", "ServerConfig"),
    ".client": ("RankingClient", "ServerError", "ServerUnavailableError"),
    ".streaming": (
        "RankingSession",
        "SessionConfig",
        "SessionManager",
        "StabilityMonitor",
        "VoteBuffer",
    ),
})

__all__ = [
    "__version__",
    "FAST_PIPELINE",
    "PipelineConfig",
    "PropagationConfig",
    "SAPSConfig",
    "SmoothingConfig",
    "TAPSConfig",
    "TruthDiscoveryConfig",
    "HIT",
    "InferenceResult",
    "Ranking",
    "Vote",
    "VoteSet",
    "BudgetModel",
    "BudgetPlan",
    "plan_for_budget",
    "plan_for_selection_ratio",
    "assign_hits",
    "generate_assignment",
    "verify_assignment",
    "RankingPipeline",
    "infer_ranking",
    "CrowdRankingOutcome",
    "rank_with_crowd",
    "configure_logging",
    "get_logger",
    "BatchExecutor",
    "BatchReport",
    "JobResult",
    "JobStatus",
    "MetricsRegistry",
    "RankingJob",
    "ResultCache",
    "RetryPolicy",
    "ScenarioSpec",
    "run_batch",
    "RankingServer",
    "ServerConfig",
    "RankingClient",
    "ServerError",
    "ServerUnavailableError",
    "RankingSession",
    "SessionConfig",
    "SessionManager",
    "StabilityMonitor",
    "VoteBuffer",
]
