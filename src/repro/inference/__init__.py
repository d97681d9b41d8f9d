"""Result inference (Sec. V): Steps 1-4 over collected votes.

* Step 1 lives in :mod:`repro.truth` (truth discovery);
* :mod:`~repro.inference.smoothing` — Step 2: 1-edge smoothing;
* :mod:`~repro.inference.propagation` — Step 3: indirect preferences by
  transitivity, alpha-blend and pair normalisation;
* :mod:`~repro.inference.taps` — Step 4 exact: threshold-based path
  search (plus a branch-and-bound exact search for moderate ``n``);
* :mod:`~repro.inference.saps` — Step 4 heuristic: simulated-annealing
  path search (Algorithms 2-3), whose anneal runs in the C kernel that
  :mod:`~repro.inference.native` builds, caches and loads;
* :mod:`~repro.inference.incidence` — shared sparse incidence assembly
  over the comparison graph (memoized per
  :class:`~repro.types.VoteArrays`);
* :mod:`~repro.inference.engines` — sparse large-``n`` Step 1-3
  engines (HodgeRank / graph least squares) behind
  ``PipelineConfig.engine``;
* :mod:`~repro.inference.pipeline` — the end-to-end inference pipeline.
"""

from .._lazy import lazy_exports
from .smoothing import (
    MatrixSmoothingResult,
    direct_preference_matrix,
    smooth_matrix,
)
from .propagation import propagate_matrix
from .taps import taps_search, branch_and_bound_search
from .saps import saps_search
from .local_search import polish_ranking
from .pipeline import RankingPipeline, infer_ranking

# The sparse engines (and scipy.sparse behind them) load on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".engines": ("SPARSE_ENGINES", "EngineReport", "graph_lsq_rank",
                 "hodge_rank", "solve_sparse_engine"),
    ".incidence": ("SparseIncidence", "build_incidence",
                   "quality_edge_weights"),
})

__all__ = [
    "SPARSE_ENGINES",
    "EngineReport",
    "SparseIncidence",
    "build_incidence",
    "quality_edge_weights",
    "solve_sparse_engine",
    "hodge_rank",
    "graph_lsq_rank",
    "MatrixSmoothingResult",
    "direct_preference_matrix",
    "smooth_matrix",
    "propagate_matrix",
    "taps_search",
    "branch_and_bound_search",
    "saps_search",
    "polish_ranking",
    "RankingPipeline",
    "infer_ranking",
]
