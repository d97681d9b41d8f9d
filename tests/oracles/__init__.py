"""Differential oracles: the slow, per-object twins of production code.

Each oracle is an independent, slower implementation of a production
job — mostly the one a fast path replaced — kept so the differential
suites and the benches can check the fast path against
it.  Nothing in ``repro`` imports this package and no config field
reaches it: a test selects an oracle by importing it.  pytest collects
nothing here (no ``test_`` modules).

* :mod:`.smoothing` — Step 2 over a
  :class:`~repro.graphs.preference_graph.PreferenceGraph`
  (:func:`smooth_preferences`), one 1-edge and one vote at a time;
* :mod:`.pipeline` — Steps 1-4 through that object graph
  (:func:`object_closure`, :func:`object_pipeline`);
* :mod:`.saps` — the two Python SAPS anneals: the incremental kernel
  the native one replaced (:func:`python_search_report`, which the
  native kernel must match bit for bit), and the one that copies the
  path and re-sums all ``n - 1`` edges per proposal
  (:func:`reference_search_report`), with its pure moves;
* :mod:`.held_karp` — the exact max-probability Hamiltonian path by
  bitmask DP (:func:`best_hamiltonian_path_dp`), the third exact Step-4
  search next to TAPS and branch-and-bound;
* :mod:`.rank_centrality` — Rank Centrality on the dense ``n x n``
  chain (:func:`dense_rank_centrality`), the twin of the CSR chain;
* :mod:`.closure` — Step 3's support-graph reachability by a
  depth-first search from every vertex (:func:`reachability_by_search`),
  the twin of :func:`repro.graphs.closure._reachability`;
* :mod:`.bdp` — BDP value-of-information scoring as literal loops
  (:func:`bdp_scores_reference`), the twin of the vectorized
  :class:`~repro.acquisition.BDPScorer`.

Benches outside ``tests/`` import it as ``tests.oracles`` with the
repo root on ``sys.path``.
"""

from .bdp import bdp_scores_reference
from .closure import reachability_by_search
from .held_karp import best_hamiltonian_path_dp
from .pipeline import ObjectClosure, object_closure, object_pipeline
from .rank_centrality import dense_rank_centrality
from .saps import python_search_report, reference_search_report
from .smoothing import SmoothingResult, smooth_preferences

__all__ = [
    "ObjectClosure",
    "SmoothingResult",
    "bdp_scores_reference",
    "best_hamiltonian_path_dp",
    "dense_rank_centrality",
    "object_closure",
    "object_pipeline",
    "python_search_report",
    "reachability_by_search",
    "reference_search_report",
    "smooth_preferences",
]
