"""Graph substrate: task graphs, Sec. III analysis, closure kernels.

This subpackage implements the parts of Section III's graph model the
library runs:

* :class:`~repro.graphs.task_graph.TaskGraph` — the unweighted undirected
  graph of selected comparison pairs;
* :mod:`~repro.graphs.analysis` — Eq. 1/2 and the Theorem 4.4 bound;
* :mod:`~repro.graphs.closure` — preference propagation kernels over
  the dense weight matrix (the only part Steps 1-4 load);
* :mod:`~repro.graphs.generators` — task-graph generators (the paper's
  Algorithm-1 shape plus unfair baselines for ablations).

Steps 1-4 work on dense matrices, so the weighted preference graph of
Sec. III and its Hamiltonian-path check live on as test oracles
(``tests/oracles``), not here.
"""

from .._lazy import lazy_exports

# Steps 1-4 import only ``closure``; the rest loads on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".task_graph": ("TaskGraph",),
    ".analysis": ("count_preference_instances", "prob_in_or_out_node",
                  "hp_likelihood_lower_bound"),
    ".closure": ("propagate_walks", "propagate_exact_paths"),
    ".generators": ("random_hamiltonian_path", "near_regular_task_graph",
                    "star_task_graph", "erdos_renyi_task_graph"),
})

__all__ = [
    "TaskGraph",
    "count_preference_instances",
    "prob_in_or_out_node",
    "hp_likelihood_lower_bound",
    "propagate_walks",
    "propagate_exact_paths",
    "random_hamiltonian_path",
    "near_regular_task_graph",
    "star_task_graph",
    "erdos_renyi_task_graph",
]
