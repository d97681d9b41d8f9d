"""Graph substrate: task graphs, preference graphs, closure, HP utilities.

This subpackage implements Section III's graph model from scratch:

* :class:`~repro.graphs.digraph.WeightedDigraph` — the generic weighted
  directed graph all higher-level graphs build on;
* :class:`~repro.graphs.task_graph.TaskGraph` — the unweighted undirected
  graph of selected comparison pairs;
* :class:`~repro.graphs.preference_graph.PreferenceGraph` — the directed
  weighted graph of aggregated worker preferences;
* :mod:`~repro.graphs.analysis` — Eq. 1/2 and the Theorem 4.4 bound;
* :mod:`~repro.graphs.closure` — preference propagation kernels over
  the dense weight matrix (the only part Steps 1-4 load);
* :mod:`~repro.graphs.hamiltonian` — Hamiltonian-path existence;
* :mod:`~repro.graphs.generators` — task-graph generators (the paper's
  Algorithm-1 shape plus unfair baselines for ablations).
"""

from .._lazy import lazy_exports

# Steps 1-4 work on dense matrices and import only ``closure``; the
# object model loads on first use.
__getattr__, __dir__ = lazy_exports(__name__, {
    ".digraph": ("WeightedDigraph",),
    ".task_graph": ("TaskGraph",),
    ".preference_graph": ("PreferenceGraph",),
    ".analysis": ("count_preference_instances", "prob_in_or_out_node",
                  "hp_likelihood_lower_bound"),
    ".closure": ("propagate_walks", "propagate_exact_paths"),
    ".hamiltonian": ("has_hamiltonian_path",),
    ".generators": ("random_hamiltonian_path", "near_regular_task_graph",
                    "star_task_graph", "erdos_renyi_task_graph"),
})

__all__ = [
    "WeightedDigraph",
    "TaskGraph",
    "PreferenceGraph",
    "count_preference_instances",
    "prob_in_or_out_node",
    "hp_likelihood_lower_bound",
    "propagate_walks",
    "propagate_exact_paths",
    "has_hamiltonian_path",
    "random_hamiltonian_path",
    "near_regular_task_graph",
    "star_task_graph",
    "erdos_renyi_task_graph",
]
