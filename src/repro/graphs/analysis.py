"""Analytical results from Sections III-IV: Eq. 1, Eq. 2 and Theorem 4.4.

These functions let the task-assignment layer *reason* about a candidate
task graph before any crowdsourcing happens: how many preference-graph
instances it admits, how likely each vertex is to end up as an in-/out-node
(the fairness criterion), and a lower bound on the probability that the
preference closure stays Hamiltonian-path-friendly.
"""

from __future__ import annotations

from typing import List

from ..exceptions import GraphError
from .task_graph import TaskGraph


def count_preference_instances(task_graph: TaskGraph) -> int:
    """Eq. 1: the number ``N = 3^l`` of preference-graph instances.

    Each task edge independently takes one of three permutations in
    ``G_P`` (forward, backward, or both directions under conflicting
    votes).
    """
    return 3 ** task_graph.n_edges


def prob_in_or_out_node(degree: int) -> float:
    """Eq. 2: ``Prob(v^IO) = 2 / 3^d`` for a vertex of degree ``d``.

    The probability (over uniformly random preference-graph instances)
    that a vertex with ``d`` incident task edges becomes an in-node or an
    out-node, i.e. is pinned to the last or first ranking position.
    """
    if degree < 0:
        raise GraphError(f"degree must be non-negative, got {degree}")
    if degree == 0:
        # An isolated vertex is trivially both; the paper never produces
        # these (Algorithm 1 seeds a Hamiltonian path), but the formula's
        # d=0 limit is 2 which is not a probability, so cap it.
        return 1.0
    return 2.0 / (3.0**degree)


def in_out_probabilities(task_graph: TaskGraph) -> List[float]:
    """Eq. 2 evaluated for every vertex of a task graph."""
    return [prob_in_or_out_node(d) for d in task_graph.degrees()]


def fairness_spread(task_graph: TaskGraph) -> float:
    """Max-min spread of Eq. 2 probabilities (0 for a perfectly fair plan).

    A scalar unfairness measure for the ablation benches: star graphs
    score high, regular graphs score 0.
    """
    probs = in_out_probabilities(task_graph)
    return max(probs) - min(probs)


def hp_likelihood_lower_bound(
    n_vertices: int, d_min: int, d_max: int
) -> float:
    """Theorem 4.4's lower bound ``Pr_l`` on HP-compatibility.

    ``Pr_l = (1 - 2/3^d_min)^n * [1 + 2n/(3^d_max - 2)
    + n(n-1) / (2 (3^d_max - 2)^2)]``
    is a lower bound on the probability that the transitive closure of a
    random preference instance contains at most one in-node and at most
    one out-node (a necessary condition for a Hamiltonian path).  The
    bound is increasing in ``d_min`` and decreasing in ``d_max``, which is
    why Algorithm 1 targets a regular degree ``2*l/n``.

    Note the bound can exceed 1 for large degrees (it is a bound-shaped
    score, not a calibrated probability); callers that need a probability
    should clamp.
    """
    if n_vertices < 2:
        raise GraphError(f"need at least 2 vertices, got {n_vertices}")
    if not 1 <= d_min <= d_max:
        raise GraphError(
            f"need 1 <= d_min <= d_max, got d_min={d_min}, d_max={d_max}"
        )
    base = (1.0 - 2.0 / (3.0**d_min)) ** n_vertices
    denom = 3.0**d_max - 2.0
    bracket = (
        1.0
        + 2.0 * n_vertices / denom
        + n_vertices * (n_vertices - 1) / (2.0 * denom**2)
    )
    return base * bracket


def hp_likelihood_of(task_graph: TaskGraph) -> float:
    """Theorem 4.4 bound evaluated on a concrete task graph."""
    d_min, d_max = task_graph.degree_bounds()
    return hp_likelihood_lower_bound(task_graph.n_vertices, d_min, d_max)
