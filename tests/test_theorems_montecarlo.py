"""Monte-Carlo verification of the paper's analytical results.

Section III-IV's formulas make probabilistic statements over the
``3^l`` uniformly random preference-graph instances of a task graph.
These tests *sample* that instance space and check the formulas hold
empirically — catching both implementation bugs and transcription errors
in the analytical module.
"""

import numpy as np
import pytest

from repro.graphs import (
    TaskGraph,
    count_preference_instances,
    prob_in_or_out_node,
)
from repro.graphs.analysis import hp_likelihood_lower_bound
from tests.oracles import WeightedDigraph

SAMPLES = 4000


def random_instance(task_graph: TaskGraph, rng) -> WeightedDigraph:
    """Draw one of the 3^l preference instances uniformly (Sec. III)."""
    graph = WeightedDigraph(task_graph.n_vertices)
    for i, j in task_graph.edges():
        roll = rng.integers(3)
        if roll == 0:
            graph.add_edge(i, j, 1.0)
        elif roll == 1:
            graph.add_edge(j, i, 1.0)
        else:
            graph.add_edge(i, j, 0.5)
            graph.add_edge(j, i, 0.5)
    return graph


class TestEq2MonteCarlo:
    """Empirical ``Prob(v^IO)`` must match ``2 / 3^d``."""

    @pytest.mark.parametrize(
        "edges,vertex,degree",
        [
            ([(0, 1), (0, 2)], 0, 2),       # Figure 2(a) centre
            ([(0, 1), (0, 2)], 1, 1),       # Figure 2(a) leaf
            ([(0, 1), (1, 2), (0, 2)], 0, 2),  # Figure 2(b) triangle
        ],
    )
    def test_empirical_io_probability(self, edges, vertex, degree):
        task_graph = TaskGraph(3, edges)
        rng = np.random.default_rng(12)
        hits = 0
        for _ in range(SAMPLES):
            instance = random_instance(task_graph, rng)
            if instance.is_in_node(vertex) or instance.is_out_node(vertex):
                hits += 1
        expected = prob_in_or_out_node(degree)
        standard_error = np.sqrt(expected * (1 - expected) / SAMPLES)
        assert hits / SAMPLES == pytest.approx(expected,
                                               abs=4 * standard_error)


class TestTheorem43MonteCarlo:
    """Two in-nodes (or out-nodes) always kill the Hamiltonian path.

    Checked against the raw Held-Karp DP (``_held_karp_exists``), not
    :func:`has_hamiltonian_path`, which short-circuits on the very same
    condition and would make the test a tautology.
    """

    def test_no_instance_violates(self):
        from tests.oracles.hamiltonian import _held_karp_exists

        # A path task graph: its degree-1 endpoints become in/out-nodes
        # with probability 2/3 each, so the condition fires often.
        task_graph = TaskGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        rng = np.random.default_rng(13)
        checked = 0
        for _ in range(600):
            instance = random_instance(task_graph, rng)
            if len(instance.in_nodes()) > 1 or len(instance.out_nodes()) > 1:
                checked += 1
                assert not _held_karp_exists(instance)
        assert checked > 50  # the condition actually occurred


class TestTheorem44MonteCarlo:
    """``Pr_l`` lower-bounds P(at most one in-node and one out-node)."""

    @pytest.mark.parametrize(
        "n,l,seed",
        [(5, 8, 14), (6, 9, 15), (6, 12, 16)],
    )
    def test_bound_holds_empirically(self, n, l, seed):
        from repro.graphs.generators import near_regular_task_graph

        task_graph = near_regular_task_graph(n, l, rng=seed)
        d_min, d_max = task_graph.degree_bounds()
        bound = hp_likelihood_lower_bound(n, d_min, d_max)
        if bound > 1.0:
            pytest.skip("bound exceeds 1 (not informative at this degree)")
        rng = np.random.default_rng(seed)
        good = 0
        for _ in range(SAMPLES):
            instance = random_instance(task_graph, rng)
            if (len(instance.in_nodes()) <= 1
                    and len(instance.out_nodes()) <= 1):
                good += 1
        empirical = good / SAMPLES
        standard_error = np.sqrt(max(empirical * (1 - empirical), 1e-6)
                                 / SAMPLES)
        assert empirical >= bound - 4 * standard_error


class TestEq1Exhaustive:
    """For a tiny task graph, enumerate all 3^l instances exactly."""

    def test_exact_io_count_matches_eq2(self):
        import itertools

        task_graph = TaskGraph(3, [(0, 1), (0, 2)])
        edges = list(task_graph.edges())
        total = 0
        io_count = {0: 0, 1: 0, 2: 0}
        for assignment in itertools.product(range(3), repeat=len(edges)):
            graph = WeightedDigraph(3)
            for (i, j), roll in zip(edges, assignment):
                if roll == 0:
                    graph.add_edge(i, j, 1.0)
                elif roll == 1:
                    graph.add_edge(j, i, 1.0)
                else:
                    graph.add_edge(i, j, 0.5)
                    graph.add_edge(j, i, 0.5)
            total += 1
            for v in range(3):
                if graph.is_in_node(v) or graph.is_out_node(v):
                    io_count[v] += 1
        assert total == count_preference_instances(task_graph) == 9
        # Eq. 2 exactly: vertex 0 has degree 2 -> 2/9; leaves -> 2/3.
        assert io_count[0] / total == pytest.approx(2 / 9)
        assert io_count[1] / total == pytest.approx(2 / 3)
        assert io_count[2] / total == pytest.approx(2 / 3)
