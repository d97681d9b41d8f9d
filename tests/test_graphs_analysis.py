"""Unit tests for repro.graphs.analysis (Eq. 1, Eq. 2, Theorem 4.4)."""

import pytest

from repro.exceptions import AssignmentError, GraphError
from repro.graphs import TaskGraph
from repro.graphs.analysis import (
    count_preference_instances,
    fairness_spread,
    hp_likelihood_lower_bound,
    hp_likelihood_of,
    in_out_probabilities,
    prob_in_or_out_node,
)
from repro.graphs.generators import near_regular_task_graph


class TestEq1:
    def test_instances_are_three_to_the_edges(self):
        graph = TaskGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert count_preference_instances(graph) == 3**4

    def test_paper_example(self):
        """Figure 1(a): 4 edges -> 81 instances."""
        graph = TaskGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert count_preference_instances(graph) == 81


class TestEq2:
    def test_paper_example_4_1(self):
        """Figure 2: degree-2 vertex -> 2/9; degree-1 vertex -> 2/3."""
        assert prob_in_or_out_node(2) == pytest.approx(2 / 9)
        assert prob_in_or_out_node(1) == pytest.approx(2 / 3)

    def test_isolated_vertex_capped(self):
        assert prob_in_or_out_node(0) == 1.0

    def test_negative_degree_rejected(self):
        with pytest.raises(GraphError):
            prob_in_or_out_node(-1)

    def test_per_vertex_probabilities(self):
        graph = TaskGraph(3, [(0, 1), (0, 2)])
        probs = in_out_probabilities(graph)
        assert probs[0] == pytest.approx(2 / 9)
        assert probs[1] == probs[2] == pytest.approx(2 / 3)


class TestFairness:
    """Theorem 4.1: a plan is fair iff it is regular (Eq. 2 equalises
    every vertex's in-/out-node probability); near-regular is the
    relaxation when ``n`` does not divide ``2l``."""

    def test_triangle_is_fair(self):
        graph = TaskGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert graph.is_regular()
        assert fairness_spread(graph) == 0.0

    def test_path_is_fair_only_relaxed(self):
        graph = TaskGraph(3, [(0, 1), (1, 2)])
        assert not graph.is_regular()
        assert graph.is_near_regular()
        assert fairness_spread(graph) > 0.0

    def test_star_spread_positive(self):
        graph = TaskGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert fairness_spread(graph) > 0.5


class TestTheorem44:
    def test_bound_increases_with_dmin(self):
        low = hp_likelihood_lower_bound(10, 1, 3)
        high = hp_likelihood_lower_bound(10, 3, 3)
        assert high > low

    def test_bound_decreases_with_dmax(self):
        tight = hp_likelihood_lower_bound(10, 3, 3)
        loose = hp_likelihood_lower_bound(10, 3, 6)
        assert tight > loose

    def test_regular_beats_irregular_at_same_budget(self):
        """The core design argument: d_min = d_max = 2l/n maximises Pr_l."""
        regular = hp_likelihood_lower_bound(12, 4, 4)
        irregular = hp_likelihood_lower_bound(12, 2, 6)
        assert regular > irregular

    def test_invalid_inputs(self):
        with pytest.raises(GraphError):
            hp_likelihood_lower_bound(1, 1, 1)
        with pytest.raises(GraphError):
            hp_likelihood_lower_bound(5, 0, 2)
        with pytest.raises(GraphError):
            hp_likelihood_lower_bound(5, 3, 2)

    def test_evaluated_on_graph(self):
        graph = TaskGraph(3, [(0, 1), (1, 2), (0, 2)])
        assert hp_likelihood_of(graph) == pytest.approx(
            hp_likelihood_lower_bound(3, 2, 2)
        )


class TestIdealDegree:
    """Eq. 3 through Algorithm 1's generator: the plan realises the
    common degree ``2l/n`` for every budget ``n - 1 <= l <= C(n, 2)``."""

    def test_eq3(self):
        graph = near_regular_task_graph(10, 25, rng=0)
        assert graph.degree_bounds() == (5, 5)

    def test_validation(self):
        with pytest.raises(AssignmentError):
            near_regular_task_graph(1, 5, rng=0)
        with pytest.raises(AssignmentError):
            near_regular_task_graph(5, 0, rng=0)

    def test_feasibility(self):
        assert near_regular_task_graph(10, 9, rng=0).n_edges == 9
        assert near_regular_task_graph(10, 45, rng=0).n_edges == 45
        with pytest.raises(AssignmentError):
            near_regular_task_graph(10, 8, rng=0)
        with pytest.raises(AssignmentError):
            near_regular_task_graph(10, 46, rng=0)
