"""Walkthrough of the paper's running example (Figure 1) and Sec. II
arithmetic, as executable documentation."""

import pytest

from repro.budget import BudgetModel
from repro.graphs import TaskGraph, count_preference_instances
from repro.inference.propagation import propagate_matrix
from repro.config import PropagationConfig
from tests.oracles import PreferenceGraph, has_hamiltonian_path


class TestFigure1:
    """Figure 1: a 4-vertex, 4-edge task graph and one preference
    instance with an in-node."""

    @pytest.fixture
    def task_graph(self):
        # Fig. 1(a): each vertex has degree 2 (a 4-cycle).
        return TaskGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])

    def test_every_vertex_degree_two(self, task_graph):
        assert task_graph.degrees() == [2, 2, 2, 2]
        assert task_graph.is_regular()

    def test_eq1_gives_81_instances(self, task_graph):
        """Sec. III: "it has 3^4 = 81 possible instances"."""
        assert count_preference_instances(task_graph) == 81

    @pytest.fixture
    def preference_instance(self):
        """Fig. 1(b)-style instance where vertex 2 is an in-node:
        0 -> 1, 1 -> 2, 3 -> 2, 0 -> 3 (all unanimous)."""
        graph = PreferenceGraph(4)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(3, 2, 1.0)
        graph.add_edge(0, 3, 1.0)
        return graph

    def test_in_node_detected(self, preference_instance):
        """"In this graph, the vertex v2 is an in-node."""
        assert preference_instance.is_in_node(2)
        assert preference_instance.in_nodes() == [2]
        assert preference_instance.out_nodes() == [0]

    def test_instance_of_task_graph(self, task_graph, preference_instance):
        assert preference_instance.is_instance_of(task_graph)

    def test_smoothed_closure_has_hp(self, preference_instance):
        """Fig. 1(c)-(d): after smoothing + closure, an HP exists
        (Theorem 5.1)."""
        # Manual smoothing (the paper's Fig. 1(c)): soften each 1-edge.
        smoothed = PreferenceGraph(4)
        for u, v, _ in preference_instance.edges():
            smoothed.add_edge(u, v, 0.9)
            smoothed.add_edge(v, u, 0.1)
        closure = PreferenceGraph.from_matrix(propagate_matrix(
            smoothed.weight_matrix(),
            PropagationConfig(max_hops=3, method="exact"),
        ))
        assert closure.is_complete()
        assert has_hamiltonian_path(closure)

    def test_closure_ranks_in_node_last(self, preference_instance):
        """The in-node (v2) must be ranked last, the out-node (v0)
        first, in the best closure ranking."""
        from repro.inference.taps import branch_and_bound_search

        smoothed = PreferenceGraph(4)
        for u, v, _ in preference_instance.edges():
            smoothed.add_edge(u, v, 0.9)
            smoothed.add_edge(v, u, 0.1)
        closure = propagate_matrix(
            smoothed.weight_matrix(),
            PropagationConfig(max_hops=3, method="exact"),
        )
        ranking, _ = branch_and_bound_search(closure)
        assert ranking.order[0] == 0
        assert ranking.order[-1] == 2


class TestSectionIIArithmetic:
    def test_amt_study_budget(self):
        """Sec. VI-A3: $0.025 per comparison; 10 images at r = 0.5 with
        w = 100 workers -> 22 pairs, $55.00."""
        from repro.budget import plan_for_selection_ratio

        plan = plan_for_selection_ratio(10, 0.5, workers_per_task=100,
                                        reward=0.025)
        assert plan.n_comparisons == 22
        assert plan.spend == pytest.approx(22 * 100 * 0.025)

    def test_budget_formula_floor(self):
        """Sec. II: l = floor(B / (w r))."""
        model = BudgetModel(total=1.0, workers_per_task=3, reward=0.025)
        assert model.affordable_comparisons() == 13  # floor(13.33)
