"""Unit tests for the Sec. III preference-graph oracle."""

import pytest

from repro.exceptions import GraphError
from repro.graphs import TaskGraph
from repro.inference.propagation import _normalise_matrix
from tests.oracles import PreferenceGraph


@pytest.fixture
def mixed_graph():
    """2 unanimous pairs, 1 contested pair over 4 objects."""
    return PreferenceGraph.from_direct_preferences(
        4, {(0, 1): 1.0, (1, 2): 0.75, (2, 3): 0.0}
    )


class TestFromDirectPreferences:
    def test_unanimous_creates_single_direction(self, mixed_graph):
        assert mixed_graph.has_edge(0, 1)
        assert not mixed_graph.has_edge(1, 0)
        assert mixed_graph.weight(0, 1) == 1.0

    def test_zero_preference_creates_reverse_only(self, mixed_graph):
        assert mixed_graph.has_edge(3, 2)
        assert not mixed_graph.has_edge(2, 3)

    def test_contested_creates_both_directions(self, mixed_graph):
        assert mixed_graph.weight(1, 2) == pytest.approx(0.75)
        assert mixed_graph.weight(2, 1) == pytest.approx(0.25)

    def test_rejects_non_canonical_key(self):
        with pytest.raises(GraphError):
            PreferenceGraph.from_direct_preferences(3, {(2, 1): 0.5})

    def test_rejects_out_of_range_preference(self):
        with pytest.raises(GraphError):
            PreferenceGraph.from_direct_preferences(3, {(0, 1): 1.5})


class TestOneEdges:
    def test_one_edges_found(self, mixed_graph):
        assert sorted(mixed_graph.one_edges()) == [(0, 1), (3, 2)]

    def test_no_one_edges_in_contested_graph(self):
        graph = PreferenceGraph.from_direct_preferences(2, {(0, 1): 0.6})
        assert graph.one_edges() == []


class TestStructureChecks:
    def test_compared_pairs(self, mixed_graph):
        assert mixed_graph.compared_pairs() == [(0, 1), (1, 2), (2, 3)]

    def test_is_instance_of(self, mixed_graph):
        task_graph = TaskGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert mixed_graph.is_instance_of(task_graph)

    def test_not_instance_when_edge_missing(self, mixed_graph):
        task_graph = TaskGraph(4, [(0, 1), (1, 2)])
        assert not mixed_graph.is_instance_of(task_graph)

    def test_not_instance_when_sizes_differ(self, mixed_graph):
        assert not mixed_graph.is_instance_of(TaskGraph(5, [(0, 1)]))

    def test_validate_accepts_valid(self, mixed_graph):
        mixed_graph.validate()

    def test_validate_smoothed_rejects_missing_direction(self, mixed_graph):
        with pytest.raises(GraphError):
            mixed_graph.validate(smoothed=True)


class TestNormalisation:
    def test_normalized_pairs_sum_to_one(self):
        """Step 3's pair normalisation ``w_ij / (w_ij + w_ji)``."""
        graph = PreferenceGraph(3)
        graph.add_edge(0, 1, 0.4)
        graph.add_edge(1, 0, 0.4)
        graph.add_edge(1, 2, 0.9)
        normalised = PreferenceGraph.from_matrix(
            _normalise_matrix(graph.weight_matrix()))
        assert normalised.weight(0, 1) == pytest.approx(0.5)
        assert normalised.weight(1, 2) == pytest.approx(1.0)
        normalised.validate(smoothed=True)


class TestLogMatrix:
    def test_copy_preserves_type(self, mixed_graph):
        clone = mixed_graph.copy()
        assert isinstance(clone, PreferenceGraph)
        assert sorted(clone.edges()) == sorted(mixed_graph.edges())
