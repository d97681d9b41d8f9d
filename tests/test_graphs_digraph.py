"""Unit tests for the Sec. III weighted-digraph oracle."""

import numpy as np
import pytest

from repro.exceptions import GraphError, VertexNotFoundError
from tests.oracles import PreferenceGraph, WeightedDigraph
from tests.oracles.digraph import EdgeNotFoundError


@pytest.fixture
def triangle():
    graph = WeightedDigraph(3)
    graph.add_edge(0, 1, 0.9)
    graph.add_edge(1, 2, 0.8)
    graph.add_edge(2, 0, 0.7)
    return graph


class TestConstruction:
    def test_empty_graph(self):
        graph = WeightedDigraph(4)
        assert graph.n_vertices == 4
        assert graph.n_edges == 0

    def test_zero_vertices_rejected(self):
        with pytest.raises(GraphError):
            WeightedDigraph(0)


class TestEdges:
    def test_add_and_query(self, triangle):
        assert triangle.has_edge(0, 1)
        assert not triangle.has_edge(1, 0)
        assert triangle.weight(0, 1) == pytest.approx(0.9)

    def test_weight_or_default(self, triangle):
        assert triangle.weight_or(1, 0, default=0.25) == 0.25

    def test_missing_weight_raises(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.weight(1, 0)

    def test_self_loop_rejected(self):
        graph = WeightedDigraph(2)
        with pytest.raises(GraphError):
            graph.add_edge(1, 1, 0.5)

    def test_zero_weight_rejected(self):
        graph = WeightedDigraph(2)
        with pytest.raises(GraphError):
            graph.add_edge(0, 1, 0.0)

    def test_negative_weight_rejected(self):
        graph = WeightedDigraph(2)
        with pytest.raises(GraphError):
            graph.add_edge(0, 1, -0.5)

    def test_overwrite_keeps_edge_count(self):
        graph = WeightedDigraph(2)
        graph.add_edge(0, 1, 0.5)
        graph.add_edge(0, 1, 0.6)
        assert graph.n_edges == 1
        assert graph.weight(0, 1) == pytest.approx(0.6)

    def test_remove_edge(self, triangle):
        triangle.remove_edge(0, 1)
        assert not triangle.has_edge(0, 1)
        assert triangle.n_edges == 2

    def test_remove_missing_raises(self, triangle):
        with pytest.raises(EdgeNotFoundError):
            triangle.remove_edge(1, 0)

    def test_unknown_vertex_raises(self, triangle):
        with pytest.raises(VertexNotFoundError):
            triangle.has_edge(0, 9)

    def test_edges_iteration(self, triangle):
        assert sorted(triangle.edges()) == [
            (0, 1, 0.9),
            (1, 2, 0.8),
            (2, 0, 0.7),
        ]


class TestNeighbourhoods:
    def test_successors_predecessors(self, triangle):
        assert list(triangle.successors(0)) == [1]
        assert [u for u in triangle.vertices() if triangle.has_edge(u, 0)] \
            == [2]

    def test_out_in_edges(self, triangle):
        assert list(triangle.out_edges(1)) == [(2, 0.8)]
        assert [(u, w) for u, v, w in triangle.edges() if v == 1] \
            == [(0, 0.9)]


class TestNodeClasses:
    def test_in_node_detection(self):
        graph = WeightedDigraph(3)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(1, 2, 1.0)
        assert graph.is_in_node(2)
        assert not graph.is_out_node(2)
        assert graph.in_nodes() == [2]

    def test_out_node_detection(self):
        graph = WeightedDigraph(3)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(0, 2, 1.0)
        assert graph.is_out_node(0)
        assert graph.out_nodes() == [0]

    def test_isolated_vertex_is_neither(self):
        graph = WeightedDigraph(2)
        assert not graph.is_in_node(0)
        assert not graph.is_out_node(0)


class TestMatrixView:
    def test_round_trip(self, triangle):
        matrix = triangle.weight_matrix()
        clone = PreferenceGraph.from_matrix(matrix)
        assert sorted(clone.edges()) == sorted(triangle.edges())

    def test_from_matrix_validation(self):
        with pytest.raises(GraphError):
            PreferenceGraph.from_matrix(np.ones((2, 3)))
        with pytest.raises(GraphError):
            PreferenceGraph.from_matrix(-np.ones((2, 2)))
        with pytest.raises(GraphError):
            PreferenceGraph.from_matrix(np.ones((2, 2)))  # diagonal

    def test_matrix_zero_means_no_edge(self, triangle):
        matrix = triangle.weight_matrix()
        assert matrix[1, 0] == 0.0


class TestStructure:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.remove_edge(0, 1)
        assert triangle.has_edge(0, 1)

    def test_reverse(self, triangle):
        rev = triangle.reverse()
        assert rev.has_edge(1, 0)
        assert rev.weight(1, 0) == pytest.approx(0.9)

    def test_complete_detection(self):
        graph = WeightedDigraph(3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    graph.add_edge(i, j, 0.5)
        assert graph.is_complete()

    def test_strongly_connected_cycle(self, triangle):
        assert triangle.is_strongly_connected()

    def test_not_strongly_connected_chain(self):
        graph = WeightedDigraph(3)
        graph.add_edge(0, 1, 1.0)
        graph.add_edge(1, 2, 1.0)
        assert not graph.is_strongly_connected()

    def test_single_vertex_strongly_connected(self):
        assert WeightedDigraph(1).is_strongly_connected()

    def test_empty_not_strongly_connected(self):
        assert not WeightedDigraph(2).is_strongly_connected()
