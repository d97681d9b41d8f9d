"""Unit tests for repro.graphs.task_graph."""

import pytest

from repro.exceptions import GraphError, VertexNotFoundError
from repro.graphs import TaskGraph


@pytest.fixture
def path4():
    return TaskGraph(4, [(0, 1), (1, 2), (2, 3)])


class TestConstruction:
    def test_needs_two_vertices(self):
        with pytest.raises(GraphError):
            TaskGraph(1)

    def test_initial_edges(self, path4):
        assert path4.n_edges == 3
        assert path4.has_edge(1, 0)

    def test_duplicate_edge_rejected(self):
        graph = TaskGraph(3, [(0, 1)])
        with pytest.raises(GraphError):
            graph.add_edge(1, 0)

    def test_self_loop_rejected(self):
        with pytest.raises(Exception):
            TaskGraph(3, [(1, 1)])


class TestAccessors:
    def test_edges_sorted_canonical(self):
        graph = TaskGraph(3, [(2, 1), (1, 0)])
        assert list(graph.edges()) == [(0, 1), (1, 2)]

    def test_degrees(self, path4):
        assert path4.degrees() == [1, 2, 2, 1]
        assert path4.degree_bounds() == (1, 2)

    def test_neighbors(self, path4):
        assert sorted(path4.neighbors(1)) == [0, 2]

    def test_unknown_vertex(self, path4):
        with pytest.raises(VertexNotFoundError):
            path4.degree(9)

    def test_contains_protocol(self, path4):
        assert (0, 1) in path4
        assert (0, 3) not in path4

    def test_remove_edge(self, path4):
        path4.remove_edge(1, 2)
        assert not path4.has_edge(1, 2)
        assert path4.n_edges == 2

    def test_remove_missing_edge_raises(self, path4):
        with pytest.raises(GraphError):
            path4.remove_edge(0, 3)


class TestRegularity:
    def test_path_is_near_regular_not_regular(self, path4):
        assert not path4.is_regular()
        assert path4.is_near_regular()

    def test_cycle_is_regular(self):
        graph = TaskGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert graph.is_regular()

    def test_star_is_not_near_regular(self):
        graph = TaskGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert not graph.is_near_regular()


class TestConnectivity:
    def test_path_connected(self, path4):
        assert path4.is_connected()

    def test_disconnected(self):
        graph = TaskGraph(4, [(0, 1), (2, 3)])
        assert not graph.is_connected()

    def test_contains_path(self, path4):
        assert path4.contains_path([0, 1, 2, 3])
        assert not path4.contains_path([0, 2, 1, 3])


class TestDerived:
    def test_selection_ratio(self, path4):
        assert path4.selection_ratio() == pytest.approx(3 / 6)

    def test_complete_graph(self):
        graph = TaskGraph.complete(5)
        assert graph.n_edges == 10
        assert graph.is_regular()
        assert graph.selection_ratio() == 1.0
