"""Task-graph diagnostics: degree buckets (the fairness picture of
Theorem 4.1) and diameter, measured as the walk depth Step 3 needs
before every pair of objects has evidence."""

from collections import Counter

import numpy as np

from repro.graphs import TaskGraph
from repro.graphs.closure import propagate_walks
from repro.graphs.generators import near_regular_task_graph, star_task_graph
from repro.inference.propagation import _adaptive_hops


def degree_histogram(graph):
    return Counter(graph.degrees())


def coverage_depth(graph):
    """Fewest hops after which :func:`propagate_walks` (plus the direct
    edges) covers every pair: the plan's diameter.  ``None`` when some
    pair is never covered."""
    n = graph.n_vertices
    adjacency = np.zeros((n, n))
    for i, j in graph.edges():
        adjacency[i, j] = adjacency[j, i] = 1.0
    off_diagonal = ~np.eye(n, dtype=bool)
    if (adjacency[off_diagonal] > 0.0).all():
        return 1
    for hops in range(2, n):
        evidence = adjacency + propagate_walks(adjacency, hops)
        if (evidence[off_diagonal] > 0.0).all():
            return hops
    return None


class TestDegreeHistogram:
    def test_regular_graph_single_bucket(self):
        graph = TaskGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        assert degree_histogram(graph) == {2: 4}

    def test_near_regular_two_buckets(self):
        graph = near_regular_task_graph(7, 12, rng=1)
        histogram = degree_histogram(graph)
        assert len(histogram) <= 2
        assert sum(histogram.values()) == 7

    def test_star_buckets(self):
        graph = star_task_graph(6)
        assert degree_histogram(graph) == {5: 1, 1: 5}


class TestDiameter:
    def test_path_graph(self):
        graph = TaskGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert coverage_depth(graph) == 4

    def test_complete_graph(self):
        assert coverage_depth(TaskGraph.complete(6)) == 1

    def test_star(self):
        assert coverage_depth(star_task_graph(8)) == 2

    def test_cycle(self):
        graph = TaskGraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5),
                              (0, 5)])
        assert coverage_depth(graph) == 3

    def test_disconnected_rejected(self):
        """No walk depth covers a disconnected plan."""
        graph = TaskGraph(4, [(0, 1), (2, 3)])
        assert coverage_depth(graph) is None

    def test_generated_plans_have_small_diameter(self):
        """Near-regular random plans at moderate density are
        small-world: the adaptive propagation depth comfortably covers
        the true diameter."""
        graph = near_regular_task_graph(60, 270, rng=3)  # degree 9
        depth = coverage_depth(graph)
        assert depth <= 5
        assert depth <= _adaptive_hops(60, 2 * 270)
