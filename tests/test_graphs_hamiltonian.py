"""Unit tests for the Hamiltonian-path oracle, the Held-Karp oracle and the
path-scoring helpers Step 4 shares (``path_cost``, SAPS's initial
paths)."""

import itertools
import math

import numpy as np
import pytest

from repro.exceptions import GraphError, InferenceError
from repro.inference.delta import path_cost
from repro.inference.local_search import polish_ranking
from repro.inference.saps import _initial_path, degree_order
from repro.types import Ranking
from tests.oracles import (
    WeightedDigraph,
    best_hamiltonian_path_dp,
    has_hamiltonian_path,
)


def complete_graph(weights):
    n = weights.shape[0]
    graph = WeightedDigraph(n)
    for i in range(n):
        for j in range(n):
            if i != j and weights[i, j] > 0:
                graph.add_edge(i, j, weights[i, j])
    return graph


def log_preference(weights, path):
    """``log Pr[P]``: ``-inf`` when the path uses a missing edge."""
    with np.errstate(divide="ignore"):
        cost = np.where(weights > 0.0, -np.log(weights), np.inf)
    return -path_cost(cost, path)


@pytest.fixture
def sharp_weights():
    """Complete 4-vertex weights strongly favouring the order 0,1,2,3."""
    n = 4
    weights = np.full((n, n), 0.1)
    for i in range(n):
        for j in range(n):
            if i < j:
                weights[i, j] = 0.9
    np.fill_diagonal(weights, 0.0)
    return weights


@pytest.fixture
def sharp_graph(sharp_weights):
    return complete_graph(sharp_weights)


class TestPathLogPreference:
    def test_product_in_log_space(self, sharp_weights):
        log_pref = log_preference(sharp_weights, [0, 1, 2, 3])
        assert log_pref == pytest.approx(3 * math.log(0.9))

    def test_missing_edge_gives_neg_inf(self):
        weights = np.zeros((3, 3))
        weights[0, 1] = 0.5
        assert log_preference(weights, [0, 1, 2]) == float("-inf")

    def test_ranking_wrapper_checks_size(self, sharp_weights):
        with pytest.raises(InferenceError):
            polish_ranking(sharp_weights, Ranking([0, 1]))

    def test_ranking_wrapper_value(self, sharp_weights):
        ranking, value = polish_ranking(sharp_weights, Ranking([0, 1, 2, 3]))
        assert ranking == Ranking([0, 1, 2, 3])
        assert value == pytest.approx(3 * math.log(0.9))


class TestHasHamiltonianPath:
    def test_complete_graph_shortcut(self, sharp_graph):
        assert has_hamiltonian_path(sharp_graph)

    def test_theorem_4_3_two_in_nodes(self):
        """Two in-nodes -> no HP (Theorem 4.3)."""
        graph = WeightedDigraph(4)
        graph.add_edge(0, 2, 1.0)
        graph.add_edge(1, 2, 1.0)
        graph.add_edge(0, 3, 1.0)
        graph.add_edge(1, 3, 1.0)
        assert not has_hamiltonian_path(graph)

    def test_chain_has_hp(self):
        graph = WeightedDigraph(4)
        for i in range(3):
            graph.add_edge(i, i + 1, 0.5)
        assert has_hamiltonian_path(graph)

    def test_single_vertex(self):
        assert has_hamiltonian_path(WeightedDigraph(1))

    def test_dp_negative_case(self):
        """A 'Y' shape: one in-node fed by a path plus a dangling source.

        in/out-node counts alone don't decide it; the DP must."""
        graph = WeightedDigraph(4)
        graph.add_edge(0, 1, 0.5)
        graph.add_edge(1, 0, 0.5)
        graph.add_edge(2, 3, 0.5)
        graph.add_edge(3, 2, 0.5)
        assert not has_hamiltonian_path(graph)

    def test_size_guard(self):
        graph = WeightedDigraph(25)
        for i in range(24):
            graph.add_edge(i, i + 1, 0.5)
            graph.add_edge(i + 1, i, 0.5)
        with pytest.raises(GraphError):
            has_hamiltonian_path(graph)


class TestBestHamiltonianPathDP:
    def test_finds_sharp_optimum(self, sharp_weights):
        assert best_hamiltonian_path_dp(sharp_weights) == Ranking([0, 1, 2, 3])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        n = 5
        weights = rng.uniform(0.1, 0.9, size=(n, n))
        np.fill_diagonal(weights, 0.0)
        best = best_hamiltonian_path_dp(weights)
        brute_value = max(log_preference(weights, perm)
                          for perm in itertools.permutations(range(n)))
        assert log_preference(weights, best.order) == pytest.approx(
            brute_value
        )

    def test_no_hp_raises(self):
        weights = np.zeros((3, 3))
        weights[0, 1] = 0.5  # vertex 2 unreachable
        with pytest.raises(InferenceError):
            best_hamiltonian_path_dp(weights)

    def test_single_vertex(self):
        assert best_hamiltonian_path_dp(np.zeros((1, 1))) == Ranking([0])


class TestWeightDifferenceOrder:
    def test_winner_floats_to_front(self, sharp_weights):
        """SAPS's out-/in-weight difference initial path: the vertex
        that mostly wins floats to the front, whatever the start."""
        order = degree_order(sharp_weights)
        for start in range(4):
            path = _initial_path(order, start)
            rest = [v for v in [0, 1, 2, 3] if v != start]
            assert path.tolist() == [start] + rest
