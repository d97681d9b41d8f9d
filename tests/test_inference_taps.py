"""Unit tests for repro.inference.taps (TAPS + branch and bound)."""

import itertools
import math

import numpy as np
import pytest

from repro.config import TAPSConfig
from repro.exceptions import InferenceError
from repro.inference.taps import branch_and_bound_search, taps_search
from repro.types import Ranking
from tests.oracles import best_hamiltonian_path_dp


def random_closure(n, seed):
    """A random complete pair-normalised weight matrix."""
    rng = np.random.default_rng(seed)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            p = rng.uniform(0.05, 0.95)
            matrix[i, j] = p
            matrix[j, i] = 1.0 - p
    return matrix


def brute_force_best(matrix):
    n = matrix.shape[0]
    best_prob, best_paths = -1.0, []
    for perm in itertools.permutations(range(n)):
        prob = 1.0
        for u, v in zip(perm, perm[1:]):
            prob *= matrix[u, v]
        if prob > best_prob:
            best_prob, best_paths = prob, [perm]
        elif prob == best_prob:
            best_paths.append(perm)
    return best_paths, best_prob


class TestTAPS:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_brute_force(self, n, seed):
        matrix = random_closure(n, seed)
        result, probability = taps_search(matrix)
        brute_paths, brute_prob = brute_force_best(matrix)
        assert probability == pytest.approx(brute_prob)
        assert result[0].order in brute_paths

    def test_tie_paths_all_attain_max(self):
        """A symmetric 0.5 matrix ties every path; TAPS halts as soon as
        ``max >= theta`` (paper Step 2), so the output contains the tie
        paths *seen* so far — each must attain the exact maximum."""
        n = 3
        matrix = np.full((n, n), 0.5)
        np.fill_diagonal(matrix, 0.0)
        result, probability = taps_search(matrix)
        assert probability == pytest.approx(0.25)
        assert len(result) >= 1
        for ranking in result:
            prob = 1.0
            for u, v in zip(ranking.order, ranking.order[1:]):
                prob *= matrix[u, v]
            assert prob == pytest.approx(probability)

    def test_early_termination_possible(self):
        """A sharply dominant path should be confirmed quickly; we only
        assert correctness here (the speedup is a benchmark concern)."""
        n = 5
        matrix = np.full((n, n), 0.05)
        for i in range(n - 1):
            matrix[i, i + 1] = 0.95
        np.fill_diagonal(matrix, 0.0)
        result, _ = taps_search(matrix)
        assert result[0] == Ranking(range(n))

    def test_size_guard(self):
        matrix = random_closure(10, 0)
        with pytest.raises(InferenceError):
            taps_search(matrix, TAPSConfig(max_objects=9))

    def test_single_object(self):
        result, probability = taps_search(np.zeros((1, 1)))
        assert result[0] == Ranking([0])
        assert probability == 1.0

    def test_graph_input_accepted(self):
        from tests.oracles import PreferenceGraph

        graph = PreferenceGraph(3)
        for i in range(3):
            for j in range(3):
                if i != j:
                    graph.add_edge(i, j, 0.9 if i < j else 0.1)
        result, _ = taps_search(graph.weight_matrix())
        assert result[0] == Ranking([0, 1, 2])


class TestBranchAndBound:
    @pytest.mark.parametrize("n", [2, 4, 6, 7])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_brute_force(self, n, seed):
        matrix = random_closure(n, seed)
        ranking, log_prob = branch_and_bound_search(matrix)
        _, brute_prob = brute_force_best(matrix)
        assert math.exp(log_prob) == pytest.approx(brute_prob)

    def test_agrees_with_taps(self):
        matrix = random_closure(6, 3)
        taps_result, taps_prob = taps_search(matrix)
        bnb_ranking, bnb_log = branch_and_bound_search(matrix)
        assert math.exp(bnb_log) == pytest.approx(taps_prob)

    def test_handles_moderate_n(self):
        """Sharp instances stay fast well past TAPS territory; at n=12
        the Held-Karp DP oracle confirms the optimum exactly."""
        n = 20
        matrix = np.full((n, n), 0.1)
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i, j] = 0.9
        np.fill_diagonal(matrix, 0.0)
        ranking, _ = branch_and_bound_search(matrix)
        assert ranking == Ranking(range(n))

        n = 12
        rng = np.random.default_rng(12)
        matrix = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                p = rng.uniform(0.75, 0.95)
                matrix[i, j], matrix[j, i] = p, 1.0 - p
        ranking, log_prob = branch_and_bound_search(matrix)
        exact = best_hamiltonian_path_dp(matrix)
        assert ranking == exact
        assert log_prob == pytest.approx(
            sum(math.log(matrix[u, v])
                for u, v in zip(exact.order, exact.order[1:])))

    def test_size_guard(self):
        with pytest.raises(InferenceError):
            branch_and_bound_search(np.zeros((40, 40)), max_objects=30)

    def test_no_path_raises(self):
        matrix = np.zeros((3, 3))
        matrix[0, 1] = 0.5  # vertex 2 unreachable
        with pytest.raises(InferenceError):
            branch_and_bound_search(matrix)

    def test_single_object(self):
        ranking, log_prob = branch_and_bound_search(np.zeros((1, 1)))
        assert ranking == Ranking([0])
        assert log_prob == 0.0
