"""Property-based tests (hypothesis) on core invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.analysis import hp_likelihood_lower_bound, prob_in_or_out_node
from repro.graphs.closure import propagate_exact_paths, propagate_walks
from repro.graphs.generators import near_regular_task_graph
from repro.inference.propagation import propagate_matrix
from repro.metrics import (
    kendall_tau_distance,
    normalized_kendall_tau_distance,
    ranking_accuracy,
    spearman_footrule,
)
from repro.truth import discover_truth, majority_vote
from repro.types import Ranking, Vote, VoteSet

from tests.oracles import PreferenceGraph
from tests.oracles.saps import _random_swap, _reverse, _rotate


# -- strategies ----------------------------------------------------------------

@st.composite
def rankings(draw, min_size=2, max_size=12):
    n = draw(st.integers(min_size, max_size))
    order = draw(st.permutations(list(range(n))))
    return Ranking(order)


@st.composite
def ranking_pairs(draw, min_size=2, max_size=12):
    n = draw(st.integers(min_size, max_size))
    a = draw(st.permutations(list(range(n))))
    b = draw(st.permutations(list(range(n))))
    return Ranking(a), Ranking(b)


@st.composite
def vote_sets(draw):
    n = draw(st.integers(3, 7))
    n_workers = draw(st.integers(1, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    votes = []
    for worker in range(n_workers):
        for i, j in pairs:
            if draw(st.booleans()):
                votes.append(Vote(worker=worker, winner=i, loser=j))
            else:
                votes.append(Vote(worker=worker, winner=j, loser=i))
    return VoteSet.from_votes(n, votes)


@st.composite
def smoothed_graphs(draw):
    """Complete-pair smoothed preference graphs over n objects."""
    n = draw(st.integers(3, 6))
    graph = PreferenceGraph(n)
    for i in range(n):
        for j in range(i + 1, n):
            p = draw(st.floats(0.05, 0.95))
            graph.add_edge(i, j, p)
            graph.add_edge(j, i, 1.0 - p)
    return graph


# -- metric properties ----------------------------------------------------------

class TestKendallProperties:
    @given(ranking_pairs())
    def test_symmetry(self, pair):
        a, b = pair
        assert kendall_tau_distance(a, b) == kendall_tau_distance(b, a)

    @given(rankings())
    def test_identity_distance_zero(self, ranking):
        assert kendall_tau_distance(ranking, ranking) == 0

    @given(rankings())
    def test_reverse_is_maximum(self, ranking):
        n = len(ranking)
        assert kendall_tau_distance(ranking, ranking.reversed()) == (
            n * (n - 1) // 2
        )

    @given(ranking_pairs())
    def test_normalised_in_unit_interval(self, pair):
        a, b = pair
        assert 0.0 <= normalized_kendall_tau_distance(a, b) <= 1.0

    @given(st.integers(2, 10), st.permutations(list(range(8))))
    def test_triangle_inequality_with_identity(self, n, perm):
        """d(a, b) <= d(a, c) + d(c, b) with c = identity."""
        a = Ranking(perm)
        b = a.reversed()
        c = Ranking(range(8))
        assert kendall_tau_distance(a, b) <= (
            kendall_tau_distance(a, c) + kendall_tau_distance(c, b)
        )

    @given(ranking_pairs())
    def test_diaconis_graham(self, pair):
        a, b = pair
        kendall = kendall_tau_distance(a, b)
        footrule = spearman_footrule(a, b)
        assert kendall <= footrule <= 2 * kendall

    @given(ranking_pairs())
    def test_accuracy_complements_distance(self, pair):
        a, b = pair
        assert ranking_accuracy(a, b) == pytest.approx(
            1.0 - normalized_kendall_tau_distance(a, b)
        )


# -- graph properties ---------------------------------------------------------

class TestGeneratorProperties:
    @given(st.integers(4, 25), st.data())
    @settings(max_examples=30, deadline=None)
    def test_near_regular_invariants(self, n, data):
        max_edges = n * (n - 1) // 2
        l = data.draw(st.integers(n - 1, max_edges))
        seed = data.draw(st.integers(0, 2**31))
        graph = near_regular_task_graph(n, l, rng=seed)
        assert graph.n_edges == l
        d_min, d_max = graph.degree_bounds()
        assert d_max - d_min <= 1
        assert graph.is_connected()
        assert sum(graph.degrees()) == 2 * l


class TestAnalysisProperties:
    @given(st.integers(1, 20))
    def test_io_probability_decreasing_in_degree(self, degree):
        assert prob_in_or_out_node(degree) > prob_in_or_out_node(degree + 1)

    @given(st.integers(2, 50), st.integers(1, 8), st.integers(0, 5))
    def test_hp_bound_monotone(self, n, d_min, extra):
        d_max = d_min + extra
        lower = hp_likelihood_lower_bound(n, d_min, d_max)
        tighter = hp_likelihood_lower_bound(n, d_min, d_max + 1)
        assert tighter <= lower + 1e-12


class TestClosureProperties:
    @given(smoothed_graphs())
    @settings(max_examples=25, deadline=None)
    def test_walks_dominate_exact(self, graph):
        """Walk sums include every simple path, so entrywise >= exact."""
        hops = graph.n_vertices - 1
        walks = propagate_walks(graph.weight_matrix(), max_hops=max(hops, 2))
        exact = propagate_exact_paths(graph.weight_matrix())
        assert np.all(walks >= exact - 1e-9)

    @given(smoothed_graphs())
    @settings(max_examples=25, deadline=None)
    def test_propagation_output_invariants(self, graph):
        matrix = propagate_matrix(graph.weight_matrix())
        n = graph.n_vertices
        off = ~np.eye(n, dtype=bool)
        assert np.all(matrix[off] > 0.0)
        assert np.all(matrix[off] < 1.0)
        assert np.allclose((matrix + matrix.T)[off], 1.0)
        assert np.all(np.diagonal(matrix) == 0.0)


# -- SAPS move properties -------------------------------------------------------

class TestMoveProperties:
    @given(st.permutations(list(range(10))), st.integers(0, 2**31))
    def test_moves_are_permutations(self, perm, seed):
        rng = np.random.default_rng(seed)
        path = np.array(perm)
        for move in (_rotate, _reverse, _random_swap):
            result = move(path, rng)
            assert sorted(result.tolist()) == list(range(10))


# -- truth-discovery properties ---------------------------------------------------

class TestTruthProperties:
    @given(vote_sets())
    @settings(max_examples=25, deadline=None)
    def test_outputs_bounded(self, votes):
        result = discover_truth(votes)
        assert all(0.0 <= x <= 1.0 for x in result.preferences.values())
        assert all(0.0 < q <= 1.0 for q in result.worker_quality.values())

    @given(vote_sets())
    @settings(max_examples=25, deadline=None)
    def test_unanimous_pairs_pinned(self, votes):
        """Any pair on which all votes agree must resolve to 0 or 1."""
        result = discover_truth(votes)
        shares = majority_vote(votes)
        for pair, share in shares.items():
            if share == 1.0:
                assert result.preferences[pair] == pytest.approx(1.0)
            elif share == 0.0:
                assert result.preferences[pair] == pytest.approx(0.0)

    @given(vote_sets())
    @settings(max_examples=15, deadline=None)
    def test_deterministic(self, votes):
        assert discover_truth(votes).preferences == (
            discover_truth(votes).preferences
        )


# -- ranking properties -----------------------------------------------------------

class TestRankingProperties:
    @given(rankings())
    def test_position_roundtrip(self, ranking):
        for idx, obj in enumerate(ranking):
            assert ranking.position(obj) == idx

    @given(rankings())
    def test_double_reverse_identity(self, ranking):
        assert ranking.reversed().reversed() == ranking

    @given(rankings())
    def test_pairs_count(self, ranking):
        n = len(ranking)
        assert sum(1 for _ in ranking.pairs()) == n * (n - 1) // 2

    @given(ranking_pairs())
    def test_prefers_antisymmetric(self, pair):
        a, _ = pair
        objects = list(a.order)
        i, j = objects[0], objects[-1]
        if i != j:
            assert a.prefers(i, j) != a.prefers(j, i)
