"""Property-based tests for the inference layer (both truth engines,
smoothing, the adaptive propagation depth, Theorem 5.1's complete
closure and the SAPS moves)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PropagationConfig, SAPSConfig, SmoothingConfig
from repro.graphs import PreferenceGraph
from repro.inference.propagation import _adaptive_hops, propagate_matrix
from repro.inference.saps import saps_search_report
from repro.truth import discover_truth, discover_truth_em
from repro.types import Vote, VoteSet
from repro.workers import parallel_map

from tests.oracles.saps import (
    _random_swap,
    _reverse,
    _rotate,
    _slice_bounds,
    _two_indices,
)
from tests.oracles.smoothing import smooth_preferences


@st.composite
def vote_sets(draw):
    n = draw(st.integers(3, 6))
    n_workers = draw(st.integers(2, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    votes = []
    for worker in range(n_workers):
        for i, j in pairs:
            if draw(st.booleans()):
                votes.append(Vote(worker=worker, winner=i, loser=j))
            else:
                votes.append(Vote(worker=worker, winner=j, loser=i))
    return VoteSet.from_votes(n, votes)


class TestEmEngineProperties:
    @given(vote_sets())
    @settings(max_examples=20, deadline=None)
    def test_outputs_bounded(self, votes):
        result = discover_truth_em(votes)
        assert all(0.0 <= x <= 1.0 for x in result.preferences.values())
        assert all(0.0 < q <= 1.0 for q in result.worker_quality.values())

    @given(vote_sets())
    @settings(max_examples=15, deadline=None)
    def test_covers_same_pairs_as_crh(self, votes):
        em = discover_truth_em(votes)
        crh = discover_truth(votes)
        assert set(em.preferences) == set(crh.preferences)

    @given(vote_sets())
    @settings(max_examples=15, deadline=None)
    def test_deterministic(self, votes):
        assert discover_truth_em(votes).preferences == (
            discover_truth_em(votes).preferences
        )


class TestSmoothingProperties:
    @given(vote_sets())
    @settings(max_examples=20, deadline=None)
    def test_smoothed_invariants_hold_for_any_votes(self, votes):
        """For arbitrary vote sets, Step 1 + Step 2 always produce a
        graph whose compared pairs carry both directions summing to 1,
        with the majority direction preserved (>= 0.5)."""
        truth = discover_truth(votes)
        graph = PreferenceGraph.from_direct_preferences(
            votes.n_objects, truth.preferences
        )
        result = smooth_preferences(graph, votes, truth.worker_quality,
                                    SmoothingConfig())
        result.graph.validate(smoothed=True)
        for u, v in graph.one_edges():
            assert result.graph.weight(u, v) >= 0.5


class TestSAPSMoveProperties:
    """The index/move contract of the SAPS anneal and its oracle."""

    @given(st.integers(2, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_two_indices_contract(self, n, seed):
        """For any n >= 2 (including n=2): 0 <= first < last <= n and
        the slice spans at least two elements."""
        generator = np.random.default_rng(seed)
        for _ in range(10):
            first, last = _two_indices(n, generator)
            assert 0 <= first < last <= n
            assert last - first >= 2

    @given(st.integers(2, 200), st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_slice_bounds_match_two_indices(self, n, seed):
        """The Python kernel's block decode (which the native kernel
        repeats) gives the full-re-sum oracle's scalar bounds from the
        same draws — the reason all three accept the same moves."""
        draws = np.random.default_rng(seed).random((16, 2))
        first, last = _slice_bounds(draws[:, 0], draws[:, 1], n)
        replay = iter(draws.ravel().tolist())

        class _Replay:
            def random(self):
                return next(replay)

        expected = [_two_indices(n, _Replay()) for _ in range(16)]
        assert list(zip(first.tolist(), last.tolist())) == expected

    @given(st.integers(2, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_moves_return_permutations(self, n, seed):
        generator = np.random.default_rng(seed)
        path = generator.permutation(n)
        for move in (_rotate, _reverse, _random_swap):
            candidate = move(path, generator)
            assert sorted(candidate.tolist()) == list(range(n))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_moves_on_two_elements(self, seed):
        """n=2 was the boundary the old _rotate guard pretended to
        handle; all moves must stay well-defined there."""
        generator = np.random.default_rng(seed)
        path = np.array([1, 0])
        for move in (_rotate, _reverse, _random_swap):
            candidate = move(path, generator)
            assert sorted(candidate.tolist()) == [0, 1]


class TestAdaptiveHops:
    @given(st.integers(2, 2000), st.integers(1, 10**6))
    def test_always_in_bounds(self, n, edges):
        hops = _adaptive_hops(n, edges)
        assert 2 <= hops <= 20
        assert hops <= max(n - 1, 2)

    def test_sparser_means_deeper(self):
        # n=100: degree 4 vs degree 40.
        sparse = _adaptive_hops(100, 400)
        dense = _adaptive_hops(100, 4000)
        assert sparse > dense

    @pytest.mark.parametrize(
        "n,directed_edges,expected",
        [
            (100, 990, 16),   # degree ~9.9 -> ceil(15.15) = 16
            (100, 4000, 8),   # dense -> floor at 8
            (1000, 99900, 16),
            (3, 6, 2),        # tiny graph capped at n-1
        ],
    )
    def test_known_values(self, n, directed_edges, expected):
        assert _adaptive_hops(n, directed_edges) == expected


# Module-level so the process backend can pickle them by reference.
def _negate(x):
    return -x


def _negate_or_fail(x):
    if x % 5 == 0 and x != 0:
        raise ValueError(f"multiple of five: {x}")
    return -x


_ALL_BACKENDS = ("serial", "thread", "process")


class TestParallelMapProperties:
    """The backend contract :mod:`repro.inference.saps` relies on:
    input-order results and identical earliest-index exception
    propagation, on every backend, for any input."""

    @given(st.lists(st.integers(-50, 50), max_size=12), st.integers(1, 4))
    @settings(max_examples=12, deadline=None)
    def test_order_preserved_on_every_backend(self, items, width):
        expected = [-x for x in items]
        for backend in _ALL_BACKENDS:
            assert parallel_map(_negate, items, max_workers=width,
                                backend=backend) == expected

    @given(st.lists(st.integers(1, 30), min_size=1, max_size=8),
           st.integers(1, 3))
    @settings(max_examples=10, deadline=None)
    def test_exceptions_propagate_identically(self, items, width):
        def outcome(backend):
            try:
                result = parallel_map(_negate_or_fail, items,
                                      max_workers=width, backend=backend)
            except ValueError as error:
                return ("raised", str(error))
            return ("ok", result)

        oracle = outcome("serial")
        assert outcome("thread") == oracle
        assert outcome("process") == oracle

    @pytest.mark.parametrize("backend", _ALL_BACKENDS)
    def test_empty_and_single_item(self, backend):
        assert parallel_map(_negate, [], max_workers=3,
                            backend=backend) == []
        assert parallel_map(_negate, [4], max_workers=3,
                            backend=backend) == [-4]


@st.composite
def step2_matrices(draw):
    """Non-negative weight matrices with zero diagonal (no self-loops,
    like every Step-2 output), n in 2..25: sparse, with isolated
    vertices and disconnected blocks drawn in."""
    n = draw(st.integers(2, 25))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    matrix = rng.random((n, n))
    matrix[rng.random((n, n)) < draw(st.floats(0.0, 1.0))] = 0.0
    blocks = rng.integers(0, draw(st.integers(1, 4)), size=n)
    matrix[blocks[:, None] != blocks[None, :]] = 0.0
    isolated = rng.random(n) < draw(st.floats(0.0, 0.5))
    matrix[isolated, :] = 0.0
    matrix[:, isolated] = 0.0
    np.fill_diagonal(matrix, 0.0)
    return matrix


class TestTheorem51Closure:
    """Theorem 5.1: Step 3 turns any Step-2 graph into a complete
    closure, which is why SAPS may refuse incomplete input."""

    @given(step2_matrices(), st.floats(0.0, 1.0),
           st.sampled_from(["walks", "exact"]))
    @settings(max_examples=80, deadline=None)
    def test_closure_is_complete_and_pair_normalised(self, matrix, alpha,
                                                     method):
        n = matrix.shape[0]
        if method == "exact" and n > 9:
            method = "walks"
        closure = propagate_matrix(
            matrix, PropagationConfig(alpha=alpha, method=method)
        )
        off = ~np.eye(n, dtype=bool)
        assert (np.diagonal(closure) == 0.0).all()
        assert (closure[off] >= 1e-9).all()
        assert (closure[off] <= 1.0 - 1e-9).all()
        np.testing.assert_allclose((closure + closure.T)[off], 1.0,
                                   rtol=0.0, atol=1e-12)
        report = saps_search_report(
            closure, SAPSConfig(iterations=50, restarts=1), rng=0
        )
        assert sorted(report.ranking.order) == list(range(n))
