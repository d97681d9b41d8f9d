"""Unit tests for repro.inference.saps (Algorithms 2-3)."""

import math

import numpy as np
import pytest

from repro.config import SAPSConfig
from repro.exceptions import InferenceError
from repro.inference.saps import (
    _initial_path,
    degree_order,
    saps_search,
    saps_search_report,
    tail_temperature,
)
from repro.inference.taps import branch_and_bound_search
from repro.types import Ranking

from tests.oracles.saps import _random_swap, _reverse, _rotate


def sharp_matrix(n, forward=0.9):
    matrix = np.full((n, n), 1.0 - forward)
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = forward
    np.fill_diagonal(matrix, 0.0)
    return matrix


def random_closure(n, seed):
    rng = np.random.default_rng(seed)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            p = rng.uniform(0.05, 0.95)
            matrix[i, j] = p
            matrix[j, i] = 1.0 - p
    return matrix


class TestMoves:
    """The reference oracle's pure moves (copy, then apply)."""

    @pytest.mark.parametrize("move", [_rotate, _reverse, _random_swap])
    def test_moves_preserve_permutation(self, move):
        rng = np.random.default_rng(0)
        path = np.arange(12)
        for _ in range(100):
            candidate = move(path, rng)
            assert sorted(candidate.tolist()) == list(range(12))

    @pytest.mark.parametrize("move", [_rotate, _reverse, _random_swap])
    def test_moves_do_not_mutate_input(self, move):
        rng = np.random.default_rng(1)
        path = np.arange(10)
        original = path.copy()
        move(path, rng)
        assert np.array_equal(path, original)

    def test_moves_actually_move(self):
        rng = np.random.default_rng(2)
        path = np.arange(10)
        changed = sum(
            not np.array_equal(_reverse(path, rng), path) for _ in range(50)
        )
        assert changed > 25


class TestSAPSSearch:
    def test_finds_sharp_optimum(self):
        matrix = sharp_matrix(10)
        ranking, log_pref = saps_search(
            matrix, SAPSConfig(iterations=3000, restarts=2), rng=0
        )
        assert ranking == Ranking(range(10))
        assert log_pref == pytest.approx(9 * math.log(0.9))

    def test_one_restart_solves_sharp_instance(self):
        matrix = sharp_matrix(8)
        ranking, _ = saps_search(
            matrix, SAPSConfig(iterations=2000, restarts=1), rng=1
        )
        assert ranking == Ranking(range(8))

    def test_near_exact_on_random_instance(self):
        """SAPS should land within a small gap of the exact optimum."""
        matrix = random_closure(9, seed=5)
        _, exact_log = branch_and_bound_search(matrix)
        _, saps_log = saps_search(
            matrix, SAPSConfig(iterations=4000, restarts=3), rng=2
        )
        assert saps_log <= exact_log + 1e-9
        assert saps_log >= exact_log - 0.5

    def test_deterministic_with_seed(self):
        matrix = random_closure(8, seed=1)
        config = SAPSConfig(iterations=500, restarts=1)
        a, _ = saps_search(matrix, config, rng=9)
        b, _ = saps_search(matrix, config, rng=9)
        assert a == b

    def test_single_object(self):
        ranking, log_pref = saps_search(np.zeros((1, 1)))
        assert ranking == Ranking([0])
        assert log_pref == 0.0

    def test_two_objects(self):
        matrix = np.array([[0.0, 0.8], [0.2, 0.0]])
        ranking, _ = saps_search(matrix, SAPSConfig(iterations=10, restarts=1),
                                 rng=0)
        assert ranking == Ranking([0, 1])

    def test_empty_matrix_raises(self):
        with pytest.raises(InferenceError):
            saps_search(np.zeros((0, 0)), SAPSConfig(iterations=10), rng=0)

    def test_incomplete_graph_without_path_raises(self):
        matrix = np.zeros((4, 4))
        matrix[0, 1] = 0.9  # vertices 2, 3 unreachable
        with pytest.raises(InferenceError):
            saps_search(matrix, SAPSConfig(iterations=50, restarts=1), rng=0)

    def test_report_diagnostics(self):
        matrix = sharp_matrix(6)
        report = saps_search_report(
            matrix, SAPSConfig(iterations=100, restarts=2), rng=0
        )
        assert report.restarts == 2
        assert report.proposed_moves == 2 * 100 * 3
        assert 0 < report.accepted_moves <= report.proposed_moves

    def test_restarts_none_uses_every_vertex(self):
        matrix = sharp_matrix(5)
        report = saps_search_report(
            matrix, SAPSConfig(iterations=50, restarts=None), rng=0
        )
        assert report.restarts == 5

    def test_polish_attribution(self):
        """A short hot anneal leaves disorder the polish pass removes;
        the report must attribute exactly that gain to the polish."""
        matrix = random_closure(20, seed=4)
        base = dict(iterations=60, restarts=1, temperature=2.0,
                    cooling_rate=0.9)
        rough = saps_search_report(
            matrix, SAPSConfig(**base, polish=False), rng=0
        )
        polished = saps_search_report(
            matrix, SAPSConfig(**base, polish=True), rng=0
        )
        assert rough.polish_improved is False
        assert rough.polish_delta == 0.0
        assert polished.polish_improved is True
        assert polished.polish_delta > 0.0
        assert polished.log_preference == pytest.approx(
            rough.log_preference + polished.polish_delta
        )
        # Polish work must not leak into the anneal counters.
        assert polished.proposed_moves == rough.proposed_moves
        assert polished.accepted_moves == rough.accepted_moves

    def test_better_temperature_schedule_not_worse(self):
        """Long cold anneal should match or beat a short hot one on the
        final preference (sanity of the Boltzmann machinery)."""
        matrix = random_closure(12, seed=7)
        _, hot = saps_search(
            matrix,
            SAPSConfig(iterations=200, restarts=1, temperature=5.0,
                       cooling_rate=0.99),
            rng=3,
        )
        _, cold = saps_search(
            matrix,
            SAPSConfig(iterations=5000, restarts=2, temperature=0.2,
                       cooling_rate=0.9995),
            rng=3,
        )
        assert cold >= hot - 1e-9


def _path_log_preference(matrix, order):
    return float(sum(math.log(matrix[a, b])
                     for a, b in zip(order, order[1:])))


class TestWarmStart:
    """``warm_start`` replaces the first restart's initial path; since
    the initial path seeds best-so-far, a warm run can never come back
    worse than the ranking it was handed."""

    def test_never_worse_than_seed_ranking(self):
        matrix = random_closure(12, seed=4)
        # A deliberately good seed: the cold optimum.
        seed_ranking, seed_log = saps_search(
            matrix, SAPSConfig(iterations=6000, restarts=2), rng=0
        )
        # ... annealed with a tiny budget that could only ruin it.
        report = saps_search_report(
            matrix, SAPSConfig(iterations=5, restarts=1), rng=1,
            warm_start=seed_ranking.order,
        )
        assert report.log_preference >= seed_log - 1e-9

    def test_never_worse_than_arbitrary_seed(self):
        matrix = random_closure(10, seed=8)
        warm = list(range(10))  # arbitrary, likely poor
        report = saps_search_report(
            matrix, SAPSConfig(iterations=300, restarts=1), rng=2,
            warm_start=warm,
        )
        assert report.log_preference \
            >= _path_log_preference(matrix, warm) - 1e-9

    def test_warm_start_still_improves(self):
        """A warm run with a real budget escapes a bad seed."""
        matrix = sharp_matrix(8)
        report = saps_search_report(
            matrix, SAPSConfig(iterations=2000, restarts=1), rng=3,
            warm_start=list(reversed(range(8))),
        )
        assert report.ranking == Ranking(range(8))

    def test_cold_run_unaffected_by_omitted_warm_start(self):
        matrix = random_closure(9, seed=2)
        config = SAPSConfig(iterations=800, restarts=2)
        a = saps_search_report(matrix, config, rng=5)
        b = saps_search_report(matrix, config, rng=5, warm_start=None)
        assert a.ranking == b.ranking
        assert a.log_preference == b.log_preference

    @pytest.mark.parametrize("warm", [
        [0, 1, 2],            # wrong length
        [0, 1, 2, 3, 3, 5, 6, 7, 8],  # repeated element
        [0, 1, 2, 3, 4, 5, 6, 7, 9],  # out of range
    ])
    def test_invalid_permutation_rejected(self, warm):
        matrix = random_closure(9, seed=2)
        with pytest.raises(InferenceError):
            saps_search_report(
                matrix, SAPSConfig(iterations=10, restarts=1), rng=0,
                warm_start=warm,
            )


class TestSchedule:
    """The session anneal's start point: the degree order and the
    temperature of the schedule's cold tail."""

    def test_degree_order_is_the_row_sum_order_of_a_closure(self):
        matrix = random_closure(15, seed=6)
        order = degree_order(matrix)
        np.testing.assert_array_equal(
            order, np.argsort(-matrix.sum(axis=1), kind="stable"))

    def test_degree_order_breaks_ties_by_id(self):
        matrix = np.full((6, 6), 0.5)
        np.fill_diagonal(matrix, 0.0)
        assert degree_order(matrix).tolist() == list(range(6))

    def test_degree_init_starts_at_the_vertex_then_follows_the_order(self):
        matrix = random_closure(9, seed=3)
        order = degree_order(matrix)
        for start in range(9):
            path = _initial_path(order, start)
            assert path.tolist() == [start] + [v for v in order.tolist()
                                               if v != start]

    def test_tail_temperature_is_the_schedule_after_the_skipped_part(self):
        config = SAPSConfig(iterations=20000, temperature=0.2,
                            cooling_rate=0.9995)
        assert tail_temperature(config, 50, 1500) == pytest.approx(
            0.2 * 0.9995 ** 18500, rel=1e-12)
        # Past 100 objects the skipped part grows with the schedule.
        assert tail_temperature(config, 200, 1500) == pytest.approx(
            0.2 * 0.9995 ** 38500, rel=1e-12)

    @pytest.mark.parametrize("iterations", [20000, 25000, 10 ** 9])
    def test_tail_temperature_is_t0_when_nothing_is_skipped(
            self, iterations):
        config = SAPSConfig(iterations=20000, temperature=0.2)
        assert tail_temperature(config, 50, iterations) == 0.2

    @pytest.mark.parametrize("n", [2, 100, 10 ** 6, 2 ** 31, 2 ** 63 - 1])
    def test_tail_temperature_positive_and_finite_for_any_n(self, n):
        for config in (SAPSConfig(), SAPSConfig(scale_with_objects=False),
                       SAPSConfig(iterations=1, cooling_rate=1e-9)):
            temperature = tail_temperature(config, n, 1500)
            assert 0.0 < temperature < math.inf
            assert temperature >= 1e-300
