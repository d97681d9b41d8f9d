"""Equivalence and unit tests for the incremental SAPS kernel.

The contract under test: the incremental kernel (delta evaluation,
in-place moves, pre-fetched RNG blocks) is *observationally identical*
to the reference anneal in ``tests/oracles`` (full re-sum per proposal,
scalar RNG draws) for any seed — same accepted moves, same best
ranking, same cost to float precision — while being several times
faster (benchmarked by ``benchmarks/bench_saps.py``, not here).
``TestGoldenReports`` pins the kernel's answers on Steps 1-3 closures
to recorded values, so a kernel rewrite cannot drift from the answers
of the kernel it replaces.

Costs are compared to 1e-9, never exactly: from Python 3.12 ``sum()``
of floats is compensated, so the kernel's Reverse sums may differ in
the last bits between interpreter versions.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import _interim_closure
from repro.config import PipelineConfig, SAPSConfig
from repro.exceptions import ConfigurationError, InferenceError
from repro.inference.delta import (
    apply_reverse,
    apply_rotate,
    apply_swap,
    cost_rows,
    path_cost,
    reverse_delta,
    reverse_diff_matrix,
    reverse_diff_rows,
    rotate_delta,
    swap_delta,
)
from repro.inference.saps import (
    _check_running,
    saps_search,
    saps_search_report,
)
from repro.types import VoteSet
from repro.workers import parallel_map

from tests.oracles import reference_search_report

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "saps_golden.json").read_text()
)


def random_closure(n, seed):
    rng = np.random.default_rng(seed)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            p = rng.uniform(0.05, 0.95)
            matrix[i, j] = p
            matrix[j, i] = 1.0 - p
    return matrix


def synthetic_votes(n, seed, ratio=0.3, n_workers=20, per_task=5):
    """A seeded crowd: ``ratio`` of all pairs (plus a random Hamiltonian
    path, so the comparison graph is connected), ``per_task`` workers
    each, worker quality ~ U(0.6, 0.95)."""
    rng = np.random.default_rng(seed)
    truth = rng.permutation(n)
    position = np.empty(n, dtype=np.int64)
    position[truth] = np.arange(n)
    quality = rng.uniform(0.6, 0.95, n_workers)
    lo, hi = np.triu_indices(n, 1)
    keep = rng.random(len(lo)) < ratio
    path = rng.permutation(n)
    a = np.minimum(path[:-1], path[1:])
    b = np.maximum(path[:-1], path[1:])
    keep[(a * (2 * n - a - 1)) // 2 + b - a - 1] = True
    lo, hi = lo[keep], hi[keep]
    workers = np.argsort(rng.random((len(lo), n_workers)),
                         axis=1)[:, :per_task]
    correct = rng.random((len(lo), per_task)) < quality[workers]
    better = np.where(position[lo] < position[hi], lo, hi)[:, None]
    worse = (lo + hi)[:, None] - better
    return VoteSet.from_columns(
        n, workers.ravel(), np.where(correct, better, worse).ravel(),
        np.where(correct, worse, better).ravel(),
    )


def steps_1_to_3(votes, seed):
    """The complete closure the default pipeline hands to Step 4."""
    return _interim_closure(votes.n_objects, list(votes.votes),
                            PipelineConfig(), np.random.default_rng(seed))


def random_cost(n, seed):
    rng = np.random.default_rng(seed)
    cost = -np.log(rng.uniform(0.05, 0.95, (n, n)))
    np.fill_diagonal(cost, np.inf)
    return cost


class TestDeltas:
    """Each delta must equal the brute-force cost difference."""

    @pytest.mark.parametrize("n", [2, 3, 4, 10, 30])
    def test_rotate_delta_matches_resum(self, n):
        cost = random_cost(n, seed=n)
        rows = cost_rows(cost)
        rng = np.random.default_rng(n + 1)
        for _ in range(200):
            path = list(rng.permutation(n))
            first = int(rng.integers(0, n - 1))
            last = int(rng.integers(first + 2, n + 1))
            middle = int(rng.integers(first + 1, last))
            before = path_cost(cost, path)
            delta = rotate_delta(rows, path, first, middle, last)
            apply_rotate(path, first, middle, last)
            assert delta == pytest.approx(path_cost(cost, path) - before,
                                          abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 10, 30])
    def test_reverse_delta_matches_resum(self, n):
        cost = random_cost(n, seed=n)
        rows = cost_rows(cost)
        diff = reverse_diff_rows(cost)
        rng = np.random.default_rng(n + 2)
        for _ in range(200):
            path = list(rng.permutation(n))
            first = int(rng.integers(0, n - 1))
            last = int(rng.integers(first + 2, n + 1))
            before = path_cost(cost, path)
            delta = reverse_delta(rows, diff, path, first, last)
            apply_reverse(path, first, last)
            assert delta == pytest.approx(path_cost(cost, path) - before,
                                          abs=1e-9)

    def test_edge_list_slice_sum_is_reverse_delta(self):
        """The kernel prices a Reverse as a slice sum over the edge list
        ``diff[p_i][p_{i+1}]`` plus the two boundary swaps; on long
        segments that must equal :func:`reverse_delta` and the re-sum."""
        n = 300
        cost = random_cost(n, seed=0)
        rows = cost_rows(cost)
        diff = reverse_diff_rows(cost)
        rng = np.random.default_rng(1)
        path = [int(v) for v in rng.permutation(n)]
        forward = [diff[a][b] for a, b in zip(path, path[1:])]
        mirror = [diff[b][a] for a, b in zip(path, path[1:])]
        assert mirror == [-value for value in forward]
        for first, last in [(0, n), (3, n - 2), (10, 280), (150, 152)]:
            sliced = sum(forward[first:last - 1])
            if first > 0:
                p = path[first - 1]
                sliced += rows[p][path[last - 1]] - rows[p][path[first]]
            if last < n:
                q = path[last]
                sliced += rows[path[first]][q] - rows[path[last - 1]][q]
            assert sliced == pytest.approx(
                reverse_delta(rows, diff, path, first, last), abs=1e-9)
            moved = list(path)
            apply_reverse(moved, first, last)
            assert sliced == pytest.approx(
                path_cost(cost, moved) - path_cost(cost, path), abs=1e-9)

    def test_debug_check_catches_stale_edge_list(self):
        cost = random_cost(6, seed=4)
        diff = reverse_diff_rows(cost)
        path = [3, 0, 5, 1, 4, 2]
        forward = [diff[a][b] for a, b in zip(path, path[1:])]
        mirror = [diff[b][a] for a, b in zip(path, path[1:])]
        current = path_cost(cost, path)
        _check_running(cost, diff, path, forward, mirror, current)
        with pytest.raises(AssertionError, match="edge list"):
            _check_running(cost, diff, path, forward[::-1], mirror, current)
        with pytest.raises(AssertionError, match="edge list"):
            _check_running(cost, diff, path, forward, mirror[::-1], current)
        with pytest.raises(AssertionError, match="drifted"):
            _check_running(cost, diff, path, forward, mirror, current + 1.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 10, 30])
    def test_swap_delta_matches_resum(self, n):
        cost = random_cost(n, seed=n)
        rows = cost_rows(cost)
        rng = np.random.default_rng(n + 3)
        for _ in range(200):
            path = list(rng.permutation(n))
            i = int(rng.integers(0, n))
            j = int(rng.integers(0, n))
            before = path_cost(cost, path)
            delta = swap_delta(rows, path, i, j)
            apply_swap(path, i, j)
            assert delta == pytest.approx(path_cost(cost, path) - before,
                                          abs=1e-9)

    def test_diff_matrix_no_nan_with_inf_diagonal(self):
        cost = random_cost(6, seed=9)  # diagonal is +inf
        diff = reverse_diff_matrix(cost)
        assert not np.isnan(diff).any()


class TestKernelEquivalence:
    """Incremental and reference kernels are seed-for-seed identical."""

    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_kernels_agree(self, n):
        matrix = random_closure(n, seed=n)
        base = dict(iterations=400, restarts=2)
        inc = saps_search_report(
            matrix,
            SAPSConfig(**base, debug_checks=True, resync_every=64),
            rng=7,
        )
        ref = reference_search_report(matrix, SAPSConfig(**base), rng=7)
        assert inc.ranking == ref.ranking
        assert inc.log_preference == pytest.approx(ref.log_preference,
                                                   abs=1e-9)
        assert inc.accepted_moves == ref.accepted_moves
        assert inc.proposed_moves == ref.proposed_moves

    @pytest.mark.parametrize("n", [2, 3, 10, 50])
    def test_incremental_cost_never_drifts(self, n):
        """``debug_checks`` asserts running == re-summed after *every*
        accepted move; a huge resync interval means the check alone
        guards the drift across the whole run."""
        matrix = random_closure(n, seed=n + 100)
        report = saps_search_report(
            matrix,
            SAPSConfig(iterations=600, restarts=1, debug_checks=True,
                       resync_every=10**9),
            rng=3,
        )
        assert report.proposed_moves == 600 * 3

    def test_long_reverses_keep_edge_lists_in_sync(self):
        """n=300 proposes Reverses over hundreds of edges; ``debug_checks``
        asserts the edge lists against ``diff`` after every accept."""
        matrix = random_closure(300, seed=8)
        config = dict(iterations=300, restarts=1, scale_with_objects=False)
        inc = saps_search_report(
            matrix, SAPSConfig(**config, debug_checks=True), rng=2)
        ref = reference_search_report(matrix, SAPSConfig(**config), rng=2)
        assert inc.ranking == ref.ranking
        assert inc.accepted_moves == ref.accepted_moves > 0
        assert inc.log_preference == pytest.approx(ref.log_preference,
                                                   abs=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 40), seed=st.integers(0, 2**32 - 1),
           closure_seed=st.integers(0, 2**16))
    def test_kernels_agree_on_random_closures(self, n, seed, closure_seed):
        matrix = random_closure(n, seed=closure_seed)
        base = dict(iterations=150, restarts=2, resync_every=37)
        inc = saps_search_report(
            matrix, SAPSConfig(**base, debug_checks=True), rng=seed)
        ref = reference_search_report(matrix, SAPSConfig(**base), rng=seed)
        assert inc.ranking == ref.ranking
        assert inc.accepted_moves == ref.accepted_moves
        assert inc.proposed_moves == ref.proposed_moves
        assert inc.log_preference == pytest.approx(ref.log_preference,
                                                   abs=1e-9)

    @pytest.mark.parametrize("init", ["greedy", "degree", "random"])
    @pytest.mark.parametrize("bad", [0.0, float("nan")])
    def test_incomplete_closure_raises_typed_error(self, init, bad):
        """One missing (or NaN) off-diagonal weight is not a Step-3
        closure: SAPS refuses it up front, under every init."""
        matrix = random_closure(8, seed=5)
        matrix[2, 6] = bad
        with pytest.raises(InferenceError, match="Theorem 5.1"):
            saps_search_report(
                matrix, SAPSConfig(iterations=300, restarts=2, init=init),
                rng=11,
            )

    def test_incomplete_graph_still_raises_without_path(self):
        matrix = np.zeros((4, 4))
        matrix[0, 1] = 0.9
        with pytest.raises(InferenceError):
            saps_search(matrix, SAPSConfig(iterations=50, restarts=1), rng=0)


class TestGoldenReports:
    """Default-config SAPS on Steps 1-3 closures of seeded crowds.

    The recorded reports (``data/saps_golden.json``) came from the
    incremental kernel before its edge-list rewrite; rankings and move
    counts must match exactly, the objective to 1e-9 — for the kernel
    and for the reference oracle alike.
    """

    @pytest.mark.parametrize("golden", GOLDEN,
                             ids=[f"n{g['n']}" for g in GOLDEN])
    def test_report_matches_recorded(self, golden):
        n = golden["n"]
        closure = steps_1_to_3(synthetic_votes(n, seed=n), seed=n)
        report = saps_search_report(closure, SAPSConfig(), rng=n + 1)
        assert list(report.ranking.order) == golden["ranking"]
        assert report.accepted_moves == golden["accepted_moves"]
        assert report.proposed_moves == golden["proposed_moves"]
        assert report.log_preference == pytest.approx(
            golden["log_preference"], abs=1e-9)

    @pytest.mark.parametrize("golden", GOLDEN[:2],
                             ids=[f"n{g['n']}" for g in GOLDEN[:2]])
    def test_reference_oracle_matches_recorded(self, golden):
        """The two smallest goldens: the full-re-sum anneal needs
        seconds per report from n=100 up."""
        n = golden["n"]
        closure = steps_1_to_3(synthetic_votes(n, seed=n), seed=n)
        report = reference_search_report(closure, SAPSConfig(), rng=n + 1)
        assert list(report.ranking.order) == golden["ranking"]
        assert report.accepted_moves == golden["accepted_moves"]
        assert report.proposed_moves == golden["proposed_moves"]
        assert report.log_preference == pytest.approx(
            golden["log_preference"], abs=1e-9)

    def test_closures_are_complete(self):
        """Steps 1-3 closures are complete (Theorem 5.1), so SAPS
        accepts them."""
        closure = steps_1_to_3(synthetic_votes(16, seed=16), seed=16)
        off_diagonal = ~np.eye(16, dtype=bool)
        assert (closure[off_diagonal] > 0.0).all()


class TestParallelRestarts:
    @pytest.mark.parametrize("n", [5, 12, 30])
    def test_serial_equals_parallel(self, n):
        """Same seed, same best ranking and cost, any thread count."""
        matrix = random_closure(n, seed=n + 40)
        base = dict(iterations=200, restarts=None)  # every-vertex restarts
        serial = saps_search_report(
            matrix, SAPSConfig(**base, parallel_restarts=1), rng=13
        )
        parallel = saps_search_report(
            matrix, SAPSConfig(**base, parallel_restarts=4), rng=13
        )
        assert serial.ranking == parallel.ranking
        assert serial.log_preference == parallel.log_preference
        assert serial.accepted_moves == parallel.accepted_moves
        assert serial.proposed_moves == parallel.proposed_moves

    def test_serial_equals_parallel_reference_kernel(self):
        matrix = random_closure(10, seed=77)
        base = dict(iterations=150, restarts=3)
        serial = reference_search_report(
            matrix, SAPSConfig(**base, parallel_restarts=1), rng=5
        )
        parallel = reference_search_report(
            matrix, SAPSConfig(**base, parallel_restarts=3), rng=5
        )
        assert serial.ranking == parallel.ranking
        assert serial.log_preference == parallel.log_preference


class TestParallelMap:
    def test_preserves_order(self):
        out = parallel_map(lambda x: x * x, list(range(20)), max_workers=4)
        assert out == [x * x for x in range(20)]

    def test_serial_path(self):
        out = parallel_map(lambda x: x + 1, [1, 2, 3], max_workers=1)
        assert out == [2, 3, 4]

    def test_propagates_exceptions(self):
        def boom(x):
            raise ValueError(f"bad {x}")

        with pytest.raises(ValueError):
            parallel_map(boom, [1, 2], max_workers=2)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ConfigurationError):
            parallel_map(lambda x: x, [1], max_workers=0)
