"""Equivalence and unit tests for the native SAPS kernel.

Two contracts are under test.  The native kernel (``_anneal.c``) is
*exactly* the Python incremental kernel it replaced
(``tests/oracles/saps.py``): for any seed, the same ranking, the same
``log_preference`` bit for bit and the same accepted moves, on every
interpreter.  And both are *observationally identical* to the
full-re-sum reference anneal: same accepted moves and best ranking,
cost to 1e-9 (its full re-sums add in another order).  Speed is
benchmarked by ``benchmarks/bench_saps.py``, not here.
``TestGoldenReports`` pins the kernel's answers on Steps 1-3 closures
to recorded values, so a kernel rewrite cannot drift from the answers
of the kernel it replaces.
"""

import json
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adaptive import _interim_closure
from repro.config import PipelineConfig, SAPSConfig
from repro.exceptions import ConfigurationError, InferenceError
from repro.inference import native, saps
from repro.inference.delta import (
    apply_reverse,
    apply_rotate,
    apply_swap,
    path_cost,
    reverse_delta,
    reverse_diff_matrix,
    rotate_delta,
    swap_delta,
)
from repro.inference.saps import (
    _anneal_incremental,
    saps_search,
    saps_search_report,
)
from repro.types import VoteSet
from repro.workers import parallel_map

from tests.oracles import python_search_report, reference_search_report
from tests.oracles.saps import (
    _check_running,
    cost_rows,
    reverse_diff_rows,
)

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


class TestNativeKernel:
    """The native kernel equals the Python kernel it replaced, exactly."""

    @staticmethod
    def assert_identical(native_report, python_report):
        assert native_report.ranking == python_report.ranking
        assert native_report.log_preference == python_report.log_preference
        assert native_report.accepted_moves == python_report.accepted_moves
        assert native_report.proposed_moves == python_report.proposed_moves

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 5, 17, 60, 150, 300])
    def test_random_closures(self, n, warm):
        matrix = random_closure(n, seed=n + 300)
        config = SAPSConfig(iterations=1500, restarts=2,
                            scale_with_objects=False)
        warm_start = (np.random.default_rng(n).permutation(n) if warm
                      else None)
        self.assert_identical(
            saps_search_report(matrix, config, rng=n, warm_start=warm_start),
            python_search_report(matrix, config, rng=n,
                                 warm_start=warm_start))

    @pytest.mark.parametrize("warm", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 16, 50, 100])
    def test_steps_1_to_3_closures(self, n, warm):
        """Default config (20,000 iterations: five native draw blocks
        against the oracle's 79) on the closures the pipeline builds."""
        closure = steps_1_to_3(synthetic_votes(n, seed=n + 1), seed=n)
        warm_start = (saps.degree_order(closure)[::-1] if warm else None)
        self.assert_identical(
            saps_search_report(closure, SAPSConfig(), rng=n + 7,
                               warm_start=warm_start),
            python_search_report(closure, SAPSConfig(), rng=n + 7,
                                 warm_start=warm_start))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1),
           iterations=st.integers(1, 5000),
           resync_every=st.integers(1, 600),
           cooling_rate=st.sampled_from([0.9995, 0.9, 1e-3]))
    def test_property(self, n, seed, iterations, resync_every,
                      cooling_rate):
        """A fast cooling rate reaches the ``1e-300`` temperature floor
        within a few hundred iterations."""
        matrix = random_closure(n, seed=seed % 1000)
        config = SAPSConfig(iterations=iterations, restarts=1,
                            resync_every=resync_every,
                            cooling_rate=cooling_rate)
        self.assert_identical(
            saps_search_report(matrix, config, rng=seed),
            python_search_report(matrix, config, rng=seed))

    def test_ties_keep_the_earliest_best_path(self):
        """On a closure of equal weights every move has a zero delta, so
        only the strict ``<`` keeps the initial path (the start vertex,
        then the rest in degree order: by id on a tie) as the best."""
        n = 12
        matrix = np.full((n, n), 0.5)
        np.fill_diagonal(matrix, 0.0)
        config = SAPSConfig(iterations=400, restarts=1)
        report = saps_search_report(matrix, config, rng=3)
        self.assert_identical(report,
                              python_search_report(matrix, config, rng=3))
        start, *rest = report.ranking.order
        assert rest == sorted(set(range(n)) - {start})

    def test_debug_checks_keep_answers(self):
        matrix = random_closure(40, seed=12)
        base = dict(iterations=3000, restarts=2, resync_every=10**9)
        plain = saps_search_report(matrix, SAPSConfig(**base), rng=4)
        checked = saps_search_report(
            matrix, SAPSConfig(**base, debug_checks=True), rng=4)
        self.assert_identical(checked, plain)

    def test_debug_checks_catch_drift(self, monkeypatch):
        """A running cost that starts 1.0 off its path fails the check
        at the first accepted move, with ``_check_running``'s text; with
        the check off the kernel carries the offset silently."""
        true_cost = saps.path_cost
        monkeypatch.setattr(saps, "path_cost",
                            lambda cost, path: true_cost(cost, path) + 1.0)
        matrix = random_closure(12, seed=3)
        base = dict(iterations=200, restarts=1, resync_every=10**9)
        with pytest.raises(AssertionError,
                           match="incremental cost drifted: running="):
            saps_search_report(
                matrix, SAPSConfig(**base, debug_checks=True), rng=1)
        saps_search_report(matrix, SAPSConfig(**base), rng=1)

    def test_large_n_on_a_thread(self):
        """n=3000 on a non-main thread: the kernel keeps nothing sized
        by ``n`` on the (smaller) thread stack."""
        n = 3000
        rng = np.random.default_rng(5)
        cost = -np.log(rng.uniform(0.05, 0.95, (n, n)))
        np.fill_diagonal(cost, np.inf)
        diff = reverse_diff_matrix(cost)
        initial = rng.permutation(n)
        config = SAPSConfig(iterations=50)
        outcome = []
        worker = threading.Thread(target=lambda: outcome.append(
            _anneal_incremental(cost, diff, initial, 50, config,
                                np.random.default_rng(6))))
        worker.start()
        worker.join(timeout=120)
        assert not worker.is_alive()
        best_cost, best_path, accepted, proposed = outcome[0]
        assert sorted(best_path) == list(range(n))
        assert best_cost == pytest.approx(path_cost(cost, best_path),
                                          rel=1e-9)
        assert proposed == 150 and accepted > 0

    @pytest.mark.parametrize("name, bad", [
        ("cost", lambda a: a["cost"].astype(np.float32)),
        ("diff", lambda a: np.asfortranarray(a["diff"])),
        ("path", lambda a: a["path"].astype(np.int32)),
        ("best_path", lambda a: a["best_path"][:-1]),
        ("draws", lambda a: a["draws"][:-1]),
        ("state", lambda a: a["state"][:3]),
        ("counts", lambda a: a["counts"][::-1].copy().astype(np.float64)),
    ])
    def test_buffers_are_checked(self, name, bad):
        """The kernel trusts its buffers, so the Python side refuses a
        wrong dtype, layout or shape before the call."""
        n = 6
        cost = random_cost(n, seed=1)
        buffers = dict(cost=cost, diff=reverse_diff_matrix(cost),
                       path=np.arange(n, dtype=np.int64),
                       best_path=np.arange(n, dtype=np.int64),
                       draws=np.random.default_rng(0).random(
                           native.DRAWS_PER_ITERATION * 4),
                       state=np.array([0.0, 0.0, 0.2, 0.0]),
                       counts=np.zeros(2, dtype=np.int64))
        buffers[name] = bad(buffers)
        with pytest.raises(InferenceError, match=name):
            native.anneal_block(buffers["cost"], buffers["diff"],
                                buffers["path"], buffers["best_path"],
                                buffers["draws"], 4, 0.99, 512, False,
                                buffers["state"], buffers["counts"])

    @pytest.mark.parametrize("resync_every", [2**64, 2**64 + 5, 2**63])
    def test_resync_interval_beyond_int64(self, resync_every):
        """An interval past int64 (JSON allows any int) never resyncs,
        as in the Python kernel: it is not wrapped into the kernel's
        int64 (2**64 would arrive as a modulus of zero)."""
        matrix = random_closure(20, seed=8)
        config = SAPSConfig(iterations=600, restarts=2,
                            resync_every=resync_every)
        report = saps_search_report(matrix, config, rng=2)
        self.assert_identical(report,
                              python_search_report(matrix, config, rng=2))
        never = SAPSConfig(iterations=600, restarts=2, resync_every=10**9)
        self.assert_identical(report,
                              saps_search_report(matrix, never, rng=2))

    @pytest.mark.parametrize("iterations, resync_every",
                             [(4, 2**64), (4, 2**63), (2**63, 512)])
    def test_ints_outside_int64_are_refused(self, iterations, resync_every):
        n = 6
        cost = random_cost(n, seed=1)
        with pytest.raises(InferenceError):
            native.anneal_block(
                cost, reverse_diff_matrix(cost),
                np.arange(n, dtype=np.int64), np.arange(n, dtype=np.int64),
                np.zeros(native.DRAWS_PER_ITERATION * 4), iterations, 0.99,
                resync_every, False, np.array([0.0, 0.0, 0.2, 0.0]),
                np.zeros(2, dtype=np.int64))

    def test_initial_path_must_be_a_permutation(self):
        cost = random_cost(5, seed=2)
        with pytest.raises(InferenceError, match="permutation"):
            _anneal_incremental(cost, reverse_diff_matrix(cost),
                                np.array([0, 1, 2, 3, 7]), 10, SAPSConfig(),
                                np.random.default_rng(0))


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
        # The Python kernel the native one replaced, bit for bit.
        TestNativeKernel.assert_identical(
            report, python_search_report(closure, SAPSConfig(), rng=n + 1))

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
