"""Step 1's native CRH loop against the numpy loop it replaced.

:func:`repro.truth.discover_truth` runs Eq. 4-5 and the convergence
test in one call into the native library (``_crh.c``).  The contract
checked here: on every vote set, configuration and warm start it
returns what :func:`tests.oracles.crh.discover_truth_reference` (the
numpy loop) returns, bit for bit: the truth, the iteration weights, the
reported quality, every per-iteration delta and the converged flag, or
the same :class:`ConvergenceError`.  The ``TestNativeLoop`` and
``TestKernelContract`` classes also run under AddressSanitizer
(``tests/test_native_sanitizers.py``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TruthDiscoveryConfig
from repro.exceptions import ConvergenceError, InferenceError
from repro.inference import native
from repro.truth import TruthWarmStart, discover_truth
from repro.types import VoteArrays
from tests.oracles.crh import discover_truth_reference


def bits(array):
    return np.asarray(array, dtype=np.float64).view(np.int64)


def assert_identical(got, want):
    assert np.array_equal(bits(got.preference_vector),
                          bits(want.preference_vector))
    assert np.array_equal(bits(got.iteration_weights),
                          bits(want.iteration_weights))
    assert np.array_equal(bits(got.quality_vector), bits(want.quality_vector))
    assert np.array_equal(bits(got.trace.preference_deltas),
                          bits(want.trace.preference_deltas))
    assert np.array_equal(bits(got.trace.quality_deltas),
                          bits(want.trace.quality_deltas))
    assert got.trace.converged == want.trace.converged
    assert got.worker_quality == want.worker_quality
    assert got.preferences == want.preferences


def outcome(discover, arrays, config, warm_start=None):
    """The result, or the ``ConvergenceError`` text."""
    try:
        return discover(arrays, config, warm_start)
    except ConvergenceError as error:
        return str(error)


def check(arrays, config, warm_start=None):
    got = outcome(discover_truth, arrays, config, warm_start)
    want = outcome(discover_truth_reference, arrays, config, warm_start)
    if isinstance(want, str):
        assert got == want
    else:
        assert_identical(got, want)
    return got


def vote_arrays(rng, n_objects, n_votes, n_workers):
    workers = rng.integers(0, n_workers, n_votes)
    winners = rng.integers(0, n_objects, n_votes)
    losers = (winners + rng.integers(1, n_objects, n_votes)) % n_objects
    return VoteArrays.from_columns(n_objects, workers, winners, losers)


configs = st.builds(
    TruthDiscoveryConfig,
    max_iterations=st.integers(1, 60),
    tolerance=st.sampled_from([1e-4, 1e-2, 1e-8]),
    alpha=st.sampled_from([0.05, 0.2]),
    min_error=st.sampled_from([0.25, 1e-6]),
    strict=st.booleans(),
)


@st.composite
def vote_sets(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n_objects = draw(st.integers(2, 40))
    n_votes = draw(st.integers(1, 400))
    n_workers = draw(st.integers(1, 12))
    return vote_arrays(np.random.default_rng(seed), n_objects, n_votes,
                       n_workers)


class TestNativeLoop:
    @settings(max_examples=150, deadline=None)
    @given(vote_sets(), configs)
    def test_matches_the_numpy_loop(self, arrays, config):
        check(arrays, config)

    @settings(max_examples=80, deadline=None)
    @given(vote_sets(), configs, st.integers(0, 2**32 - 1))
    def test_warm_start_matches_the_numpy_loop(self, arrays, config, seed):
        rng = np.random.default_rng(seed)
        warm = TruthWarmStart(rng.random(arrays.n_pairs),
                              rng.random(arrays.n_workers) + 1e-3)
        check(arrays, config, warm)

    def test_one_vote(self):
        arrays = VoteArrays.from_columns(
            2, np.array([7]), np.array([1]), np.array([0]))
        result = check(arrays, TruthDiscoveryConfig())
        assert result.preference_vector.tolist() == [0.0]

    def test_one_worker_one_pair(self):
        arrays = VoteArrays.from_columns(
            2, np.zeros(5, np.int64), np.array([0, 1, 0, 0, 1]),
            np.array([1, 0, 1, 1, 0]))
        check(arrays, TruthDiscoveryConfig())

    def test_single_vote_pairs(self):
        rng = np.random.default_rng(3)
        winners = np.arange(60)
        arrays = VoteArrays.from_columns(
            61, rng.integers(0, 5, 60), winners, winners + 1)
        assert arrays.n_pairs == len(arrays)
        check(arrays, TruthDiscoveryConfig())

    def test_one_iteration(self):
        arrays = vote_arrays(np.random.default_rng(4), 30, 500, 8)
        config = TruthDiscoveryConfig(max_iterations=1)
        assert check(arrays, config).trace.iterations == 1
        with pytest.raises(ConvergenceError):
            discover_truth(arrays, TruthDiscoveryConfig(
                max_iterations=1, strict=True))

    def test_past_numpy_buffer_size(self):
        # More pairs than one 8192-element reduction buffer: the mean
        # delta's pairwise sum splits the same way numpy's does.
        arrays = vote_arrays(np.random.default_rng(5), 400, 40_000, 60)
        assert arrays.n_pairs > 8192
        config = TruthDiscoveryConfig()
        cold = check(arrays, config)
        warm = TruthWarmStart(cold.preference_vector[::-1].copy(),
                              cold.iteration_weights)
        check(arrays, config, warm)


class TestKernelContract:
    def arguments(self):
        arrays = vote_arrays(np.random.default_rng(6), 10, 50, 4)
        return dict(
            pair_idx=arrays.pair_idx, worker_idx=arrays.worker_idx,
            value=arrays.value, chi2_scale=np.ones(arrays.n_workers),
            truth=np.full(arrays.n_pairs, 0.5),
            quality=np.ones(arrays.n_workers), min_error=0.25,
            tolerance=1e-4, max_iterations=5)

    @pytest.mark.parametrize("name, index", [
        ("pair_idx", -1), ("pair_idx", 10**6), ("worker_idx", -1),
        ("worker_idx", 4)])
    def test_index_out_of_range_is_refused(self, name, index):
        arguments = self.arguments()
        arguments[name] = arguments[name].copy()
        arguments[name][7] = index
        with pytest.raises(InferenceError, match="out of contract"):
            native.crh_iterate(**arguments)

    @pytest.mark.parametrize("name, bad", [
        ("pair_idx", lambda a: a.astype(np.int32)),
        ("value", lambda a: a[::-1]),
        ("truth", lambda a: a.astype(np.float32)),
        ("quality", lambda a: np.ones(2 * len(a))[::2]),
        ("chi2_scale", lambda a: a[:-1]),
    ])
    def test_bad_buffer_is_refused(self, name, bad):
        arguments = self.arguments()
        arguments[name] = bad(arguments[name])
        with pytest.raises(InferenceError, match="native kernel buffer"):
            native.crh_iterate(**arguments)

    def test_read_only_state_is_refused(self):
        arguments = self.arguments()
        arguments["truth"].setflags(write=False)
        with pytest.raises(InferenceError, match="'truth'"):
            native.crh_iterate(**arguments)

    @pytest.mark.parametrize("field", ["truth", "weights"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_warm_start_is_refused(self, field, bad):
        arrays = vote_arrays(np.random.default_rng(7), 10, 50, 4)
        state = {"truth": np.full(arrays.n_pairs, 0.5),
                 "weights": np.ones(arrays.n_workers)}
        state[field][0] = bad
        with pytest.raises(InferenceError, match="non-finite"):
            discover_truth(arrays, warm_start=TruthWarmStart(**state))

    def test_caller_state_is_not_mutated(self):
        arrays = vote_arrays(np.random.default_rng(8), 10, 50, 4)
        warm = TruthWarmStart(np.full(arrays.n_pairs, 0.5),
                              np.ones(arrays.n_workers))
        discover_truth(arrays, warm_start=warm)
        assert (warm.truth == 0.5).all() and (warm.weights == 1.0).all()
