"""The result encoder's native ``direct_preferences`` writer against
``json.dumps``.

:attr:`repro.io.EncodedResult.result_json` lets the native library
(``_result_json.c``) write the ``direct_preferences`` member and splices
it into the rest, which ``json.dumps`` writes.  The contract checked
here: the bytes equal ``json.dumps(result_to_payload(result),
sort_keys=True)`` for every engine's results, members in ``sort_keys``
order, every value as ``float.__repr__`` writes it and the non-finite
ones as ``json.dumps`` spells them.  The ``TestFloatWriter`` and
``TestMemberOrder`` classes also run under AddressSanitizer
(``tests/test_native_sanitizers.py``).
"""

import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PipelineConfig, SAPSConfig
from repro.exceptions import InferenceError
from repro.inference import RankingPipeline, native
from repro.io import EncodedResult, result_to_payload
from repro.types import InferenceResult, Ranking, VoteSet

I64 = st.integers(-2**63, 2**63 - 1)


def written(lo, hi, values):
    return native.direct_preferences_json(
        np.asarray(lo, dtype=np.int64), np.asarray(hi, dtype=np.int64),
        np.asarray(values, dtype=np.float64))


def dumped(lo, hi, values):
    return json.dumps({f"{i},{j}": float(value)
                       for i, j, value in zip(lo, hi, values)},
                      sort_keys=True).encode("utf-8")


def assert_values_written_as_repr(values):
    """Each value under its own key, so a mismatch names the value."""
    values = np.asarray(values, dtype=np.float64)
    ids = np.arange(len(values))
    got = written(ids, np.zeros_like(ids), values)
    want = dumped(ids, np.zeros_like(ids), values)
    if got != want:
        for got_member, want_member in zip(got.split(b", "),
                                           want.split(b", ")):
            assert got_member == want_member
    assert got == want


EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.225073858507201e-308,
    2.2250738585072014e-308, 2.2250738585072009e-308, 4.9406564584124654e-324,
    1e-05, 1e-04, 9.999999999999999e-05, 0.0001, 0.00010000000000000002,
    1e-5 * (1 + 2**-52), 1e16, 1e16 - 2, 9999999999999998.0, 1e15,
    123456789012345678.0, 2.0**53, 2.0**53 + 2, 2.0**63, 2.0**64,
    sys.float_info.max, -sys.float_info.max, sys.float_info.epsilon,
    1.0, -1.0, 0.5, 0.1, 0.2, 0.3, 1 / 3, 2 / 3, 1e22, 1e23, 2e23,
    5e-310, 1.5, 100.0, 1e21, 1.23e-18, 4.35, 0.6666666666666666,
    float("nan"), float("inf"), float("-inf"),
]


class TestFloatWriter:
    def test_edge_values(self):
        assert_values_written_as_repr(EDGE_VALUES)

    def test_every_binary_exponent(self):
        # Every biased exponent with the mantissas at its edges and a
        # spread between: every row of the power table is used.
        mantissas = [0, 1, 2, 3, 2**51, 2**52 - 1, 2**52 - 2,
                     0x5555555555555, 0xAAAAAAAAAAAAA, 12345678901234]
        patterns = np.array([(exponent << 52) | mantissa
                             for exponent in range(2047)
                             for mantissa in mantissas], dtype=np.uint64)
        assert_values_written_as_repr(patterns.view(np.float64))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    min_size=1, max_size=50))
    def test_any_double(self, values):
        assert_values_written_as_repr(values)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=50))
    def test_any_bit_pattern(self, patterns):
        assert_values_written_as_repr(
            np.array(patterns, dtype=np.uint64).view(np.float64))

    @pytest.mark.slow
    def test_a_million_random_bit_patterns(self):
        patterns = np.random.default_rng(2026).integers(
            0, 2**64, 1_000_000, dtype=np.uint64)
        assert_values_written_as_repr(patterns.view(np.float64))


class TestMemberOrder:
    def test_empty(self):
        assert written([], [], []) == b"{}"

    @settings(max_examples=200, deadline=None)
    @given(st.dictionaries(st.tuples(I64, I64), st.floats(0, 1),
                           max_size=60))
    def test_any_ids(self, members):
        lo, hi = zip(*members) if members else ((), ())
        values = list(members.values())
        assert written(lo, hi, values) == dumped(lo, hi, values)

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(0, 1200), st.integers(0, 1200)).filter(
            lambda pair: pair[0] < pair[1]),
        st.floats(0, 1), max_size=200))
    def test_object_ids(self, members):
        # The byte order of "i,j" is not the numeric order: "1,5" sorts
        # before "10,2" and "1,10" before "1,5".
        lo, hi = zip(*sorted(members)) if members else ((), ())
        values = [members[pair] for pair in zip(lo, hi)]
        assert written(lo, hi, values) == dumped(lo, hi, values)

    def test_bad_buffer_is_refused(self):
        with pytest.raises(InferenceError, match="native kernel buffer"):
            native.direct_preferences_json(
                np.arange(3), np.arange(3, dtype=np.int32), np.zeros(3))
        with pytest.raises(InferenceError, match="native kernel buffer"):
            native.direct_preferences_json(
                np.arange(3), np.arange(3), np.zeros(4))


def votes(n, seed):
    rng = np.random.default_rng(seed)
    n_votes = 6 * n
    winners = rng.integers(0, n, n_votes)
    losers = (winners + rng.integers(1, n, n_votes)) % n
    return VoteSet.from_columns(n, rng.integers(0, 7, n_votes), winners,
                                losers)


class TestResultEncoder:
    @pytest.mark.parametrize("engine", ["crh_saps", "hodge", "lsq"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_engine_results(self, engine, seed):
        config = PipelineConfig(engine=engine, saps=SAPSConfig(
            iterations=200, restarts=1, scale_with_objects=False))
        result = RankingPipeline(config).run(votes(14, seed), rng=seed)
        assert len(result.direct_preferences) > 10
        assert EncodedResult(result).result_json == json.dumps(
            result_to_payload(result), sort_keys=True).encode("utf-8")

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(0, 30), st.integers(0, 30)).filter(
            lambda pair: pair[0] < pair[1]),
        st.floats(allow_nan=True, allow_infinity=True), max_size=40),
        st.dictionaries(st.integers(0, 20), st.floats(0, 1), max_size=5))
    def test_any_result(self, preferences, quality):
        result = InferenceResult(
            ranking=Ranking([1, 0]), log_preference=-0.25,
            worker_quality=quality, direct_preferences=preferences,
            step_seconds={"search": 0.5}, metadata={"engine": "x"})
        assert EncodedResult(result).result_json == json.dumps(
            result_to_payload(result), sort_keys=True).encode("utf-8")
