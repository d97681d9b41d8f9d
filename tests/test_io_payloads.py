"""Round-trip tests for the :mod:`repro.io` payload codecs.

These codecs back both file persistence and the batch service's result
cache / JSONL streams, so the schema contract is tested here once.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import DataFormatError
from repro.io import (
    SCHEMA,
    load_result,
    result_from_payload,
    result_to_payload,
    save_result,
)
from repro.types import InferenceResult, PairValues, Ranking


@pytest.fixture
def result():
    return InferenceResult(
        ranking=Ranking([2, 0, 1]),
        log_preference=-1.25,
        worker_quality={0: 0.9, 3: 0.4},
        direct_preferences={(0, 1): 0.8, (1, 2): 0.3},
        step_seconds={"truth_discovery": 0.1, "search": 0.9},
        metadata={"search_algorithm": "saps", "truth_iterations": 7},
    )


class TestPayloadCodec:
    def test_round_trip_preserves_everything(self, result):
        clone = result_from_payload(result_to_payload(result))
        assert clone.ranking == result.ranking
        assert clone.log_preference == result.log_preference
        assert clone.worker_quality == result.worker_quality
        assert clone.direct_preferences == result.direct_preferences
        assert clone.step_seconds == result.step_seconds
        assert clone.metadata == result.metadata

    def test_payload_is_json_ready(self, result):
        json.dumps(result_to_payload(result))  # must not raise

    def test_payload_carries_schema_tag(self, result):
        assert result_to_payload(result)["schema"] == SCHEMA

    def test_schema_tag_enforced(self, result):
        payload = result_to_payload(result)
        del payload["schema"]
        with pytest.raises(DataFormatError):
            result_from_payload(payload)
        payload["schema"] = "repro.inference_result/999"
        with pytest.raises(DataFormatError):
            result_from_payload(payload)

    def test_non_dict_payload_rejected(self):
        with pytest.raises(DataFormatError):
            result_from_payload([1, 2, 3])

    def test_invalid_ranking_rejected(self, result):
        payload = result_to_payload(result)
        payload["ranking"] = [0, 0, 1]
        with pytest.raises(DataFormatError):
            result_from_payload(payload)

    def test_malformed_pair_key_rejected(self, result):
        payload = result_to_payload(result)
        payload["direct_preferences"] = {"0-1": 0.5}
        with pytest.raises(DataFormatError):
            result_from_payload(payload)

    @pytest.mark.parametrize("member", ["worker_quality",
                                        "direct_preferences",
                                        "step_seconds"])
    def test_member_that_is_not_an_object_is_malformed(self, result,
                                                       member):
        payload = result_to_payload(result)
        payload[member] = [1, 2]
        with pytest.raises(DataFormatError, match="malformed field"):
            result_from_payload(payload)

    def test_source_appears_in_error(self, result):
        with pytest.raises(DataFormatError, match="line 3"):
            result_from_payload({"schema": "nope"}, source="line 3")


class TestColumnarDirectPreferences:
    """``direct_preferences`` is written from its columns, member for
    member what encoding ``sorted(items())`` wrote."""

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(0, 2000), st.integers(0, 2000)).filter(
            lambda pair: pair[0] < pair[1]),
        st.floats(0, 1), max_size=40,
    ))
    def test_members_and_order_match_the_dict_encoder(self, preferences):
        result = InferenceResult(ranking=Ranking([0, 1]),
                                 log_preference=0.0,
                                 direct_preferences=preferences)
        member = result_to_payload(result)["direct_preferences"]
        expected = {f"{i},{j}": value
                    for (i, j), value in sorted(preferences.items())}
        assert list(member.items()) == list(expected.items())
        assert json.dumps(member) == json.dumps(expected)
        assert result.direct_preferences._dict is None

    def test_decodes_into_columns(self, result):
        clone = result_from_payload(json.loads(json.dumps(
            result_to_payload(result), sort_keys=True)))
        assert isinstance(clone.direct_preferences, PairValues)
        np.testing.assert_array_equal(clone.direct_preferences.lo, [0, 1])
        np.testing.assert_array_equal(clone.direct_preferences.hi, [1, 2])

    def test_pair_id_past_int64_is_malformed(self, result):
        payload = result_to_payload(result)
        payload["direct_preferences"] = {f"0,{2**64}": 0.5}
        with pytest.raises(DataFormatError):
            result_from_payload(payload)


class TestFileRoundTrip:
    def test_save_load(self, result, tmp_path):
        path = tmp_path / "result.json"
        save_result(result, path)
        assert load_result(path).ranking == result.ranking

    def test_missing_file_raises_data_format(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_result(tmp_path / "absent.json")

    def test_directory_raises_data_format(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_result(tmp_path)

    def test_corrupt_json_raises_data_format(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text("{truncated")
        with pytest.raises(DataFormatError):
            load_result(path)

    def test_oversized_integer_raises_data_format(self, tmp_path):
        # Python refuses to convert an integer literal longer than its
        # int-to-string digit limit (4,300 digits) with a plain
        # ValueError, not a JSONDecodeError.
        path = tmp_path / "huge.json"
        path.write_text('{"schema": "%s", "ranking": [%s]}'
                        % (SCHEMA, "1" * 5000))
        with pytest.raises(DataFormatError, match="invalid JSON"):
            load_result(path)

    def test_non_utf8_file_raises_data_format(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe\x00garbage")
        with pytest.raises(DataFormatError, match="invalid JSON"):
            load_result(path)
