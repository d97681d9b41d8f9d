"""Unit tests for the batch-service job model and JSONL codecs."""

import json
import re

import numpy as np
import pytest

from repro.config import PipelineConfig, PropagationConfig, SAPSConfig
from repro.exceptions import ConfigurationError, DataFormatError
from repro.service import (
    JobResult,
    JobStatus,
    RankingJob,
    ScenarioSpec,
    dump_results_jsonl,
    iter_jobs_jsonl,
    job_from_payload,
    job_result_from_payload,
    job_result_to_payload,
    job_to_payload,
    load_jobs_jsonl,
)
from repro.service.jobs import config_from_payload, config_to_payload
from repro.types import InferenceResult, Ranking


class TestRankingJobValidation:
    def test_requires_exactly_one_work_source(self, tiny_votes):
        with pytest.raises(ConfigurationError):
            RankingJob(job_id="j")  # neither votes nor scenario
        with pytest.raises(ConfigurationError):
            RankingJob(job_id="j", votes=tiny_votes,
                       scenario=ScenarioSpec(5, 0.5))

    def test_requires_job_id(self, tiny_votes):
        with pytest.raises(ConfigurationError):
            RankingJob(job_id="", votes=tiny_votes)

    def test_scenario_spec_validates(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(1, 0.5)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(5, 0.0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(5, 0.5, quality="psychic")
        with pytest.raises(ConfigurationError):
            ScenarioSpec(5, 0.5, level="superb")


class TestConfigCodec:
    def test_round_trip_preserves_every_field(self):
        config = PipelineConfig(
            search="taps",
            truth_engine="em",
            saps=SAPSConfig(iterations=123, restarts=1),
            propagation=PropagationConfig(alpha=0.7, max_hops=4,
                                          method="walks"),
        )
        assert config_from_payload(config_to_payload(config)) == config

    def test_partial_payload_fills_defaults(self):
        config = config_from_payload({"search": "taps"})
        assert config.search == "taps"
        assert config.truth == PipelineConfig().truth

    def test_none_means_defaults(self):
        assert config_from_payload(None) == PipelineConfig()

    def test_unknown_field_raises(self):
        with pytest.raises(DataFormatError):
            config_from_payload({"exotic": 1})

    def test_invalid_value_raises_data_format(self):
        with pytest.raises(DataFormatError):
            config_from_payload({"search": "bogosort"})
        with pytest.raises(DataFormatError):
            config_from_payload({"saps": {"iterations": -1}})

    @pytest.mark.parametrize("payload", [
        {"vote_path": "object"},
        {"saps": {"kernel": "reference"}},
        {"saps": {"init": "degree"}},
        {"truth": {"criterion": "mean"}},
        {"sparse": {"solver": "lsqr"}},
        {"sparse": {"flow": "linear"}},
        {"sparse": {"logit_clip": 0.01}},
    ], ids=["vote_path", "saps.kernel", "saps.init", "truth.criterion",
            "sparse.solver", "sparse.flow", "sparse.logit_clip"])
    def test_retired_fields_are_unknown(self, payload):
        with pytest.raises(DataFormatError, match="unknown config field"):
            config_from_payload(payload)


#: (config payload, the field the error must name): JSON values whose
#: type does not fit the field's declared type.
MISTYPED_CONFIGS = {
    "float-int": ({"saps": {"iterations": 1.5}}, "config.saps.iterations"),
    "float-optional-int": ({"saps": {"restarts": 2.5}},
                           "config.saps.restarts"),
    "float-truth-int": ({"truth": {"max_iterations": 2.5}},
                        "config.truth.max_iterations"),
    "bool-int": ({"saps": {"iterations": True}}, "config.saps.iterations"),
    "float-hops": ({"propagation": {"max_hops": 3.5}},
                   "config.propagation.max_hops"),
    "string-int": ({"taps": {"max_objects": "9"}},
                   "config.taps.max_objects"),
    "null-int": ({"sparse": {"max_solver_iterations": None}},
                 "config.sparse.max_solver_iterations"),
    "bool-float": ({"smoothing": {"min_weight": False}},
                   "config.smoothing.min_weight"),
    "string-float": ({"truth": {"tolerance": "0.1"}},
                     "config.truth.tolerance"),
    "int-bool": ({"saps": {"polish": 1}}, "config.saps.polish"),
    "string-bool": ({"truth": {"strict": "yes"}}, "config.truth.strict"),
    "int-str": ({"propagation": {"method": 1}},
                "config.propagation.method"),
    "int-optional-str": ({"saps": {"backend": 0}}, "config.saps.backend"),
    "list-top-level-str": ({"search": ["saps"]}, "config.search"),
    "bool-top-level-str": ({"engine": True}, "config.engine"),
}


class TestConfigFieldTypes:
    @pytest.mark.parametrize("case", sorted(MISTYPED_CONFIGS))
    def test_mistyped_value_names_the_field(self, case):
        payload, field_name = MISTYPED_CONFIGS[case]
        with pytest.raises(DataFormatError, match=re.escape(field_name)):
            config_from_payload(payload)

    def test_fitting_values_decode(self):
        config = config_from_payload({
            "saps": {"iterations": 7, "restarts": None, "backend": None,
                     "temperature": 1, "polish": True},
            "propagation": {"max_hops": 3, "alpha": 0},
            "truth": {"tolerance": 0.01, "strict": False},
            "search": "saps",
        })
        assert config.saps.iterations == 7
        assert config.saps.restarts is None
        assert config.saps.temperature == 1
        assert config.propagation.max_hops == 3
        assert config.truth.strict is False

    def test_library_callers_keep_numpy_ints(self):
        """The dataclasses themselves stay permissive: only the JSON
        codec checks types."""
        config = SAPSConfig(iterations=np.int64(5), restarts=np.int64(1))
        assert config.iterations == 5


class TestJobCodec:
    def test_votes_job_round_trip(self, tiny_votes):
        job = RankingJob(job_id="j1", votes=tiny_votes, seed=7)
        clone = job_from_payload(job_to_payload(job))
        assert clone.job_id == "j1"
        assert clone.seed == 7
        assert clone.votes == tiny_votes
        assert clone.config == job.config

    def test_scenario_job_round_trip(self):
        job = RankingJob(job_id="sim", seed=3,
                         scenario=ScenarioSpec(12, 0.4, n_workers=9,
                                               workers_per_task=3,
                                               quality="uniform",
                                               level="low"))
        clone = job_from_payload(job_to_payload(job))
        assert clone.scenario == job.scenario

    def test_schema_tag_enforced(self):
        with pytest.raises(DataFormatError):
            job_from_payload({"job_id": "j"})
        with pytest.raises(DataFormatError):
            job_from_payload({"schema": "repro.job/999", "job_id": "j"})
        with pytest.raises(DataFormatError):
            job_from_payload([1, 2, 3])

    def test_malformed_votes_raise(self):
        with pytest.raises(DataFormatError):
            job_from_payload({"schema": "repro.job/1", "job_id": "j",
                              "votes": {"n_objects": 3,
                                        "votes": [[0, 1, 1]]}})

    def test_non_integer_seed_raises(self, tiny_votes):
        payload = job_to_payload(RankingJob(job_id="j", votes=tiny_votes))
        payload["seed"] = "soon"
        with pytest.raises(DataFormatError):
            job_from_payload(payload)


#: Vote rows a client may send that must never reach inference.  Each
#: maps to the words the 400's error message carries.
HOSTILE_VOTE_ROWS = {
    "negative-object-id": ([[0, -1, 2]], "outside [0, 4)"),
    "object-id-past-n": ([[0, 1, 4]], "outside [0, 4)"),
    "float-id": ([[0, 0.7, 1]], "integers"),
    "string-id": ([[0, "3", 1]], "integers"),
    "worker-above-int64": ([[2**63, 0, 1]], "integers"),
    "worker-far-above-int64": ([[2**70, 0, 1]], "integers"),
    "self-comparison": ([[0, 2, 2]], "with itself"),
    "short-row": ([[0, 1]], "rows"),
    "ragged-rows": ([[0, 1, 2], [0, 1]], "malformed votes"),
    "not-a-list": ("0,1,2", "integers"),
    "bool-object-id": ([[0, True, 2]], "integers"),
    "bool-worker-id": ([[False, 0, 1]], "integers"),
    "all-bool-row": ([[True, False, True]], "integers"),
    "object-row": ([{"worker": 0, "winner": 1, "loser": 2}], "rows"),
}


def _votes_payload(rows, n_objects=4):
    return {"schema": "repro.job/1", "job_id": "hostile", "seed": 1,
            "votes": {"n_objects": n_objects, "votes": rows}}


class TestHostileVotes:
    @pytest.mark.parametrize("case", sorted(HOSTILE_VOTE_ROWS))
    def test_rejected_at_the_job_boundary(self, case):
        rows, words = HOSTILE_VOTE_ROWS[case]
        with pytest.raises(DataFormatError, match=re.escape(words)):
            job_from_payload(_votes_payload(rows))

    def test_n_objects_beyond_int64_rejected(self):
        for n_objects in (2**63, 10**30):
            with pytest.raises(DataFormatError, match="within int64"):
                job_from_payload(_votes_payload([[0, 0, 1]], n_objects))
        job = job_from_payload(_votes_payload([[0, 0, 1]], 2**63 - 1))
        assert job.votes.n_objects == 2**63 - 1

    def test_non_integer_n_objects_rejected(self):
        for n_objects in ("4", 4.0, None, True):
            with pytest.raises(DataFormatError, match="n_objects"):
                job_from_payload(_votes_payload([[0, 0, 1]], n_objects))

    def test_zero_votes_decode_to_an_empty_set(self):
        job = job_from_payload(_votes_payload([]))
        assert len(job.votes) == 0
        assert job.votes.n_objects == 4

    def test_booleans_are_not_read_as_ids(self):
        # np.array([[0, True, 2], [1, 0, 1]]) is a valid int64 array,
        # so a bool in any row must be caught before the conversion.
        rows = [[0, 0, 1]] * 50 + [[1, True, 0]] + [[2, 1, 0]] * 50
        with pytest.raises(DataFormatError, match="integers"):
            job_from_payload(_votes_payload(rows))

    def test_valid_rows_decode_to_int64_columns(self):
        job = job_from_payload(_votes_payload([[9, 0, 3], [2**40, 3, 1]]))
        assert job.votes.worker.tolist() == [9, 2**40]
        assert job.votes.winner.tolist() == [0, 3]
        assert job.votes.loser.tolist() == [3, 1]
        assert job.votes.worker.dtype == np.int64


class TestJsonlStreams:
    def test_blank_and_comment_lines_skipped(self, tiny_votes):
        line = json.dumps(job_to_payload(
            RankingJob(job_id="a", votes=tiny_votes, seed=1)))
        jobs = list(iter_jobs_jsonl(["", "# jobs below", line, "   "]))
        assert [job.job_id for job in jobs] == ["a"]

    def test_error_carries_line_number(self):
        with pytest.raises(DataFormatError, match=":2:"):
            list(iter_jobs_jsonl(["", "{not json"], source=""))

    def test_load_jobs_file_round_trip(self, tmp_path, tiny_votes):
        path = tmp_path / "jobs.jsonl"
        payloads = [
            job_to_payload(RankingJob(job_id=f"j{i}", votes=tiny_votes,
                                      seed=i))
            for i in range(3)
        ]
        path.write_text("".join(json.dumps(p) + "\n" for p in payloads))
        jobs = load_jobs_jsonl(path)
        assert [job.job_id for job in jobs] == ["j0", "j1", "j2"]

    def test_load_missing_file_raises_data_format(self, tmp_path):
        with pytest.raises(DataFormatError):
            load_jobs_jsonl(tmp_path / "nope.jsonl")

    def test_dump_results_jsonl(self):
        result = InferenceResult(ranking=Ranking([1, 0]),
                                 log_preference=-0.5)
        ok = JobResult(job_id="a", status=JobStatus.SUCCEEDED,
                       result=result, attempts=1, seconds=0.1,
                       extras={"accuracy": 1.0})
        bad = JobResult(job_id="b", status=JobStatus.FAILED,
                        error="InferenceError: boom", attempts=2,
                        seconds=0.2)
        lines = dump_results_jsonl([ok, bad]).splitlines()
        first, second = (json.loads(line) for line in lines)
        assert first["schema"] == "repro.job_result/1"
        assert first["ranking"] == [1, 0]
        assert first["extras"] == {"accuracy": 1.0}
        assert first["result"]["schema"] == "repro.inference_result/1"
        assert second["status"] == "failed"
        assert "ranking" not in second
        assert second["error"].startswith("InferenceError")


class TestJobResultRoundTrip:
    def test_succeeded_result_round_trips(self):
        result = InferenceResult(ranking=Ranking([1, 0]),
                                 log_preference=-0.5,
                                 step_seconds={"search": 0.25})
        original = JobResult(job_id="a", status=JobStatus.SUCCEEDED,
                             result=result, attempts=2, from_cache=False,
                             seconds=0.125, extras={"accuracy": 0.9})
        decoded = job_result_from_payload(job_result_to_payload(original))
        assert decoded.job_id == "a"
        assert decoded.status is JobStatus.SUCCEEDED
        assert decoded.result.ranking == result.ranking
        assert decoded.result.step_seconds == {"search": 0.25}
        assert decoded.attempts == 2
        assert decoded.seconds == pytest.approx(0.125)
        assert decoded.extras == {"accuracy": 0.9}

    def test_failed_result_round_trips(self):
        original = JobResult(job_id="b", status=JobStatus.FAILED,
                             error="InferenceError: boom", attempts=3)
        decoded = job_result_from_payload(job_result_to_payload(original))
        assert decoded.status is JobStatus.FAILED
        assert decoded.result is None
        assert decoded.error == "InferenceError: boom"

    def test_wrong_schema_rejected(self):
        with pytest.raises(DataFormatError):
            job_result_from_payload({"schema": "repro.job/1", "job_id": "a",
                                     "status": "succeeded"})

    def test_unknown_status_rejected(self):
        with pytest.raises(DataFormatError):
            job_result_from_payload({"schema": "repro.job_result/1",
                                     "job_id": "a", "status": "exploded"})

    def test_missing_job_id_rejected(self):
        with pytest.raises(DataFormatError):
            job_result_from_payload({"schema": "repro.job_result/1",
                                     "status": "succeeded"})
