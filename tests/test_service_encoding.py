"""The spliced job-result encoder is byte-identical to ``json.dumps``.

``encode_job_result`` answers cache hits by splicing a result's cached
encoding into the response instead of re-encoding it.  These properties
pin its output to the dict form's ``json.dumps(..., sort_keys=True)``
for single results, ``/v1/batch`` bodies and JSONL lines, over job ids
and extras built to confuse a splice, and check that the result is
encoded once and decoded only on demand.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.io
from repro.io import EncodedResult
from repro.server.app import encode_batch_report
from repro.service import (
    BatchExecutor,
    BatchReport,
    JobResult,
    JobStatus,
    RankingJob,
    ResultCache,
    dump_results_jsonl,
    encode_job_result,
    fingerprint_job,
    job_result_to_payload,
)
from repro.types import InferenceResult, Ranking

#: Text JSON must escape, or that reads like a member of the envelope.
TRICKY_TEXT = st.one_of(
    st.text(min_size=1, max_size=12),
    st.sampled_from([
        '"', "\\", "\n", "é☃", '", "result": {"x": 1}, "y": "',
        '"ranking": [0], ', "}{", "result", "ranking", "zzz",
    ]),
)

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**60, 2**60),
    st.floats(width=64), TRICKY_TEXT,
)


@st.composite
def inference_results(draw):
    n = draw(st.integers(2, 7))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return InferenceResult(
        ranking=Ranking(draw(st.permutations(range(n)))),
        log_preference=draw(st.one_of(st.just(float("-inf")),
                                      st.floats(width=64))),
        worker_quality=draw(st.dictionaries(
            st.integers(0, 10**6), st.floats(0, 1), max_size=4)),
        direct_preferences=draw(st.dictionaries(
            st.sampled_from(pairs), st.floats(0, 1), max_size=4)),
        step_seconds=draw(st.dictionaries(
            TRICKY_TEXT, st.floats(0, 100), max_size=3)),
        metadata=draw(st.dictionaries(
            TRICKY_TEXT, st.one_of(SCALARS, st.lists(st.integers())),
            max_size=4)),
    )


@st.composite
def outcomes(draw):
    status = draw(st.sampled_from(list(JobStatus)))
    result = None
    error = None
    if status is JobStatus.SUCCEEDED:
        result = draw(inference_results())
        if draw(st.booleans()):
            # As a cache hit hands it over: bytes only, decoded on demand.
            fresh = EncodedResult(result)
            result = EncodedResult(result_json=fresh.result_json,
                                   ranking_json=fresh.ranking_json)
    else:
        error = draw(TRICKY_TEXT)
    return JobResult(
        job_id=draw(TRICKY_TEXT),
        status=status,
        result=result,
        error=error,
        attempts=draw(st.integers(0, 5)),
        from_cache=draw(st.booleans()),
        seconds=draw(st.floats(0, 1e4)),
        extras=draw(st.dictionaries(
            TRICKY_TEXT, st.one_of(SCALARS, st.lists(st.integers())),
            max_size=3)),
    )


def _dumps(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


class TestByteIdentity:
    @settings(max_examples=200, deadline=None)
    @given(outcomes())
    def test_single_result(self, outcome):
        assert encode_job_result(outcome) == \
            _dumps(job_result_to_payload(outcome))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(outcomes(), max_size=4),
           st.dictionaries(TRICKY_TEXT, SCALARS, max_size=3))
    def test_batch_body(self, results, metrics):
        report = BatchReport(results=tuple(results), metrics=metrics)
        assert encode_batch_report(report) == _dumps({
            "results": [job_result_to_payload(r) for r in results],
            "succeeded": len(report.succeeded),
            "failed": len(report.failed),
            "timed_out": len(report.timed_out),
            "metrics": metrics,
        })

    @settings(max_examples=60, deadline=None)
    @given(st.lists(outcomes(), max_size=4))
    def test_jsonl_lines(self, results):
        assert dump_results_jsonl(results) == "".join(
            json.dumps(job_result_to_payload(r), sort_keys=True) + "\n"
            for r in results
        )


def _counting(monkeypatch, name):
    calls = []
    original = getattr(repro.io, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(repro.io, name, counted)
    return calls


class TestEncodeOnce:
    def test_cold_job_encodes_its_result_once(self, tiny_votes, tmp_path,
                                              monkeypatch):
        encodes = _counting(monkeypatch, "result_to_payload")
        cache = ResultCache(persist_dir=tmp_path)
        job = RankingJob(job_id="a", votes=tiny_votes, seed=3)
        (outcome,) = BatchExecutor(cache=cache).run([job]).results
        body = encode_job_result(outcome)
        assert len(encodes) == 1
        spilled = (tmp_path / f"{fingerprint_job(job)}.json").read_bytes()
        assert spilled == outcome.encoded.result_json + b"\n"
        assert json.loads(body)["result"] == json.loads(spilled)

    def test_process_attempt_arrives_encoded(self, tiny_votes, monkeypatch):
        encodes = _counting(monkeypatch, "result_to_payload")
        job = RankingJob(job_id="a", votes=tiny_votes, seed=3)
        (outcome,) = BatchExecutor(backend="process").run([job]).results
        encoded = outcome.encoded
        assert outcome.result.step_seconds  # the full result came along
        lazy = EncodedResult(outcome.result)
        assert (encoded.result_json, encoded.ranking_json) == \
            (lazy.result_json, lazy.ranking_json)
        assert encodes == ["result_to_payload"]  # only ``lazy``, here

    def test_hit_decodes_only_when_read(self, tiny_votes, monkeypatch):
        cache = ResultCache()
        executor = BatchExecutor(cache=cache)
        job = RankingJob(job_id="a", votes=tiny_votes, seed=3)
        (cold,) = executor.run([job]).results
        decodes = _counting(monkeypatch, "result_from_payload")
        (hit,) = executor.run([job]).results
        assert hit.from_cache
        assert encode_job_result(hit) == _dumps(job_result_to_payload(
            JobResult(hit.job_id, hit.status, result=cold.result,
                      from_cache=True, seconds=hit.seconds)))
        assert decodes == []
        assert hit.result.ranking == cold.result.ranking
        assert hit.result is hit.result
        assert len(decodes) == 1
