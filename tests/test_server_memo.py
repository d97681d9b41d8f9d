"""The request memo of ``repro serve``: repeats answered without a decode.

A ``/v1/rank`` or ``/v1/batch`` body whose every job succeeded with a
cache key is remembered by the SHA-256 of its route and bytes.  A
byte-identical repeat is answered from the result cache on the request
thread while every key is still there, with the body a decoded cache
hit gets (``seconds`` and auto-assigned ``req-<n>`` ids aside).  Every
other body takes the decode path: other bytes for the same jobs, an
evicted key, an unseeded job, a server without a cache, and any body
that was refused or whose job failed.  All through a live server.
"""

from __future__ import annotations

import json
import re
import sys
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.server import RankingServer, ServerConfig

from tests.test_server_http import SCENARIO_REQUEST, VOTES_REQUEST
from tests.test_server_pool import _hostile_requests

pytestmark = pytest.mark.usefixtures("hang_guard")

_SECONDS = re.compile(rb'"seconds": [-+.0-9eE]+')
_AUTO_ID = re.compile(rb"req-[0-9]+")


def _post(url, body):
    """POST ``body`` (bytes, or JSON-encoded as a client would);
    returns (status, raw response bytes)."""
    if not isinstance(body, bytes):
        body = json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as error:
        return error.code, error.read()


def _timeless(raw):
    """A response body without its ``seconds`` values."""
    return _SECONDS.sub(b'"seconds": _', raw)


def _inferred(result):
    """A decoded result without its run's ``step_seconds``."""
    return {key: value for key, value in result.items()
            if key != "step_seconds"}


def _respelled(payload):
    return json.dumps(payload, indent=1, sort_keys=True).encode("utf-8")


def _decodes(server):
    return (server.metrics.counter("server.decode.pooled")
            + server.metrics.counter("server.decode.inline"))


def _memo_hits(server):
    return server.metrics.counter("server.request_memo.hits")


def _serve(**config):
    server = RankingServer(ServerConfig(port=0, workers=2, **config))
    server.start()
    return server


def _votes_job(seed, job_id=None, n_objects=5):
    votes = [[w, i, j] for w in range(3) for i in range(n_objects)
             for j in range(i + 1, n_objects) if (i + 2 * j + w + seed) % 3]
    job = {"seed": seed, "votes": {"n_objects": n_objects, "votes": votes},
           "config": {"saps": {"iterations": 500, "restarts": 1}}}
    if job_id is not None:
        job["job_id"] = job_id
    return job


class TestRankMemo:
    def test_repeat_skips_the_decode_with_the_cache_hit_body(self):
        server = _serve()
        try:
            url = server.url + "/v1/rank"
            status, cold = _post(url, VOTES_REQUEST)
            assert status == 200 and b'"from_cache": false' in cold
            assert (_decodes(server), _memo_hits(server)) == (1, 0)
            # Other bytes for the same job: decoded, a fingerprint hit.
            status, hit = _post(url, _respelled(VOTES_REQUEST))
            assert status == 200 and b'"from_cache": true' in hit
            assert (_decodes(server), _memo_hits(server)) == (2, 0)
            for repeat in range(1, 4):
                status, memo = _post(url, VOTES_REQUEST)
                assert status == 200
                assert _timeless(memo) == _timeless(hit)
                assert (_decodes(server), _memo_hits(server)) == (2, repeat)
            assert server.metrics.counter("cache.hits") == 4
            assert server.metrics.counter("jobs.succeeded") == 5
            assert server.metrics.timer("job.seconds").count == 5
            # One sample per request, memo-served or not.
            assert server.metrics.timer("batch.seconds").count == 5
            with urllib.request.urlopen(server.url + "/metrics") as response:
                text = response.read().decode("utf-8")
            assert "repro_server_request_memo_hits_total 3" in text
        finally:
            server.stop()

    def test_auto_named_job_gets_a_fresh_id_on_each_repeat(self):
        server = _serve()
        try:
            job = _votes_job(3)
            ids = []
            for _ in range(3):
                status, raw = _post(server.url + "/v1/rank", job)
                assert status == 200
                ids.append(json.loads(raw)["job_id"])
            assert ids == ["req-1", "req-2", "req-3"]
            assert (_decodes(server), _memo_hits(server)) == (1, 2)
        finally:
            server.stop()

    def test_no_cache_server_keeps_no_memo(self):
        server = _serve(no_cache=True)
        try:
            for _ in range(2):
                status, raw = _post(server.url + "/v1/rank", VOTES_REQUEST)
                assert status == 200 and b'"from_cache": false' in raw
            assert (_decodes(server), _memo_hits(server)) == (2, 0)
        finally:
            server.stop()

    def test_unseeded_job_is_never_memoised(self):
        server = _serve()
        try:
            job = dict(_votes_job(4, job_id="unseeded"), seed=None)
            for _ in range(2):
                status, raw = _post(server.url + "/v1/rank", job)
                assert status == 200 and b'"from_cache": false' in raw
            assert (_decodes(server), _memo_hits(server)) == (2, 0)
        finally:
            server.stop()

    def test_refused_or_failed_bodies_are_decoded_every_time(self):
        server = _serve(max_batch_jobs=2, backend="thread")
        try:
            requests = _hostile_requests() + [
                # Decodes, then fails: 422.
                ("/v1/rank", {"seed": 1,
                              "votes": {"n_objects": 4, "votes": []}}),
            ]
            for path, body in requests:
                first, again = (_post(server.url + path, body)
                                for _ in range(2))
                assert 400 <= first[0] < 500 and again[0] == first[0]
                # Equal bodies, but for the fresh req-<n> of a job that
                # names none and a failed job's seconds.
                assert _AUTO_ID.sub(b"req-_", _timeless(again[1])) == \
                    _AUTO_ID.sub(b"req-_", _timeless(first[1])), path
            assert _decodes(server) == 2 * len(requests)
            assert _memo_hits(server) == 0
        finally:
            server.stop()

    def test_evicted_entries_fall_through_and_recompute(self):
        server = _serve(cache_entries=1)
        try:
            bodies = [_votes_job(5, "a"), _votes_job(6, "b")]
            answers = {}
            for round_ in range(3):
                for body in bodies:
                    status, raw = _post(server.url + "/v1/rank", body)
                    assert status == 200
                    answer = json.loads(raw)
                    assert not answer["from_cache"]
                    result = _inferred(answer["result"])
                    assert answers.setdefault(body["job_id"], result) \
                        == result
            assert (_decodes(server), _memo_hits(server)) == (6, 0)
            assert server.metrics.counter("cache.misses") == 6
        finally:
            server.stop()


class TestBatchMemo:
    def test_all_hit_batch_is_memo_served_one_miss_is_not(self):
        # Two cache entries: the batch's two jobs fill the cache, and
        # the /v1/rank job evicts the batch's older one.
        server = _serve(cache_entries=2)
        batch_url, rank_url = server.url + "/v1/batch", server.url + "/v1/rank"
        batch = {"jobs": [_votes_job(7, "b0"), _votes_job(8)]}
        try:
            status, cold = _post(batch_url, batch)
            assert status == 200
            cold = json.loads(cold)["results"]
            assert [r["from_cache"] for r in cold] == [False, False]
            status, hit = _post(batch_url, _respelled(batch))
            assert status == 200 and _memo_hits(server) == 0
            status, memo = _post(batch_url, batch)
            assert status == 200 and _memo_hits(server) == 1
            assert _decodes(server) == 2
            hit, memo = json.loads(hit), json.loads(memo)
            for answer in (hit, memo):
                for result in answer["results"]:
                    assert result.pop("from_cache")
                    result.pop("seconds")
            # A batch reserves max_batch_jobs (256) ids: the cold
            # one req-1 to req-256, the next from req-257, ...
            assert [r.pop("job_id") for r in hit["results"]] \
                == ["b0", "req-258"]
            assert [r.pop("job_id") for r in memo["results"]] \
                == ["b0", "req-514"]
            assert hit["results"] == memo["results"]
            assert [r["result"] for r in hit["results"]] \
                == [r["result"] for r in cold]
            assert {key: memo[key] for key in memo if key != "metrics"} == \
                {key: hit[key] for key in hit if key != "metrics"}
            assert memo["metrics"]["counters"]["server.request_memo.hits"] \
                == 1
            # Evict job b0: the memo entry falls through, b0 recomputes.
            assert _post(rank_url, _votes_job(9, "r"))[0] == 200
            status, partial = _post(batch_url, batch)
            assert status == 200
            partial = json.loads(partial)["results"]
            assert [r["from_cache"] for r in partial] == [False, True]
            assert [_inferred(r["result"]) for r in partial] \
                == [_inferred(r["result"]) for r in cold]
            assert (_decodes(server), _memo_hits(server)) == (4, 1)
            # The fall-through itself counted and refreshed nothing: one
            # lookup per job and request, a miss for b0 and the r job.
            stats = server.cache.stats()
            assert (stats["hits"], stats["misses"]) == (5, 4)
        finally:
            server.stop()

    def test_batch_with_a_failed_job_is_never_memoised(self):
        server = _serve()
        batch = {"jobs": [SCENARIO_REQUEST, {
            "job_id": "empty", "seed": 1,
            "votes": {"n_objects": 4, "votes": []}}]}
        try:
            for _ in range(2):
                status, raw = _post(server.url + "/v1/batch", batch)
                assert status == 200
                assert json.loads(raw)["failed"] == 1
            assert (_decodes(server), _memo_hits(server)) == (2, 0)
        finally:
            server.stop()


def test_concurrent_repeats_lose_no_id_and_no_count():
    """Eight threads repeat one auto-named body, with thread switches
    every few bytecodes: every job keeps its own req-<n>, every answer
    the same ranking, and each request counts once, as a memo hit or a
    decode."""
    server = _serve(queue_depth=16)
    job = _votes_job(10)
    answers, errors = [], []

    def client():
        try:
            for _ in range(10):
                status, raw = _post(server.url + "/v1/rank", job)
                assert status == 200
                answers.append(json.loads(raw))
        except BaseException as error:  # noqa: BLE001 — re-raised below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
        server.stop()
    assert not errors, errors
    assert len(answers) == 80
    assert len({answer["job_id"] for answer in answers}) == 80
    assert len({json.dumps(_inferred(answer["result"]))
                for answer in answers}) == 1
    assert _decodes(server) + _memo_hits(server) == 80
    assert _memo_hits(server) >= 1
    assert server.metrics.counter("jobs.succeeded") == 80


@pytest.fixture(scope="module")
def memo_server():
    server = _serve()
    url = server.url + "/v1/rank"
    assert _post(url, VOTES_REQUEST)[0] == 200
    status, memo = _post(url, VOTES_REQUEST)
    assert status == 200 and _memo_hits(server) == 1
    # Bodies already answered: each is memoised under its own bytes.
    answered = {json.dumps(VOTES_REQUEST).encode("utf-8")}
    yield server, _timeless(memo), answered
    server.stop()


@st.composite
def _respellings(draw):
    """VOTES_REQUEST as other JSON text: vote rows shuffled, members in
    another order, other whitespace."""
    votes = draw(st.permutations(VOTES_REQUEST["votes"]["votes"]))
    members = dict(VOTES_REQUEST, votes={"n_objects": 5, "votes": votes})
    order = draw(st.permutations(sorted(members)))
    payload = {key: members[key] for key in order}
    indent = draw(st.sampled_from([None, 0, 2]))
    separators = draw(st.sampled_from([None, (",", ":"), (" ,", " : ")]))
    text = json.dumps(payload, indent=indent, separators=separators,
                      sort_keys=draw(st.booleans()))
    return text.encode("utf-8")


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(body=_respellings())
def test_respelled_job_hits_the_fingerprint_with_the_memo_bytes(
        memo_server, body):
    server, memo, answered = memo_server
    decodes, hits = _decodes(server), _memo_hits(server)
    status, raw = _post(server.url + "/v1/rank", body)
    assert status == 200
    assert _timeless(raw) == memo
    if body in answered:
        assert (_decodes(server), _memo_hits(server)) == (decodes, hits + 1)
    else:
        assert (_decodes(server), _memo_hits(server)) == (decodes + 1, hits)
        answered.add(body)
