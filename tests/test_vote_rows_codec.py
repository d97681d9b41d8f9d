"""The request codec's lifted vote rows against the plain JSON decoder.

:func:`repro.service.jobs.decode_job_json` lets the native library lift
every ``"votes"`` array of ``[worker, winner, loser]`` rows out of a
body before ``json.loads`` reads the rest.  The contract checked here:
for every ``/v1/rank`` and ``/v1/batch`` body, :func:`prepare_request`
returns exactly the jobs and cache keys, or raises exactly the
``_HttpError`` status and text, that it gives with
:func:`repro.io.decode_json` (``json.loads`` plus the list walk), and
the scanner never reads or writes outside its buffers.  The
``TestScanner`` class also runs under AddressSanitizer
(``tests/test_native_sanitizers.py``).
"""

import json
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import DataFormatError
from repro.inference import native
from repro.io import decode_json
from repro.server import app as app_module
from repro.server.app import (
    CodecTask,
    PreparedRequest,
    ServerConfig,
    _HttpError,
    prepare_request,
)
from repro.service.jobs import (
    VoteRows,
    decode_job_json,
    iter_jobs_jsonl,
    job_from_payload,
)

CONFIG = ServerConfig(max_batch_jobs=4)

I64_MAX = 2**63 - 1


def answer(route, body):
    """``prepare_request``'s outcome: the prepared request, or the
    ``(status, message)`` of the ``_HttpError`` it raised."""
    try:
        return prepare_request(CodecTask(route, body, CONFIG, 1, True))
    except _HttpError as error:
        return error.status, error.message


def reference(route, body):
    """:func:`answer` with the plain decoder the lifted one replaces."""
    with mock.patch.object(app_module, "decode_job_json", decode_json):
        return answer(route, body)


def decoded(decode, text):
    """``repr`` of ``decode(text)``, or its error text."""
    try:
        return repr(decode(text, "body"))
    except DataFormatError as error:
        return f"error: {error}"


def assert_same(body: bytes) -> None:
    """Both routes, and both decoders on bytes and on text, agree."""
    assert answer("rank", body) == reference("rank", body)
    batch = b'{"jobs": [' + body + b"]}"
    assert answer("batch", batch) == reference("batch", batch)
    assert decoded(decode_job_json, body) == decoded(decode_json, body)
    try:
        text = body.decode("utf-8")
    except UnicodeDecodeError:
        return
    assert decoded(decode_job_json, text) == decoded(decode_json, text)


def job(rows: str = "[[0, 1, 2], [1, 2, 3], [2, 3, 0]]",
        **members: str) -> bytes:
    """A job body: ``members`` (raw JSON text) after a ``seed`` of 1
    and a 4-object ``votes`` member whose rows are ``rows`` (none when
    ``None``)."""
    fields = {"seed": "1", "votes": None if rows is None
              else f'{{"n_objects": 4, "votes": {rows}}}', **members}
    return ("{" + ", ".join(f'"{key}": {value}' for key, value
                            in fields.items() if value is not None)
            + "}").encode("utf-8")


#: Hand-written hostile and edge-case job bodies.  Each is sent as a
#: ``/v1/rank`` body and as the one job of a ``/v1/batch`` body.
EXAMPLES = {
    "plain": job(),
    "whitespace-everywhere": (
        b'\r\n{ "seed" :\t1 ,"votes":{\n"n_objects" : 4 ,\t"votes"\n:\r'
        b'[ [ 0 ,1, 2 ]\n,[1,2 , 3 ] ] } }\n'),
    "no-whitespace": b'{"seed":1,"votes":{"n_objects":4,"votes":[[0,1,2]]}}',
    "key-order": (b'{"votes": {"votes": [[0, 1, 2]], "n_objects": 4}, '
                  b'"seed": 1, "job_id": "k"}'),
    "duplicate-rows-key": job("[[0, 1, 2]], \"votes\": [[3, 2, 1]]"),
    "duplicate-rows-key-second-not-liftable":
        job("[[0, 1, 2]], \"votes\": [[0, 1.5, 2]]"),
    "duplicate-rows-key-first-not-liftable":
        job("[[0, 1.5, 2]], \"votes\": [[0, 1, 2]]"),
    "duplicate-votes-member-first-wins-nothing": (
        b'{"seed": 1, "votes": {"n_objects": 4, "votes": [[0, 1, 9]]}, '
        b'"votes": {"n_objects": 4, "votes": [[0, 1, 2]]}}'),
    "duplicate-votes-member-last-wins": (
        b'{"seed": 1, "votes": {"n_objects": 4, "votes": [[0, 1, 2]]}, '
        b'"votes": {"n_objects": 3, "votes": [[5, 2, 1]]}}'),
    "escaped-rows-key": job().replace(b'"votes": [[', b'"vot\\u0065s": [['),
    "escaped-votes-member": job().replace(b'"votes": {', b'"\\u0076otes": {'),
    "nan-seed": job(seed="NaN"),
    "infinity-in-row": job("[[0, 1, Infinity]]"),
    "minus-infinity-timeout": job(timeout="-Infinity"),
    "nan-inside-a-string": job(job_id='"NaN Infinity"'),
    "float-id": job("[[0, 1.0, 2]]"),
    "exponent-id": job("[[0, 1e0, 2]]"),
    "true-id": job("[[0, true, 2]]"),
    "false-worker": job("[[false, 1, 2]]"),
    "null-id": job("[[0, null, 2]]"),
    "string-id": job('[[0, "1", 2]]'),
    "worker-2**63": job(f"[[{2**63}, 1, 2]]"),
    "worker-int64-max": job(f"[[{I64_MAX}, 1, 2]]"),
    "worker-int64-min": job(f"[[{-2**63}, 1, 2]]"),
    "worker-below-int64": job(f"[[{-2**63 - 1}, 1, 2]]"),
    "worker-10**30": job(f"[[{10**30}, 1, 2]]"),
    "leading-zero": job("[[02, 1, 2]]"),
    "minus-zero": job("[[-0, 1, 2]]"),
    "bare-minus": job("[[-, 1, 2]]"),
    "trailing-comma-rows": job("[[0, 1, 2],]"),
    "trailing-comma-row": job("[[0, 1, 2,]]"),
    "trailing-comma-object": job()[:-1] + b", }",
    "invalid-utf8-in-string": job(job_id='"j\xff"').replace(
        b"\xc3\xbf", b"\xff"),
    "invalid-utf8-outside-strings": job() + b"\xff",
    "utf8-bom": b"\xef\xbb\xbf" + job(),
    "votes-in-config": job(config='{"votes": [[0, 1, 2]]}'),
    "votes-in-config-search": job(config='{"search": {"votes": [[0, 1, 2]]}}'),
    "votes-in-config-saps": job(config='{"saps": {"votes": [[0, 1, 2]]}}'),
    "votes-in-scenario": job(None, scenario='{"votes": [[0, 1, 2]]}'),
    "votes-text-in-scenario-string":
        job(None, scenario='"\\"votes\\": [[0, 1, 2]]"'),
    "votes-text-in-job-id": job(job_id='"x\\", \\"votes\\": [[0, 1, 2]]"'),
    "votes-in-seed": job(seed='{"votes": [[0, 1, 2]]}'),
    "votes-in-schema": job(schema='{"votes": [[0, 1, 2]]}'),
    "votes-in-timeout": job(timeout='{"votes": [[0, 1, 2]]}'),
    "votes-member-is-rows": job(None, votes="[[0, 1, 2]]"),
    "rows-as-string": job('"0,1,2"'),
    "rows-as-object": job('{"votes": [[0, 1, 2]]}'),
    "short-row": job("[[0, 1]]"),
    "long-row": job("[[0, 1, 2, 3]]"),
    "empty-rows": job("[]"),
    "empty-rows-whitespace": job("[ \n ]"),
    "nested-row": job("[[[0, 1, 2]]]"),
    "self-comparison": job("[[0, 1, 2], [7, 3, 3]]"),
    "object-outside-n": job("[[0, 1, 4]]"),
    "n-objects-2**63": job().replace(b'"n_objects": 4',
                                     f'"n_objects": {2**63}'.encode()),
    "n-objects-true": job().replace(b'"n_objects": 4', b'"n_objects": true'),
    "truncated-in-rows": job()[:40],
    "truncated-after-key": job()[:job().rindex(b":") + 1],
    "unterminated-string": b'{"seed": 1, "job_id": "abc',
    "escaped-backslash-before-key": job(job_id='"a\\\\"'),
    "digits-past-int-limit": job(f"[[{'7' * 5000}, 1, 2]]"),
    "deep-nesting-in-rows": job("[" * 100_000 + "]" * 100_000),
    "not-an-object": b"[[0, 1, 2]]",
    "rows-key-with-space-in-key": job().replace(b'"votes": [[', b'"votes ": [['),
    "rows-with-formfeed": job("[[0,\f1, 2]]"),
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_examples_match_the_plain_decoder(name):
    assert_same(EXAMPLES[name])


def test_examples_cover_both_outcomes():
    outcomes = [answer("rank", body) for body in EXAMPLES.values()]
    statuses = {200 if isinstance(outcome, PreparedRequest) else outcome[0]
                for outcome in outcomes}
    assert statuses == {200, 400}
    lifted = decode_job_json(EXAMPLES["duplicate-rows-key"], "body")
    assert type(lifted["votes"]["votes"]) is VoteRows
    assert lifted["votes"]["votes"].tolist() == [[3, 2, 1]]


# ---------------------------------------------------------------------------
# Generated bodies
# ---------------------------------------------------------------------------

WHITESPACE = st.sampled_from(["", "", " ", "\n", "\t", " \r\n "])

ODD_ID = st.sampled_from([
    "-1", "4", "-0", "02", "1.0", "1e2", "-1E-2", "true", "false", "null",
    '"3"', str(2**63), str(I64_MAX), str(-2**63), str(-2**63 - 1),
    "9" * 25, "NaN", "Infinity", "-Infinity", "-", "[]", "{}",
])


def bracketed(draw, parts, valid=False):
    """``parts`` as a JSON array with drawn whitespace and, unless
    ``valid``, rarely a trailing comma."""
    space = lambda: draw(WHITESPACE)  # noqa: E731
    inner = ",".join(space() + part + space() for part in parts)
    trailing = "," if not valid and draw(st.integers(0, 63)) == 0 else ""
    return "[" + (inner or space()) + trailing + "]"


@st.composite
def array(draw, items, min_size=0, max_size=4):
    return bracketed(draw, draw(st.lists(items, min_size=min_size,
                                         max_size=max_size)))


@st.composite
def good_row(draw, valid=False):
    """A valid row for 4 objects (ids sometimes spelled ``-0``)."""
    winner, loser = draw(st.permutations(range(4)))[:2]
    ids = [str(draw(st.integers(0, 9))), str(winner), str(loser)]
    if draw(st.integers(0, 7)) == 0 and "0" in ids:
        ids[ids.index("0")] = "-0"
    return bracketed(draw, ids, valid)


ROW = st.one_of(
    *[good_row()] * 7,
    array(st.one_of(st.integers(0, 3).map(str), ODD_ID),
          min_size=2, max_size=4),
)
ROWS = st.one_of(array(ROW), array(ROW), array(ROW),
                 st.sampled_from(['"0,1,2"', "{}"]))

VOTES_KEY = st.sampled_from(['"votes"'] * 6 + ['"vot\\u0065s"',
                                                '"\\u0076otes"'])


@st.composite
def obj(draw, members):
    """An object of ``(key, value)`` text pairs in a drawn order."""
    members = draw(st.permutations(members))
    space = lambda: draw(WHITESPACE)  # noqa: E731
    return "{" + ",".join(f"{space()}{key}{space()}:{space()}{value}"
                          f"{space()}" for key, value in members) + "}"


def holder(rows):
    """A value that quotes a ``votes`` member somewhere it is not read."""
    return st.sampled_from([
        '{"votes": %s}', '{"search": {"votes": %s}}',
        '{"saps": {"votes": %s}}', '{"truth": {"alpha": {"votes": %s}}}',
    ]).map(lambda template: template % rows)


@st.composite
def votes_member(draw):
    rows = [(draw(VOTES_KEY), draw(ROWS))
            for _ in range(draw(st.integers(1, 2)))]
    n_objects = draw(st.sampled_from(["4"] * 6 + ["true", str(2**63)]))
    members = [('"n_objects"', n_objects), *rows]
    if draw(st.integers(0, 7)):
        return draw(obj(members))
    return draw(ROWS)


#: Optional job members: (value text, chance in 8 of being present);
#: the first value of each list is valid and the most likely.
OPTIONAL_MEMBERS = {
    '"schema"': (['"repro.job/1"'] * 6 + ['"other"', "1"], 4),
    '"job_id"': (['"j"'] * 4 + ['""', '"\\"votes\\": [[0,1,2]]"', '"NaN"',
                                "7"], 4),
    '"seed"': (["1"] * 6 + ["-1", "true", "null", "1.5", "NaN"], 7),
    '"config"': (['{"search": "saps"}', "null", "{}",
                  '{"saps": {"iterations": 10}}'], 4),
    '"scenario"': (['{"n_objects": 5, "selection_ratio": 0.5, '
                    '"n_workers": 4, "workers_per_task": 2}', '"votes"'], 1),
    '"timeout"': (["1"] * 4 + ["-1", "Infinity", "null"], 3),
}


@st.composite
def job_text(draw):
    members = [(key, draw(st.sampled_from(values)))
               for key, (values, chance) in OPTIONAL_MEMBERS.items()
               if draw(st.integers(0, 7)) < chance]
    if draw(st.integers(0, 7)):
        members.append((draw(VOTES_KEY), draw(votes_member())))
    if draw(st.integers(0, 7)) == 0:  # a second votes member
        members.append(('"votes"', draw(votes_member())))
    if draw(st.integers(0, 7)) == 0:  # rows quoted where they are not read
        key = draw(st.sampled_from(['"seed"', '"schema"', '"config"',
                                    '"timeout"', '"scenario"']))
        members.append((key, draw(holder(draw(ROWS)))))
    return draw(obj(members))


@st.composite
def request(draw):
    """A ``(route, body)`` pair, sometimes truncated or with a byte
    that is not UTF-8."""
    if draw(st.booleans()):
        route, text = "rank", draw(job_text())
    else:
        jobs = draw(array(job_text(), min_size=1, max_size=3))
        route = "batch"
        text = jobs if draw(st.integers(0, 3)) == 0 else draw(obj(
            [('"jobs"', jobs)]
            + draw(st.sampled_from([[], [('"timeout"', "5")],
                                    [('"votes"', "[[0, 1, 2]]")]]))))
    body = text.encode("utf-8")
    damage = draw(st.integers(0, 15))
    if damage == 0:
        body = body[:draw(st.integers(0, len(body)))]
    elif damage == 1:
        at = draw(st.integers(0, len(body)))
        body = body[:at] + b"\xff" + body[at:]
    return route, body


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(request())
def test_generated_bodies_match_the_plain_decoder(case):
    route, body = case
    assert answer(route, body) == reference(route, body)
    assert decoded(decode_job_json, body) == decoded(decode_json, body)


@st.composite
def valid_job(draw):
    """A job body that decodes: valid members and rows in any order and
    spacing, rows keys repeated or escaped, rows quoted in a member no
    decoder reads."""
    space = lambda: draw(WHITESPACE)  # noqa: E731
    rows = [(draw(VOTES_KEY), bracketed(draw, draw(st.lists(
        good_row(valid=True), max_size=6)), valid=True))
        for _ in range(draw(st.integers(1, 2)))]
    votes = draw(obj([('"n_objects"', "4"), *rows]))
    members = [('"votes"', votes), ('"seed"', draw(st.sampled_from(
        ["1", "2", "null"])))]
    for key, value in (('"schema"', '"repro.job/1"'), ('"job_id"', '"j"'),
                       ('"config"', '{"search": "saps"}'),
                       ('"extra"', draw(holder(rows[0][1])))):
        if draw(st.booleans()):
            members.append((key, value))
    return space() + draw(obj(members)) + space()


@settings(max_examples=200, deadline=None)
@given(st.lists(valid_job(), min_size=1, max_size=3))
def test_valid_bodies_decode_to_the_same_jobs(jobs):
    """The same jobs and cache keys as the plain decoder, on both
    routes."""
    for route, body in [("rank", jobs[0]),
                        ("batch", '{"jobs": [' + ", ".join(jobs) + "]}")]:
        prepared = answer(route, body.encode("utf-8"))
        assert isinstance(prepared, PreparedRequest), prepared
        assert prepared == reference(route, body.encode("utf-8"))


def test_jsonl_jobs_match_the_plain_decoder():
    """``repro batch`` lines are text, which may hold lone surrogates."""
    lines = [EXAMPLES[name].decode("utf-8").replace(
        "{", '{"schema": "repro.job/1", "job_id": "j\ud800", ', 1)
        for name in ("plain", "whitespace-everywhere", "duplicate-rows-key",
                     "escaped-rows-key", "key-order")]
    expected = [job_from_payload(decode_json(line.strip(), "x"), "x")
                for line in lines]
    assert list(iter_jobs_jsonl(lines)) == expected


def test_an_8_mib_body_needs_about_twice_its_rows():
    """Peak extra memory of decoding an 8 MiB body into a job: the
    lifted int64 rows and the vote set's columns, not a Python object
    per vote."""
    rng = np.random.default_rng(0)
    count = 480_000
    rows = np.column_stack((rng.integers(0, 1000, count),
                            rng.integers(0, 500, count),
                            rng.integers(500, 1000, count)))
    body = json.dumps({"seed": 1, "votes": {
        "n_objects": 1000, "votes": rows.tolist()}}).encode("utf-8")
    assert 7 * 2**20 < len(body) <= CONFIG.max_body_bytes
    task = CodecTask("rank", body, CONFIG, 1, False)
    tracemalloc.start()
    try:
        (job_,), _, _, _ = prepare_request(task)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(job_.votes) == count
    assert peak <= 2.3 * rows.nbytes


# ---------------------------------------------------------------------------
# The scanner itself
# ---------------------------------------------------------------------------

def scan_exact(body: bytes):
    """``vote_rows_scan``'s two calls on a copy of ``body`` in a buffer
    of exactly ``len(body)`` bytes (a Python ``bytes`` ends in a NUL,
    which would hide a read one past the end from AddressSanitizer)."""
    scan = native.load().vote_rows_scan
    buffer = np.frombuffer(body, dtype=np.uint8).copy()
    address = buffer.ctypes.data if len(body) else None
    counts = np.zeros(2, dtype=np.int64)
    if scan(address, len(body), None, None, counts.ctypes.data) \
            != native.SCANNED or not counts[1]:
        return None
    rows = np.empty((int(counts[0]), 3), dtype=np.int64)
    spans = np.empty((int(counts[1]), 3), dtype=np.int64)
    assert scan(address, len(body), rows.ctypes.data, spans.ctypes.data,
                counts.ctypes.data) == native.SCANNED
    return rows, spans


def assert_lift_is_sound(body: bytes) -> None:
    """Every lifted span is a JSON array of ``[int, int, int]`` rows
    whose values are the rows returned, in order and inside the body."""
    lifted = scan_exact(body)
    by_bytes = native.vote_rows(body)
    if lifted is None:
        assert by_bytes is None
        return
    rows, spans = lifted
    assert np.array_equal(rows, by_bytes[0])
    assert np.array_equal(spans, by_bytes[1])
    first = end = 0
    for start, stop, count in spans.tolist():
        assert end <= start < stop <= len(body)
        assert body[start:start + 1] == b"[" and body[stop - 1:stop] == b"]"
        assert json.loads(body[start:stop]) == \
            rows[first:first + count].tolist()
        first, end = first + count, stop
    assert first == len(rows)


class TestScanner:
    def test_lifts_each_rows_value_in_document_order(self):
        body = (b'{"a": "\\"votes\\": [[9, 9, 9]]", "votes": [[1, 2, 3]], '
                b'"b": {"votes" : [ [-4,5 ,6],[7,8,9] ] }, "votes": [1]}')
        rows, spans = native.vote_rows(body)
        assert rows.tolist() == [[1, 2, 3], [-4, 5, 6], [7, 8, 9]]
        assert spans[:, 2].tolist() == [1, 2]
        assert_lift_is_sound(body)

    @pytest.mark.parametrize("body", [
        b'', b'{', b'"votes"', b'{"votes": [[1, 2, 3]], "x": NaN}',
        b'{"votes": [[1, 2, 3]], "x": Infinity}', b'{"x": [[1, 2, 3]]}',
        b'{"votes\\"": [[1, 2, 3]]}', b'{"votes": [[1, 2, 3]',
    ])
    def test_bodies_with_nothing_to_lift(self, body):
        assert native.vote_rows(body) is None
        assert scan_exact(body) is None

    def test_int64_bounds(self):
        body = f'{{"votes": [[{-2**63}, {I64_MAX}, 0]]}}'.encode()
        rows, _ = native.vote_rows(body)
        assert rows.tolist() == [[-2**63, I64_MAX, 0]]
        for value in (2**63, -2**63 - 1, 10**19, 10**30):
            assert native.vote_rows(
                f'{{"votes": [[{value}, 1, 0]]}}'.encode()) is None

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from([
        b'"votes"', b'"votes":', b'[[1,2,3]', b'[', b']', b',', b' ', b':',
        b'"', b'\\', b'-', b'0', b'7', b'9' * 20, b'{', b'}', b'N', b'e',
        b'.', b'\n', b'"x"', b'[1, -2, 3]', b'\xff',
    ]), max_size=40).map(b"".join))
    def test_property_any_bytes(self, body):
        assert_lift_is_sound(body)

    def test_truncated_bodies(self):
        body = (b'{"job_id": "a\\"b", "votes": {"n_objects": 4, '
                b'"votes": [[0, 1, 2], [-1, 3, 0]]}, "votes": [[9, 8, 7]]}')
        for end in range(len(body) + 1):
            assert_lift_is_sound(body[:end])

    @pytest.mark.parametrize("body", [
        b'{"votes": [[' + b"1" * 100_000 + b', 0, 1]]}',
        b'{"votes": [[0, 1, ' + b"9" * 100_000,
        b'{"votes": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        b'{"votes": ' + b"[" * 100_000,
        b'{"votes": [' + b"[0, 1, 2], " * 100_000 + b"[0, 1, 2]]}",
    ])
    def test_long_runs(self, body):
        assert_lift_is_sound(body)
