"""Job and result models for the batch ranking service.

A :class:`RankingJob` is one self-contained unit of aggregation work:
either an explicit :class:`~repro.types.VoteSet` (real crowd data) or a
:class:`ScenarioSpec` describing a fully simulated run (the Sec. VI
setting), plus the :class:`~repro.config.PipelineConfig` to infer with
and an optional seed.  Jobs and their outcomes travel as versioned
JSONL — one JSON object per line, schema-tagged exactly like
:mod:`repro.io` — so batches can be produced, queued and consumed by
independent tools.

.. code-block:: json

    {"schema": "repro.job/1", "job_id": "hit-batch-7", "seed": 7,
     "votes": {"n_objects": 4, "votes": [[0, 0, 1], [1, 2, 3]]},
     "config": {"search": "saps", "propagation": {"alpha": 0.6}}}

    {"schema": "repro.job/1", "job_id": "sim-a", "seed": 3,
     "scenario": {"n_objects": 20, "selection_ratio": 0.5,
                  "n_workers": 15, "workers_per_task": 5}}
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import itertools
import json
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Union

import numpy as np

from ..config import (
    PipelineConfig,
    PropagationConfig,
    SAPSConfig,
    SmoothingConfig,
    SparseEngineConfig,
    TAPSConfig,
    TruthDiscoveryConfig,
)
from ..exceptions import ConfigurationError, DataFormatError
from ..inference import native
from ..io import (
    EncodedResult,
    decode_json,
    json_scalars,
    result_from_payload,
    result_to_payload,
    splice_json,
)
from ..types import INT64_MAX, InferenceResult, VoteSet

#: Schema tag for one job line.
JOB_SCHEMA = "repro.job/1"

#: Schema tag for one result line.
JOB_RESULT_SCHEMA = "repro.job_result/1"

#: Schema tag for the trailing metrics record of a batch stream.
BATCH_METRICS_SCHEMA = "repro.batch_metrics/1"


class JobStatus(str, enum.Enum):
    """Terminal state of one job's execution."""

    SUCCEEDED = "succeeded"
    FAILED = "failed"
    TIMED_OUT = "timed_out"


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully simulated experiment arm, by knobs rather than votes.

    Mirrors :func:`repro.datasets.make_scenario`; resolution to a
    concrete scenario (ground truth + worker pool + collected votes)
    happens inside the executor, deterministically from the job's seed.
    """

    n_objects: int
    selection_ratio: float
    n_workers: int = 50
    workers_per_task: int = 5
    quality: str = "gaussian"
    level: str = "medium"

    def __post_init__(self) -> None:
        if self.n_objects < 2:
            raise ConfigurationError(
                f"scenario needs at least 2 objects, got {self.n_objects}"
            )
        if not 0 < self.selection_ratio <= 1:
            raise ConfigurationError(
                f"selection_ratio must be in (0, 1], got {self.selection_ratio}"
            )
        if self.quality not in ("gaussian", "uniform"):
            raise ConfigurationError(
                f"quality must be 'gaussian' or 'uniform', got {self.quality!r}"
            )
        if self.level not in ("high", "medium", "low"):
            raise ConfigurationError(
                f"level must be 'high', 'medium' or 'low', got {self.level!r}"
            )


@dataclass(frozen=True)
class RankingJob:
    """One unit of work for the batch service.

    Exactly one of ``votes`` (aggregate these votes) or ``scenario``
    (simulate, then aggregate) must be provided.  ``seed`` pins every
    stochastic component of the job, making re-execution — and therefore
    result caching — deterministic.
    """

    job_id: str
    votes: Optional[VoteSet] = None
    scenario: Optional[ScenarioSpec] = None
    config: PipelineConfig = field(default_factory=PipelineConfig)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ConfigurationError("job_id must be a non-empty string")
        if (self.votes is None) == (self.scenario is None):
            raise ConfigurationError(
                f"job {self.job_id!r}: exactly one of votes/scenario required"
            )


class _ResultField:
    """The descriptor behind :attr:`JobResult.result`.

    A result given to the constructor is kept as an
    :class:`~repro.io.EncodedResult`; reading the field returns its
    decoded side, which for a result built from cached bytes is decoded
    on that first read.
    """

    def __get__(self, outcome: Optional["JobResult"],
                owner: object = None) -> Optional[InferenceResult]:
        if outcome is None:
            return None  # the dataclass field's default
        encoded = outcome.encoded
        return None if encoded is None else encoded.result

    def __set__(self, outcome: "JobResult",
                result: Union[InferenceResult, EncodedResult, None]) -> None:
        if result is not None and not isinstance(result, EncodedResult):
            result = EncodedResult(result)
        outcome.__dict__["_encoded"] = result


@dataclass(frozen=True)
class JobResult:
    """Terminal outcome of one job, cache- and retry-aware.

    Attributes
    ----------
    job_id:
        The originating job's id.
    status:
        Terminal :class:`JobStatus`.
    result:
        The inference output when ``status`` is ``SUCCEEDED``.  The
        constructor also takes an :class:`~repro.io.EncodedResult` —
        what the executor passes on a cache hit — and then the result
        is decoded from its bytes on first access, so only callers that
        read it pay for the decode.
    error:
        ``"ExceptionType: message"`` when the job failed or timed out.
    attempts:
        Number of execution attempts made (0 for a pure cache hit).
    from_cache:
        True when the result was served from the cache.
    seconds:
        Wall-clock seconds spent on this job inside the service
        (including retries and backoff waits).
    extras:
        Job-kind specific additions — scenario jobs report the
        simulation's ``accuracy`` against its latent ground truth.
    """

    job_id: str
    status: JobStatus
    result: Optional[InferenceResult] = _ResultField()  # type: ignore[assignment]
    error: Optional[str] = None
    attempts: int = 0
    from_cache: bool = False
    seconds: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True iff the job produced a ranking."""
        return self.status is JobStatus.SUCCEEDED

    @property
    def encoded(self) -> Optional[EncodedResult]:
        """The result with its canonical JSON encoding (``None`` when
        the job produced no result); :func:`encode_job_result` splices
        it into the response without re-encoding."""
        return self.__dict__.get("_encoded")


# ---------------------------------------------------------------------------
# Config codec
# ---------------------------------------------------------------------------

_SUBCONFIGS = {
    "truth": TruthDiscoveryConfig,
    "smoothing": SmoothingConfig,
    "propagation": PropagationConfig,
    "saps": SAPSConfig,
    "taps": TAPSConfig,
    "sparse": SparseEngineConfig,
}


def config_to_payload(config: PipelineConfig) -> Dict[str, object]:
    """Encode a :class:`PipelineConfig` as a JSON-ready nested dict."""
    return dataclasses.asdict(config)


def config_from_payload(
    payload: object, source: str = "<payload>"
) -> PipelineConfig:
    """Decode a (possibly partial) config dict.

    Unknown keys, values whose JSON type does not fit the field's
    declared type (:func:`_check_json_fields`) and invalid values raise
    :class:`DataFormatError`; omitted keys fall back to the library
    defaults, so a job line may specify only the knobs it cares about.
    """
    if payload is None:
        return PipelineConfig()
    if not isinstance(payload, dict):
        raise DataFormatError(f"{source}: config must be an object")
    kwargs: Dict[str, object] = {}
    try:
        for key, value in payload.items():
            if key in _SUBCONFIGS:
                if not isinstance(value, dict):
                    raise DataFormatError(
                        f"{source}: config.{key} must be an object"
                    )
                _check_json_fields(_SUBCONFIGS[key], value, source,
                                   f"config.{key}")
                kwargs[key] = _SUBCONFIGS[key](**value)
            elif key in ("search", "truth_engine", "engine"):
                _check_json_fields(PipelineConfig, {key: value}, source,
                                   "config")
                kwargs[key] = value
            else:
                raise DataFormatError(
                    f"{source}: unknown config field {key!r}"
                )
        return PipelineConfig(**kwargs)
    except (ConfigurationError, TypeError) as error:
        raise DataFormatError(f"{source}: invalid config ({error})") from None


@functools.lru_cache(maxsize=None)
def _field_types(cls) -> Dict[str, object]:
    """``cls``'s resolved field annotations (resolving costs ~0.1 ms)."""
    return typing.get_type_hints(cls)


def _check_json_fields(cls, values: Dict[str, object], source: str,
                       prefix: str) -> None:
    """Match decoded JSON values against ``cls``'s declared field types.

    Stricter than the dataclasses, which trust their (numpy-int
    passing) library callers: ``int`` fields take JSON integers only,
    float fields any number, bool and str fields only their own type,
    and ``null`` only ``Optional`` fields.  A boolean is never a number.
    """
    hints = _field_types(cls)
    for name, value in values.items():
        if name not in hints:
            raise DataFormatError(
                f"{source}: unknown config field '{prefix}.{name}'"
            )
        optional = typing.get_args(hints[name])  # Optional[X]: (X, None)
        base = optional[0] if optional else hints[name]
        if value is None:
            fits = bool(optional)
        elif isinstance(value, bool):
            fits = base is bool
        else:
            fits = isinstance(value, (int, float) if base is float else base)
        if not fits:
            raise DataFormatError(
                f"{source}: {prefix}.{name} must be {base.__name__}"
                f"{' or null' if optional else ''}, got {value!r}"
            )


def _seed_from_json(value: object, source: str, name: str) -> Optional[int]:
    """The one JSON seed rule for jobs and sessions: an integer >= 0
    (never a bool) or ``null``."""
    if value is None or (type(value) is int and value >= 0):
        return value
    raise DataFormatError(
        f"{source}: {name} must be an integer >= 0 or null, got {value!r}"
    )


# ---------------------------------------------------------------------------
# Job codec
# ---------------------------------------------------------------------------

def job_to_payload(job: RankingJob) -> Dict[str, object]:
    """Encode a job as a JSON-ready dict (schema-tagged)."""
    payload: Dict[str, object] = {
        "schema": JOB_SCHEMA,
        "job_id": job.job_id,
        "config": config_to_payload(job.config),
    }
    if job.seed is not None:
        payload["seed"] = job.seed
    if job.votes is not None:
        votes = job.votes
        payload["votes"] = {
            "n_objects": votes.n_objects,
            "votes": np.column_stack(
                (votes.worker, votes.winner, votes.loser)
            ).tolist(),
        }
    if job.scenario is not None:
        payload["scenario"] = dataclasses.asdict(job.scenario)
    return payload


def job_from_payload(payload: object, source: str = "<payload>") -> RankingJob:
    """Decode a dict produced by :func:`job_to_payload`.

    Raises
    ------
    DataFormatError
        On a wrong/missing schema tag or any malformed field.
    """
    if not isinstance(payload, dict) or payload.get("schema") != JOB_SCHEMA:
        raise DataFormatError(
            f"{source}: expected schema {JOB_SCHEMA!r}, got "
            f"{payload.get('schema') if isinstance(payload, dict) else type(payload)!r}"
        )
    job_id = payload.get("job_id")
    if not isinstance(job_id, str) or not job_id:
        raise DataFormatError(f"{source}: job_id must be a non-empty string")
    seed = _seed_from_json(payload.get("seed"), source, "seed")
    votes: Optional[VoteSet] = None
    if "votes" in payload:
        votes = _votes_from_payload(payload["votes"], source)
    scenario: Optional[ScenarioSpec] = None
    if "scenario" in payload:
        raw = payload["scenario"]
        if not isinstance(raw, dict):
            raise DataFormatError(f"{source}: scenario must be an object")
        try:
            scenario = ScenarioSpec(**raw)
        except (ConfigurationError, TypeError) as error:
            raise DataFormatError(
                f"{source}: invalid scenario ({error})"
            ) from None
    config = config_from_payload(payload.get("config"), source)
    try:
        return RankingJob(job_id=job_id, votes=votes, scenario=scenario,
                          config=config, seed=seed)
    except ConfigurationError as error:
        raise DataFormatError(f"{source}: {error}") from None


def _votes_from_payload(raw: object, source: str) -> VoteSet:
    """Decode ``{"n_objects": n, "votes": [[worker, winner, loser], ...]}``.

    The rows become one int64 array, validated as a whole: ids must be
    JSON integers (no booleans, floats, strings or values beyond
    int64), every object id must lie in ``[0, n_objects)`` and no vote
    may compare an object with itself.  Rows that
    :func:`decode_job_json` lifted arrive as that int64 array already,
    which no JSON value can forge, so only a list of rows is walked.
    Zero votes decode to an empty set; inference rejects it later.
    """
    if not isinstance(raw, dict):
        raise DataFormatError(f"{source}: votes must be an object")
    try:
        n_objects = raw["n_objects"]
        rows = raw["votes"]
    except KeyError as error:
        raise DataFormatError(f"{source}: malformed votes ({error})") from None
    if not isinstance(n_objects, int) or isinstance(n_objects, bool):
        raise DataFormatError(
            f"{source}: votes.n_objects must be an integer"
        )
    if n_objects > INT64_MAX:
        raise DataFormatError(
            f"{source}: votes.n_objects must be an integer within int64"
        )
    if isinstance(rows, VoteRows):
        rows = rows.view(np.ndarray)
    else:
        rows = _rows_from_lists(rows, source)
    objects = rows[:, 1:]
    outside = np.flatnonzero(
        ((objects < 0) | (objects >= n_objects)).any(axis=1)
    )
    if outside.size:
        winner, loser = objects[outside[0]].tolist()
        raise DataFormatError(
            f"{source}: vote compares objects ({winner}, {loser}) "
            f"outside [0, {n_objects})"
        )
    try:
        return VoteSet.from_columns(n_objects, rows[:, 0], rows[:, 1],
                                    rows[:, 2])
    except ConfigurationError as error:
        raise DataFormatError(f"{source}: malformed votes ({error})") from None


def _rows_from_lists(rows: object, source: str) -> np.ndarray:
    """JSON ``[[worker, winner, loser], ...]`` lists as an int64
    ``(k, 3)`` array; each id an exact ``int`` within int64."""
    if type(rows) is not list or not (
        set(map(type, rows)) <= {list} and set(map(len, rows)) <= {3}
    ):
        raise DataFormatError(
            f"{source}: malformed votes: expected a list of "
            "[worker, winner, loser] rows of integers"
        )
    flat = list(itertools.chain.from_iterable(rows))
    # Exact types: bool is an int subclass, and np.array would read a
    # JSON true/false as 1/0.
    if not set(map(type, flat)) <= {int}:
        raise DataFormatError(
            f"{source}: vote ids must be integers within int64"
        )
    try:
        return np.fromiter(flat, dtype=np.int64,
                           count=len(flat)).reshape(-1, 3)
    except OverflowError:
        raise DataFormatError(
            f"{source}: vote ids must be integers within int64"
        ) from None


class VoteRows(np.ndarray):
    """An int64 ``(k, 3)`` array of vote rows that :func:`decode_job_json`
    lifted out of JSON text.

    It prints as the list of rows it was decoded from, so an error
    message that quotes a value holding it (a ``seed`` or ``schema``
    that is an object with a ``votes`` member, say) reads exactly as it
    would for the lists :func:`json.loads` builds.
    """

    def __repr__(self) -> str:
        return repr(self.tolist())

    __str__ = __repr__


def decode_job_json(text: Union[str, bytes], source: str) -> object:
    """:func:`~repro.io.decode_json` for job and batch bodies, with no
    Python object per vote.

    The native library (:func:`repro.inference.native.vote_rows`) lifts
    every ``"votes"`` member whose value is an array of ``[worker,
    winner, loser]`` rows of JSON integers within int64.  ``json.loads``
    decodes the rest, each lifted value swapped for the token ``NaN``,
    which its ``parse_constant`` hook turns into that value's rows as a
    :class:`VoteRows` array.  The decoder calls the hook in document
    order, so a repeated key keeps its last value, as with lists.  A
    body with a ``NaN`` or ``Infinity`` of its own, or whose reduced
    form does not decode, goes through :func:`decode_json` as it is, so
    every error names the original text.  The value equals
    ``decode_json(text, source)`` with each lifted list of rows an array.
    """
    if isinstance(text, str):
        # A str may hold lone surrogates, which json.loads accepts.
        raw, errors = text.encode("utf-8", "surrogatepass"), "surrogatepass"
    else:
        raw, errors = text, "strict"
    lifted = native.vote_rows(raw)
    if lifted is None:
        return decode_json(text, source)
    rows, spans = lifted
    starts, ends, counts = spans.T.tolist()
    pieces = [raw[begin:end] for begin, end
              in zip([0, *ends], [*starts, len(raw)])]
    blocks = iter(np.split(rows.view(VoteRows),
                           np.cumsum(counts[:-1], dtype=np.int64)))
    try:
        return json.loads(b"NaN".join(pieces).decode("utf-8", errors),
                          parse_constant=lambda _: next(blocks))
    except (ValueError, RecursionError):
        return decode_json(text, source)


def _job_result_envelope(outcome: JobResult) -> Dict[str, object]:
    """Every member of a result line except ``ranking`` and ``result``."""
    payload: Dict[str, object] = {
        "schema": JOB_RESULT_SCHEMA,
        "job_id": outcome.job_id,
        "status": outcome.status.value,
        "attempts": outcome.attempts,
        "from_cache": outcome.from_cache,
        "seconds": round(outcome.seconds, 6),
    }
    if outcome.error is not None:
        payload["error"] = outcome.error
    if outcome.extras:
        payload["extras"] = json_scalars(outcome.extras)
    return payload


def job_result_to_payload(outcome: JobResult) -> Dict[str, object]:
    """Encode a job outcome as a JSON-ready dict for the result stream.

    Successful jobs inline the full :mod:`repro.io` result payload under
    ``"result"``, so a batch line round-trips through
    :func:`repro.io.result_from_payload` unchanged.  The service writes
    lines with :func:`encode_job_result`, which produces this dict's
    encoding without decoding the result.
    """
    payload = _job_result_envelope(outcome)
    if outcome.result is not None:
        payload["ranking"] = list(outcome.result.ranking.order)
        payload["result"] = result_to_payload(outcome.result)
    return payload


def encode_job_result(outcome: JobResult) -> bytes:
    """A job outcome as one JSON document, in UTF-8 bytes.

    Byte-identical to ``json.dumps(job_result_to_payload(outcome),
    sort_keys=True)``, but the ``ranking`` and ``result`` members are
    the outcome's cached encodings (:attr:`JobResult.encoded`) spliced
    in verbatim (:func:`repro.io.splice_json`): a cache hit is answered
    without decoding or re-encoding its result.  ``/v1/rank``,
    ``/v1/batch`` and :func:`dump_results_jsonl` all write through it.
    """
    encoded = outcome.encoded
    members = {} if encoded is None else {
        "ranking": encoded.ranking_json,
        "result": encoded.result_json,
    }
    return splice_json(_job_result_envelope(outcome), members)


def job_result_from_payload(
    payload: object, source: str = "<payload>"
) -> JobResult:
    """Decode a dict produced by :func:`job_result_to_payload`.

    The inverse codec lets result streams — JSONL batch output, HTTP
    responses from :mod:`repro.server` — round-trip back into
    :class:`JobResult` objects (including the full
    :class:`~repro.types.InferenceResult` when one was inlined).

    Raises
    ------
    DataFormatError
        On a wrong/missing schema tag or any malformed field.
    """
    if not isinstance(payload, dict) or payload.get("schema") != JOB_RESULT_SCHEMA:
        raise DataFormatError(
            f"{source}: expected schema {JOB_RESULT_SCHEMA!r}, got "
            f"{payload.get('schema') if isinstance(payload, dict) else type(payload)!r}"
        )
    job_id = payload.get("job_id")
    if not isinstance(job_id, str) or not job_id:
        raise DataFormatError(f"{source}: job_id must be a non-empty string")
    try:
        status = JobStatus(payload.get("status"))
    except ValueError:
        raise DataFormatError(
            f"{source}: unknown status {payload.get('status')!r}"
        ) from None
    result: Optional[InferenceResult] = None
    if "result" in payload:
        result = result_from_payload(payload["result"], source=source)
    error = payload.get("error")
    if error is not None and not isinstance(error, str):
        raise DataFormatError(f"{source}: error must be a string")
    extras = payload.get("extras", {})
    if not isinstance(extras, dict):
        raise DataFormatError(f"{source}: extras must be an object")
    try:
        return JobResult(
            job_id=job_id,
            status=status,
            result=result,
            error=error,
            attempts=int(payload.get("attempts", 0)),
            from_cache=bool(payload.get("from_cache", False)),
            seconds=float(payload.get("seconds", 0.0)),
            extras=dict(extras),
        )
    except (TypeError, ValueError) as err:
        raise DataFormatError(f"{source}: malformed field ({err})") from None


# ---------------------------------------------------------------------------
# JSONL streams
# ---------------------------------------------------------------------------

def iter_jobs_jsonl(lines: Iterable[str], source: str = "<stream>") -> Iterator[RankingJob]:
    """Yield jobs from an iterable of JSONL lines.

    Blank lines and ``#`` comment lines are skipped.  Errors carry the
    1-based line number.
    """
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        where = f"{source}:{lineno}"
        yield job_from_payload(decode_job_json(text, where), source=where)


def load_jobs_jsonl(path: Union[str, Path]) -> List[RankingJob]:
    """Load a whole JSONL job file (see :func:`iter_jobs_jsonl`).

    Raises
    ------
    DataFormatError
        On an unreadable file or any malformed line.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise DataFormatError(f"{path}: cannot read ({error})") from None
    return list(iter_jobs_jsonl(text.splitlines(), source=str(path)))


def dump_results_jsonl(outcomes: Iterable[JobResult]) -> str:
    """Serialise job outcomes as a JSONL string (one line per job)."""
    return "".join(
        encode_job_result(outcome).decode("utf-8") + "\n"
        for outcome in outcomes
    )
