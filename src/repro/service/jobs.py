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
import json
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
from ..io import result_from_payload, result_to_payload
from ..types import InferenceResult, VoteSet

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
        The inference output when ``status`` is ``SUCCEEDED``.
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
    result: Optional[InferenceResult] = None
    error: Optional[str] = None
    attempts: int = 0
    from_cache: bool = False
    seconds: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True iff the job produced a ranking."""
        return self.status is JobStatus.SUCCEEDED


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

    Unknown keys and invalid values raise :class:`DataFormatError`;
    omitted keys fall back to the library defaults, so a job line may
    specify only the knobs it cares about.
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
                kwargs[key] = _SUBCONFIGS[key](**value)
            elif key in ("search", "truth_engine", "vote_path", "engine"):
                kwargs[key] = value
            else:
                raise DataFormatError(
                    f"{source}: unknown config field {key!r}"
                )
        return PipelineConfig(**kwargs)
    except (ConfigurationError, TypeError) as error:
        raise DataFormatError(f"{source}: invalid config ({error})") from None


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
    seed = payload.get("seed")
    if seed is not None and not isinstance(seed, int):
        raise DataFormatError(f"{source}: seed must be an integer")
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
    JSON integers (no floats, strings or values beyond int64), every
    object id must lie in ``[0, n_objects)`` and no vote may compare an
    object with itself.  Zero votes decode to an empty set; inference
    rejects it later.
    """
    if not isinstance(raw, dict):
        raise DataFormatError(f"{source}: votes must be an object")
    try:
        n_objects = raw["n_objects"]
        rows = np.array(raw["votes"])
    except (KeyError, ValueError) as error:
        raise DataFormatError(f"{source}: malformed votes ({error})") from None
    if not isinstance(n_objects, int) or isinstance(n_objects, bool):
        raise DataFormatError(
            f"{source}: votes.n_objects must be an integer"
        )
    if rows.shape == (0,):
        rows = rows.astype(np.int64).reshape(0, 3)
    if rows.dtype != np.int64:
        raise DataFormatError(
            f"{source}: vote ids must be integers within int64"
        )
    if rows.ndim != 2 or rows.shape[1] != 3:
        raise DataFormatError(
            f"{source}: votes must be [worker, winner, loser] rows"
        )
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


def job_result_to_payload(outcome: JobResult) -> Dict[str, object]:
    """Encode a job outcome as a JSON-ready dict for the result stream.

    Successful jobs inline the full :mod:`repro.io` result payload under
    ``"result"``, so a batch line round-trips through
    :func:`repro.io.result_from_payload` unchanged.
    """
    payload: Dict[str, object] = {
        "schema": JOB_RESULT_SCHEMA,
        "job_id": outcome.job_id,
        "status": outcome.status.value,
        "attempts": outcome.attempts,
        "from_cache": outcome.from_cache,
        "seconds": round(outcome.seconds, 6),
    }
    if outcome.result is not None:
        payload["ranking"] = list(outcome.result.ranking.order)
        payload["result"] = result_to_payload(outcome.result)
    if outcome.error is not None:
        payload["error"] = outcome.error
    if outcome.extras:
        payload["extras"] = {
            key: value for key, value in outcome.extras.items()
            if isinstance(value, (int, float, str, bool, type(None)))
        }
    return payload


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
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise DataFormatError(f"{where}: invalid JSON ({error})") from None
        yield job_from_payload(payload, source=where)


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
        json.dumps(job_result_to_payload(outcome), sort_keys=True) + "\n"
        for outcome in outcomes
    )
