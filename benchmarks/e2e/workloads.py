"""Seeded inputs, request plans and response checks for the e2e benchmark.

Every input comes from :func:`make_votes`, a generator owned by this
benchmark (numpy only, no ``repro`` import), so a change to the
library's own simulators never changes what the benchmark sends.  The
same ``--seed`` gives byte-identical request bodies.

A workload is a list of *units*.  A client takes the next unit, sends
its requests in order on its keep-alive connection, and only then takes
another, so the loop is closed.  A unit is one ``/v1/rank`` or
``/v1/batch`` request, or one whole streaming session (create, ingests
with periodic suggests, ranking, delete).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Job seed of the untimed warm-up unit every fresh server gets; no
#: workload job uses a seed this large.
WARMUP_SEED = 1_000_000_007

JOB_SCHEMA = "repro.job/1"
RESULT_SCHEMA = "repro.job_result/1"


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  ``kind`` is ``rank``, ``batch`` or ``session``.

    ``config`` is the job config of rank and batch jobs, or the session
    config of sessions.  ``scored`` is the number of leading units whose
    answers make up ``accuracy``: a fixed set of inputs per seed, so the
    score does not depend on how far a time-bounded round got.
    """

    name: str
    kind: str
    n: int
    ratio: float
    n_workers: int
    vote_sets: int
    scored: int
    seeds: int = 1
    config: Optional[dict] = None
    cached: bool = False


#: The traffic mixes; why each exists is recorded in BENCHMARK.json and
#: README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "rank-cold", "rank",
        n=100, ratio=0.3, n_workers=20, vote_sets=8, seeds=15, scored=8,
    ),
    Workload(
        "rank-cached", "rank",
        n=400, ratio=0.1, n_workers=50, vote_sets=2, seeds=1, scored=2,
        # Only the untimed cache fill computes; two jobs and a short
        # anneal keep the three per-round fills cheap.  A hit does the
        # same work whichever entry it finds, and never reads the config.
        config={"saps": {"iterations": 1000, "restarts": 1}},
        cached=True,
    ),
    Workload(
        "rank-sparse", "rank",
        n=1000, ratio=0.01, n_workers=50, vote_sets=4, seeds=30, scored=8,
        config={"engine": "hodge"},
    ),
    Workload(
        "batch-cold", "batch",
        # An n=16 vote set is a noisy input, so accuracy averages over
        # many: the 12 scored batches hold 96 distinct vote sets.
        n=16, ratio=0.5, n_workers=20, vote_sets=96, seeds=10, scored=12,
        config={"saps": {"iterations": 2000}},
    ),
    Workload(
        "session-stream", "session",
        # A single session's final ranking is a noisy score (0.47-0.77
        # over seeds), so accuracy averages every ranking the scored
        # sessions return, one per ingest and the final one.
        n=50, ratio=0.3, n_workers=20, vote_sets=24, seeds=1, scored=10,
        config={"early_stop": False},
    ),
)}

#: Jobs per ``/v1/batch`` request.
BATCH_JOBS = 8
#: Session shape: votes per ingest, a suggest after every
#: ``SUGGEST_EVERY``-th ingest, pairs per suggest.
INGEST_CHUNK, SUGGEST_EVERY, SUGGEST_K = 100, 5, 10

#: Units generated per workload: more than one round takes at today's
#: speed, so no cold request repeats within a round (which would hit the
#: cache).  A round ends early once it has taken every unit.
UNITS_PER_ROUND = 120


@dataclass(frozen=True)
class GeneratedVotes:
    """A vote set and the ground truth it was drawn from."""

    truth: np.ndarray   # object ids, most preferred first
    votes: np.ndarray   # (k, 3) int64 rows: worker, winner, loser


def make_votes(rng: np.random.Generator, n: int, ratio: float,
               n_workers: int, per_task: int = 5) -> GeneratedVotes:
    """Draw one crowd vote set.

    ``round(ratio * C(n, 2))`` distinct pairs are compared (always
    including a random Hamiltonian path, so the comparison graph is
    connected), each by ``per_task`` distinct workers.  Worker ``k``
    votes for the truly preferred object with probability ``q_k ~
    U(0.6, 0.95)``.  Votes come out in random order.
    """
    truth = rng.permutation(n)
    position = np.empty(n, dtype=np.int64)
    position[truth] = np.arange(n)
    quality = rng.uniform(0.6, 0.95, n_workers)
    path = rng.permutation(n)
    lo = np.minimum(path[:-1], path[1:])
    hi = np.maximum(path[:-1], path[1:])
    keys = set((lo * n + hi).tolist())
    all_lo, all_hi = np.triu_indices(n, 1)
    target = max(len(keys), int(round(ratio * len(all_lo))))
    for key in rng.permutation(all_lo * n + all_hi).tolist():
        if len(keys) >= target:
            break
        keys.add(key)
    pairs = np.array(sorted(keys), dtype=np.int64)
    lo, hi = pairs // n, pairs % n
    k = len(pairs)
    workers = np.argsort(rng.random((k, n_workers)), axis=1)[:, :per_task]
    correct = rng.random((k, per_task)) < quality[workers]
    better = np.where(position[lo] < position[hi], lo, hi)[:, None]
    worse = (lo + hi)[:, None] - better
    votes = np.stack([
        workers.ravel(),
        np.where(correct, better, worse).ravel(),
        np.where(correct, worse, better).ravel(),
    ], axis=1)
    return GeneratedVotes(truth, votes[rng.permutation(len(votes))])


def kendall_accuracy(truth: Sequence[int], order: Sequence[int]) -> float:
    """1 - normalised Kendall-tau distance between two rankings."""
    n = len(truth)
    position = np.empty(n, dtype=np.int64)
    position[np.asarray(order)] = np.arange(n)
    placed = position[np.asarray(truth)]
    discordant = int(np.triu(placed[:, None] > placed[None, :], 1).sum())
    return 1.0 - discordant / (n * (n - 1) / 2)


# ---------------------------------------------------------------------------
# Request plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """One HTTP request; ``path`` may hold a ``{sid}`` placeholder.

    ``parts`` are pre-encoded body fragments a client joins before its
    timer starts, so no JSON encoding happens inside the timed loop.
    """

    kind: str
    method: str
    path: str
    parts: Tuple[bytes, ...] = ()
    votes: int = 0

    def body(self) -> Optional[bytes]:
        return b"".join(self.parts) if self.parts else None


@dataclass(frozen=True)
class Unit:
    """Requests one client sends back to back.

    ``key`` names the answers: a tuple of (vote set, seed) jobs for rank
    and batch units, the session's own (vote set, seed) for session
    units.
    """

    key: Tuple
    requests: Tuple[Request, ...]


@dataclass
class Plan:
    """A workload's generated inputs for one ``--seed``."""

    workload: Workload
    vote_sets: List[GeneratedVotes]
    units: List[Unit]
    warmup: List[Unit]
    votes_json: List[bytes]

    def truth(self, vote_set: int) -> np.ndarray:
        return self.vote_sets[vote_set].truth

    @property
    def scored(self) -> List[Unit]:
        """The units whose answers make up ``accuracy``."""
        return self.units[:self.workload.scored]

    def answer_keys(self, unit: Unit) -> List[Tuple]:
        """The keys of the rankings ``unit`` answers: (vote set, seed) per
        job, or for a session one (vote set, seed, request index) per
        ingest plus (vote set, seed) for its final ranking."""
        if self.workload.kind == "session":
            return [unit.key + (index,)
                    for index, request in enumerate(unit.requests)
                    if request.kind == "ingest"] + [unit.key]
        return list(unit.key)

    def scored_keys(self) -> List[Tuple]:
        """The answer keys of the scored units."""
        return [key for unit in self.scored for key in self.answer_keys(unit)]

    def job_payload(self, vote_set: int, seed: int) -> bytes:
        """The pre-encoded ``repro.job/1`` body of one job."""
        head = {"schema": JOB_SCHEMA, "job_id": f"v{vote_set}-s{seed}",
                "seed": seed}
        if self.workload.config is not None:
            head["config"] = self.workload.config
        prefix = json.dumps(head)[:-1].encode()
        return b"".join((prefix, b', "votes": {"n_objects": ',
                         str(self.workload.n).encode(), b', "votes": ',
                         self.votes_json[vote_set], b"}}"))


def _workload_rng(seed: int, workload: Workload, stream: int
                  ) -> np.random.Generator:
    index = list(WORKLOADS).index(workload.name)
    return np.random.default_rng([seed, index, stream])


def build_plan(name: str, seed: int, smoke: bool = False) -> Plan:
    """Generate every input of workload ``name`` for ``seed``;
    ``smoke`` shrinks the inputs to a few objects and a short anneal."""
    workload = WORKLOADS[name]
    if smoke:
        workload = dataclasses.replace(
            workload, n=min(workload.n, 24),
            vote_sets=min(workload.vote_sets, 4), scored=1)
        if workload.kind != "session":
            workload = dataclasses.replace(workload, config={
                **(workload.config or {}),
                "saps": {"iterations": 200, "restarts": 1}})
    vote_sets = [
        make_votes(_workload_rng(seed, workload, index), workload.n,
                   workload.ratio, workload.n_workers)
        for index in range(workload.vote_sets)
    ]
    votes_json = [json.dumps(v.votes.tolist()).encode() for v in vote_sets]
    plan = Plan(workload, vote_sets, [], [], votes_json)
    # Consecutive units cycle through the vote sets, so every round
    # covers each of them whatever its length.
    jobs = [(index % workload.vote_sets, index // workload.vote_sets)
            for index in range(workload.vote_sets * workload.seeds)]
    if workload.kind == "session":
        plan.units = [_session_unit(plan, *job) for job in jobs]
        plan.warmup = [_session_unit(plan, 0, WARMUP_SEED, chunks=1)]
        return plan
    per_unit = BATCH_JOBS if workload.kind == "batch" else 1
    if workload.cached:
        # Filling the cache is the warm-up: the hits that follow run no
        # inference, so no other warm-up job is needed.
        units = [_job_unit(plan, [job]) for job in jobs]
        plan.warmup = units
        plan.units = [units[i % len(units)] for i in range(UNITS_PER_ROUND)]
        return plan
    plan.units = [
        _job_unit(plan, jobs[start:start + per_unit])
        for start in range(0, min(len(jobs), UNITS_PER_ROUND * per_unit),
                           per_unit)
    ]
    plan.warmup = [_job_unit(plan, [(v % workload.vote_sets, WARMUP_SEED + v)
                                    for v in range(per_unit)])]
    return plan


def _job_unit(plan: Plan, jobs: List[Tuple[int, int]]) -> Unit:
    bodies = [plan.job_payload(vote_set, seed) for vote_set, seed in jobs]
    if plan.workload.kind == "batch":
        parts = (b'{"jobs": [', b", ".join(bodies), b"]}")
        request = Request("batch", "POST", "/v1/batch", parts)
    else:
        request = Request("rank", "POST", "/v1/rank", (bodies[0],))
    return Unit(tuple(jobs), (request,))


def _session_unit(plan: Plan, vote_set: int, seed: int,
                  chunks: Optional[int] = None) -> Unit:
    workload = plan.workload
    votes = plan.vote_sets[vote_set].votes
    create = {"n_objects": workload.n,
              "config": {**(workload.config or {}), "seed": seed}}
    requests = [Request("create", "POST", "/v1/sessions",
                        (json.dumps(create).encode(),))]
    starts = range(0, len(votes), INGEST_CHUNK)
    for number, start in enumerate(starts, start=1):
        if chunks is not None and number > chunks:
            break
        chunk = votes[start:start + INGEST_CHUNK].tolist()
        requests.append(Request(
            "ingest", "POST", "/v1/sessions/{sid}/votes",
            (json.dumps({"votes": chunk}).encode(),), len(chunk),
        ))
        if number % SUGGEST_EVERY == 0 or chunks is not None:
            requests.append(Request(
                "suggest", "GET", f"/v1/sessions/{{sid}}/suggest?k={SUGGEST_K}",
            ))
    requests.append(Request("ranking", "GET", "/v1/sessions/{sid}/ranking"))
    requests.append(Request("delete", "DELETE", "/v1/sessions/{sid}"))
    return Unit((vote_set, seed), tuple(requests))


# ---------------------------------------------------------------------------
# Response checks
# ---------------------------------------------------------------------------

class WrongAnswer(Exception):
    """A response that is not a correct answer to its request."""


def _permutation(ranking: object, n: int, what: str) -> Tuple[int, ...]:
    if not isinstance(ranking, list) or sorted(ranking) != list(range(n)):
        raise WrongAnswer(f"{what}: ranking is not a permutation of "
                          f"range({n})")
    return tuple(ranking)


def _job_result(payload: object, job: Tuple[int, int], n: int
                ) -> Tuple[int, ...]:
    vote_set, seed = job
    job_id = f"v{vote_set}-s{seed}"
    if not isinstance(payload, dict) or payload.get("schema") != RESULT_SCHEMA:
        raise WrongAnswer(f"{job_id}: not a {RESULT_SCHEMA} payload")
    if payload.get("job_id") != job_id or payload.get("status") != "succeeded":
        raise WrongAnswer(f"{job_id}: job_id {payload.get('job_id')!r} "
                          f"status {payload.get('status')!r}")
    return _permutation(payload.get("ranking"), n, job_id)


def check_response(plan: Plan, unit: Unit, index: int, payload: object
                   ) -> List[Tuple[Tuple, Tuple[int, ...]]]:
    """Validate the decoded 2xx response body to ``unit.requests[index]``.

    Returns the ``(answer key, ranking)`` pairs it carries that count
    toward accuracy and determinism; raises :class:`WrongAnswer`.
    """
    n = plan.workload.n
    request = unit.requests[index]
    ingested = sum(r.votes for r in unit.requests[:index + 1])
    if request.kind == "rank":
        return [(unit.key[0], _job_result(payload, unit.key[0], n))]
    if request.kind == "batch":
        results = payload.get("results") if isinstance(payload, dict) else None
        if not isinstance(results, list) or len(results) != len(unit.key) \
                or payload.get("succeeded") != len(unit.key):
            raise WrongAnswer(f"batch {unit.key[0]}: wrong result count")
        return [(job, _job_result(result, job, n))
                for job, result in zip(unit.key, results)]
    if not isinstance(payload, dict):
        raise WrongAnswer(f"session {unit.key}: body is not an object")
    if request.kind == "suggest":
        pairs = payload.get("pairs")
        if not isinstance(pairs, list) or len(pairs) != SUGGEST_K or not all(
                isinstance(p, list) and len(p) == 2 and 0 <= p[0] < p[1] < n
                for p in pairs):
            raise WrongAnswer(f"session {unit.key}: bad suggest pairs")
        return []
    if request.kind == "delete":
        if "deleted" not in payload:
            raise WrongAnswer(f"session {unit.key}: delete not acknowledged")
        return []
    if payload.get("n_objects") != n or \
            payload.get("votes_ingested") != ingested:
        raise WrongAnswer(f"session {unit.key}: view has n_objects "
                          f"{payload.get('n_objects')} votes_ingested "
                          f"{payload.get('votes_ingested')}, expected "
                          f"{n} and {ingested}")
    if request.kind == "create":
        if not isinstance(payload.get("session_id"), str):
            raise WrongAnswer(f"session {unit.key}: no session id")
        return []
    ranking = _permutation(payload.get("ranking"), n, f"session {unit.key}")
    key = unit.key if request.kind == "ranking" else unit.key + (index,)
    return [(key, ranking)]
