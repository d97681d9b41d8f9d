"""The result contract of ``tests/result_invariants.py`` on the CLI's
outputs: ``repro rank``'s saved result and ``--json`` ranking, and the
JSONL result lines of ``repro batch`` (whose vote jobs go through the
lifted vote-row decoder), for the dense pipeline and both sparse
engines."""

import json

import pytest

from repro.cli import main
from repro.config import PipelineConfig, SAPSConfig
from repro.datasets import make_scenario, save_votes_csv
from repro.experiments.runner import collect_votes
from repro.io import load_result
from repro.service import RankingJob, job_result_from_payload, job_to_payload

from .result_invariants import (
    assert_ranking_invariants,
    assert_result_invariants,
)

ENGINES = ("crh_saps", "hodge", "lsq")


def vote_set(seed, n_objects=12):
    scenario = make_scenario(n_objects, 0.6, n_workers=6,
                             workers_per_task=3, rng=seed)
    return collect_votes(scenario, rng=seed)


@pytest.mark.parametrize("engine", ENGINES)
def test_rank_outputs_keep_the_result_contract(engine, tmp_path, capsys):
    votes = vote_set(1)
    csv = tmp_path / "votes.csv"
    save_votes_csv(votes, csv)
    saved = tmp_path / "result.json"
    assert main(["rank", str(csv), "--seed", "3", "--engine", engine,
                 "--n-objects", str(votes.n_objects),
                 "--save", str(saved), "--json"]) == 0
    printed = json.loads(capsys.readouterr().out)
    result = load_result(saved)
    assert_result_invariants(result, votes, engine)
    assert_ranking_invariants(printed["ranking"], votes.n_objects)
    assert printed["ranking"] == list(result.ranking.order)


def test_batch_result_lines_keep_the_result_contract(tmp_path, capsys):
    jobs = {}
    for index, engine in enumerate(ENGINES * 2):
        job = RankingJob(
            job_id=f"{engine}-{index}", votes=vote_set(index),
            config=PipelineConfig(engine=engine, saps=SAPSConfig(
                iterations=400, restarts=1)),
            seed=index)
        jobs[job.job_id] = job
    path = tmp_path / "jobs.jsonl"
    path.write_text("".join(json.dumps(job_to_payload(job)) + "\n"
                            for job in jobs.values()))
    out = tmp_path / "results.jsonl"
    assert main(["batch", str(path), "--workers", "2", "--no-cache",
                 "--out", str(out)]) == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    outcomes = [job_result_from_payload(line) for line in lines
                if line.get("schema") == "repro.job_result/1"]
    assert sorted(outcome.job_id for outcome in outcomes) == sorted(jobs)
    for outcome in outcomes:
        job = jobs[outcome.job_id]
        assert outcome.ok, outcome.error
        assert_result_invariants(outcome.result, job.votes,
                                 job.config.engine)
