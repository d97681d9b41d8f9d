"""Unit tests of the e2e benchmark's own arithmetic (no server needed).

    python3 -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

import compare
import run
from loadgen import TAIL_BEYOND, TAIL_PERCENTILE, percentile, samples_beyond
from spans import Span, Tracer, by_request, self_times
from workloads import WORKLOADS, build_plan, kendall_accuracy

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _digest(name: str, seed: int) -> str:
    plan = build_plan(name, seed)
    digest = hashlib.sha256()
    for unit in plan.warmup + plan.units:
        for request in unit.requests:
            digest.update(request.path.encode())
            digest.update(request.body() or b"")
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_same_bytes_other_seed_other_bytes(name):
    assert _digest(name, 1) == _digest(name, 1)
    assert _digest(name, 1) != _digest(name, 2)


def test_generated_votes_are_connected_and_sized():
    plan = build_plan("rank-cold", 3)
    workload = plan.workload
    for generated in plan.vote_sets:
        votes = generated.votes
        pairs = {(min(w, l), max(w, l)) for _, w, l in votes.tolist()}
        assert len(pairs) == round(workload.ratio * 100 * 99 / 2)
        assert len(votes) == 5 * len(pairs)
        assert sorted(generated.truth.tolist()) == list(range(workload.n))
        # Union-find over the compared pairs: one component.
        parent = list(range(workload.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for lo, hi in pairs:
            parent[find(lo)] = find(hi)
        assert len({find(x) for x in range(workload.n)}) == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_accuracy_scores_the_fixed_set_only(name):
    plan = build_plan(name, 1)
    keys = plan.scored_keys()
    assert len(keys) == len(set(keys)) > 0
    tally = run.Tally(plan)
    rounds = [run.Round(samples=[run.Sample(0, 0, 200, b"", 0.5)],
                        wall_s=1.0)]
    tally.rounds, tally.rss = rounds, [100.0]
    for key in keys:
        tally.answers[key] = tuple(plan.truth(key[0]).tolist())
    assert tally.unanswered_scored() == []
    assert run.e2e_metrics(tally, [1.0])["accuracy"] == 1.0
    # Answers beyond the scored set, as a faster round would add, do
    # not move the score.
    for unit in plan.units[plan.workload.scored:]:
        for key in set(plan.answer_keys(unit)) - set(keys):
            tally.answers[key] = tuple(range(plan.workload.n))
    assert run.e2e_metrics(tally, [1.0])["accuracy"] == 1.0
    # A missing scored answer is a wrong run and names the unit to top up.
    del tally.answers[keys[-1]]
    assert tally.unanswered_scored() == [plan.workload.scored - 1]
    run.e2e_metrics(tally, [1.0])
    assert tally.wrong


def test_kendall_accuracy_bounds():
    assert kendall_accuracy([0, 1, 2, 3], [0, 1, 2, 3]) == 1.0
    assert kendall_accuracy([0, 1, 2, 3], [3, 2, 1, 0]) == 0.0
    assert kendall_accuracy([0, 1, 2], [1, 0, 2]) == pytest.approx(2 / 3)


def test_percentile_rule():
    values = list(range(1, 121))
    assert percentile(values, 50) == 60
    assert percentile(values, 90) == 108
    assert samples_beyond(120, 90) == 12
    assert samples_beyond(120, 91) == TAIL_BEYOND
    assert samples_beyond(120, 92) < TAIL_BEYOND
    # The reported tail has ten samples beyond it from 40 samples on.
    assert samples_beyond(40, TAIL_PERCENTILE) == TAIL_BEYOND
    assert samples_beyond(39, TAIL_PERCENTILE) < TAIL_BEYOND
    assert percentile([7.0], TAIL_PERCENTILE) == 7.0


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("root", "r", None, 0.0, 10.0),
        Span("a", "r", 0, 1.0, 3.0),
        Span("b", "r", 0, 2.0, 5.0),     # overlaps a: covered once
        Span("c", "r", 2, 3.0, 4.0),     # grandchild, not the root's child
        Span("d", "r", 0, 8.0, 12.0),    # clipped to the root's end
        Span("other", "s", None, 0.0, 1.0),
    ]
    assert self_times(spans) == [4.0, 2.0, 2.0, 1.0, 4.0, 1.0]
    table = by_request(spans)
    assert table["r"][""] == 10.0
    assert table["s"] == {"other": 1.0, "": 1.0}


def test_tracer_self_times_add_up_to_the_top_level_time():
    tracer = Tracer()
    with tracer.span("outer", "q"):
        with tracer.span("inner"):
            sum(range(10_000))
        tracer.wrap("wrapped", sum)(range(10_000))
    with tracer.span("second", "q"):
        pass
    assert [s.parent for s in tracer.spans] == [None, 0, 0, None]
    assert {s.request for s in tracer.spans} == {"q"}
    layers = by_request(tracer.spans)["q"]
    total = layers.pop("")
    assert sum(layers.values()) == pytest.approx(total, rel=1e-9)


@pytest.mark.parametrize("a, b, better, expected", [
    ([100, 101, 99, 100], [101, 100, 102, 100], "lower", "ok"),
    ([100, 101, 99, 100], [120, 121, 119, 120], "lower", "regressed"),
    ([100, 101, 99, 100], [120, 121, 119, 120], "higher", "ok"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "higher", "regressed"),
    ([50, 100, 150, 200], [100, 101, 99, 100], "lower", "unresolved"),
    ([100, 101, 99, 100], [60, 120, 90, 150], "lower", "unresolved"),
    # Wide spread, but every B run beats every A run.
    ([150, 200, 160, 190], [50, 90, 60, 80], "lower", "ok"),
    ([5.0], [5.4], "lower", "ok"),
    ([5.0], [5.6], "lower", "regressed"),
])
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, 0.1, better) == expected


def test_compare_reads_one_record_or_json_lines(tmp_path):
    def record(value):
        return {"workloads": {"w": {"e2e": {"m": {"value": value}}}}}

    single = tmp_path / "a.json"
    single.write_text(json.dumps(record(1.0), indent=1))
    lines = tmp_path / "b.jsonl"
    lines.write_text("".join(json.dumps(record(v)) + "\n" for v in (2, 3)))
    assert compare.load([str(single), str(lines)]) == {"w": {"m": [1, 2, 3]}}


def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == \
        run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == \
        run.LAYER_UNITS
    assert any(m["name"] == "setup_s" and m["bound"] == max(
        x["bound"] for x in BENCHMARK["end_to_end"])
        for m in BENCHMARK["end_to_end"])
