"""Tests for the ``repro stream`` CLI subcommand (JSONL vote replay)."""

import json

import pytest

from repro.cli import main
from repro.datasets import make_scenario
from repro.experiments.runner import collect_votes
from repro.io import load_payload
from repro.streaming import SESSION_SCHEMA, session_from_payload

FAST_ARGS = ["--warm-iterations", "500"]


@pytest.fixture(scope="module")
def vote_log(tmp_path_factory):
    scenario = make_scenario(10, 0.6, n_workers=8, rng=5)
    votes = collect_votes(scenario, rng=5).votes
    path = tmp_path_factory.mktemp("stream") / "votes.jsonl"
    with open(path, "w") as handle:
        for vote in votes:
            handle.write(
                json.dumps([vote.worker, vote.winner, vote.loser]) + "\n"
            )
    return str(path), len(votes)


class TestLocalReplay:
    def test_json_output(self, vote_log, capsys):
        path, total = vote_log
        assert main(["stream", path, "--n-objects", "10",
                     "--chunk", "20", "--no-early-stop",
                     *FAST_ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["votes_replayed"] == total
        assert payload["votes_total"] == total
        assert sorted(payload["ranking"]) == list(range(10))
        assert payload["updates"]["full"] == 1

    def test_human_output(self, vote_log, capsys):
        path, total = vote_log
        assert main(["stream", path, "--n-objects", "10",
                     "--chunk", "30", "--no-early-stop",
                     *FAST_ARGS]) == 0
        captured = capsys.readouterr()
        assert f"replayed {total}/{total} votes" in captured.out
        assert "ranking (most preferred first)" in captured.out
        assert "verdict=" in captured.err  # per-update progress

    def test_early_stop_saves_votes(self, vote_log, capsys):
        path, total = vote_log
        assert main(["stream", path, "--n-objects", "10",
                     "--chunk", "10", "--threshold", "0.1",
                     "--window", "3", "--min-votes", "40",
                     "--warm-iterations", "1000", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "stopped"
        assert payload["votes_replayed"] < total

    def test_save_session_snapshot(self, vote_log, tmp_path, capsys):
        path, total = vote_log
        out = tmp_path / "session.json"
        assert main(["stream", path, "--n-objects", "10",
                     "--chunk", "40", "--no-early-stop", *FAST_ARGS,
                     "--save-session", str(out)]) == 0
        payload = load_payload(out, schema=SESSION_SCHEMA)
        restored = session_from_payload(payload)
        assert restored.votes_ingested == total

    def test_stdin_replay(self, vote_log, capsys, monkeypatch):
        import io as _io
        import sys

        path, total = vote_log
        with open(path) as handle:
            monkeypatch.setattr(sys, "stdin", _io.StringIO(handle.read()))
        assert main(["stream", "-", "--n-objects", "10",
                     "--chunk", "40", "--no-early-stop",
                     *FAST_ARGS, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["votes_replayed"] == total


class TestStreamErrors:
    def test_missing_file(self, capsys):
        assert main(["stream", "/nonexistent/votes.jsonl",
                     "--n-objects", "5"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('[0, 1, 2]\nnot json\n')
        assert main(["stream", str(path), "--n-objects", "5"]) == 2
        assert "bad.jsonl:2" in capsys.readouterr().err

    def test_deeply_nested_line(self, tmp_path, capsys):
        path = tmp_path / "deep.jsonl"
        path.write_text("[0, 1, 2]\n" + "[" * 100_000 + "]" * 100_000 + "\n")
        assert main(["stream", str(path), "--n-objects", "5"]) == 2
        assert "deep.jsonl:2: invalid JSON" in capsys.readouterr().err

    def test_oversized_integer_line(self, tmp_path, capsys):
        path = tmp_path / "huge.jsonl"
        path.write_text("[0, 1, 2]\n[%s, 0, 1]\n" % ("1" * 5000))
        assert main(["stream", str(path), "--n-objects", "5"]) == 2
        assert "huge.jsonl:2: invalid JSON" in capsys.readouterr().err

    def test_non_utf8_log(self, tmp_path, capsys):
        path = tmp_path / "binary.jsonl"
        path.write_bytes(b"[0, 1, 2]\n\xff\xfe\n")
        assert main(["stream", str(path), "--n-objects", "5"]) == 2
        assert "error: input is not UTF-8" in capsys.readouterr().err

    def test_empty_log(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n")
        assert main(["stream", str(path), "--n-objects", "5"]) == 2

    def test_out_of_range_vote(self, tmp_path, capsys):
        path = tmp_path / "oob.jsonl"
        path.write_text("[0, 9, 1]\n")
        assert main(["stream", str(path), "--n-objects", "5"]) == 2

    def test_bad_chunk(self, vote_log, capsys):
        path, _ = vote_log
        assert main(["stream", path, "--n-objects", "10",
                     "--chunk", "0"]) == 2

    def test_save_session_requires_local(self, vote_log, capsys):
        path, _ = vote_log
        assert main(["stream", path, "--n-objects", "10",
                     "--url", "http://127.0.0.1:1",
                     "--save-session", "x.json"]) == 2
