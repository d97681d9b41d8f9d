"""Unit tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.datasets import save_votes_csv


@pytest.fixture
def votes_csv(tmp_path, tiny_votes):
    path = tmp_path / "votes.csv"
    save_votes_csv(tiny_votes, path)
    return str(path)


class TestRankCommand:
    def test_human_output(self, votes_csv, capsys):
        assert main(["rank", votes_csv, "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "ranking (most preferred first)" in out
        assert "objects: 4" in out

    def test_json_output(self, votes_csv, capsys):
        assert main(["rank", votes_csv, "--seed", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["ranking"]) == [0, 1, 2, 3]
        assert "worker_quality" in payload

    def test_search_choice(self, votes_csv, capsys):
        assert main(["rank", votes_csv, "--search", "branch_and_bound",
                     "--seed", "1"]) == 0

    def test_missing_file_is_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["rank"])  # missing positional

    def test_bad_universe_reports_error(self, votes_csv, capsys):
        code = main(["rank", votes_csv, "--n-objects", "2"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_id_beyond_int64_reports_error(self, tmp_path, capsys):
        # Tracebacked with an OverflowError from VoteSet before.
        path = tmp_path / "huge.csv"
        path.write_text(f"worker_id,winner,loser\n0,{10**30},1\n")
        assert main(["rank", str(path)]) == 2
        assert "beyond int64" in capsys.readouterr().err

    def test_top_k_truncates(self, votes_csv, capsys):
        assert main(["rank", votes_csv, "--seed", "1", "--top-k", "2",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["ranking"]) == 2

    def test_top_k_out_of_range(self, votes_csv, capsys):
        assert main(["rank", votes_csv, "--top-k", "9"]) == 2
        assert "top-k" in capsys.readouterr().err

    def test_save_round_trips(self, votes_csv, tmp_path, capsys):
        out = tmp_path / "result.json"
        assert main(["rank", votes_csv, "--seed", "1", "--save",
                     str(out)]) == 0
        from repro.io import load_result

        loaded = load_result(out)
        assert sorted(loaded.ranking.order) == [0, 1, 2, 3]


class TestPlanCommand:
    def test_plan_by_ratio(self, capsys):
        assert main(["plan", "10", "--ratio", "0.5", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "n_comparisons" in out
        assert "hp_likelihood_bound" in out

    def test_plan_by_budget_json(self, capsys):
        assert main(["plan", "10", "--budget", "5.0", "--json",
                     "--seed", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n_objects"] == 10
        assert payload["all_requirements_met"]

    def test_infeasible_budget_reports_error(self, capsys):
        code = main(["plan", "10", "--budget", "0.1"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_ratio_and_budget_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["plan", "10", "--budget", "5", "--ratio", "0.5"])


class TestSimulateCommand:
    def test_simulate(self, capsys):
        assert main(["simulate", "12", "--ratio", "0.5", "--workers", "10",
                     "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "accuracy" in out

    def test_simulate_json(self, capsys):
        assert main(["simulate", "12", "--ratio", "0.5", "--workers", "10",
                     "--quality", "uniform", "--level", "low",
                     "--seed", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 12
        assert 0.0 <= payload["accuracy"] <= 1.0


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
