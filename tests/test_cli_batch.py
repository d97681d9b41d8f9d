"""End-to-end tests for the ``repro batch`` CLI command."""

import io
import json

import pytest

from repro.cli import main
from repro.config import PipelineConfig, PropagationConfig, SAPSConfig
from repro.service import RankingJob, ScenarioSpec, job_to_payload

QUICK = PipelineConfig(
    saps=SAPSConfig(iterations=400, restarts=1),
    propagation=PropagationConfig(max_hops=4, method="walks"),
)


def write_jobs(path, count=8, poison=False):
    lines = []
    for i in range(count):
        job = RankingJob(
            job_id=f"sim-{i}",
            scenario=ScenarioSpec(8, 0.6, n_workers=6, workers_per_task=3),
            config=QUICK,
            seed=i,
        )
        lines.append(json.dumps(job_to_payload(job)))
    if poison:
        lines.append(json.dumps({
            "schema": "repro.job/1", "job_id": "poison",
            "votes": {"n_objects": 4, "votes": []}, "seed": 99,
        }))
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.fixture
def jobs_file(tmp_path):
    return write_jobs(tmp_path / "jobs.jsonl")


class TestBatchCommand:
    def test_clean_batch_exits_zero(self, jobs_file, capsys):
        assert main(["batch", str(jobs_file), "--workers", "2"]) == 0
        captured = capsys.readouterr()
        lines = [json.loads(l) for l in captured.out.splitlines()]
        assert len(lines) == 8
        assert all(l["schema"] == "repro.job_result/1" for l in lines)
        assert all(l["status"] == "succeeded" for l in lines)
        assert "batch: 8 jobs" in captured.err

    def test_poisoned_batch_survives_and_exits_one(self, tmp_path, capsys):
        jobs = write_jobs(tmp_path / "jobs.jsonl", count=8, poison=True)
        assert main(["batch", str(jobs), "--workers", "4"]) == 1
        lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert len(lines) == 9
        by_id = {l["job_id"]: l for l in lines}
        assert by_id["poison"]["status"] == "failed"
        assert sum(l["status"] == "succeeded" for l in lines) == 8

    def test_json_metrics_trailer(self, jobs_file, capsys):
        assert main(["batch", str(jobs_file), "--workers", "2",
                     "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        trailer = json.loads(lines[-1])
        assert trailer["schema"] == "repro.batch_metrics/1"
        assert trailer["counters"]["jobs.succeeded"] == 8
        assert trailer["timers"]["job.seconds"]["count"] == 8

    def test_out_file(self, jobs_file, tmp_path, capsys):
        out = tmp_path / "results.jsonl"
        assert main(["batch", str(jobs_file), "--workers", "2",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert len(out.read_text().splitlines()) == 8

    def test_cache_dir_warms_across_invocations(self, jobs_file, tmp_path,
                                                capsys):
        cache_dir = tmp_path / "cache"
        assert main(["batch", str(jobs_file), "--cache-dir",
                     str(cache_dir), "--json"]) == 0
        first = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert "cache_hit_rate" not in first.get("derived", {}) or \
               first["derived"]["cache_hit_rate"] == 0.0
        # Second, fresh invocation: served from the persisted cache.
        assert main(["batch", str(jobs_file), "--cache-dir",
                     str(cache_dir), "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        trailer = json.loads(lines[-1])
        assert trailer["derived"]["cache_hit_rate"] == 1.0
        results = [json.loads(l) for l in lines[:-1]]
        assert all(r["from_cache"] for r in results)

    def test_stdin_jobs(self, jobs_file, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(jobs_file.read_text()))
        assert main(["batch", "-", "--workers", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 8

    def test_malformed_jobs_file_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"schema": "wrong/1"}\n')
        assert main(["batch", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deeply_nested_line_reports_error(self, tmp_path, capsys):
        deep = tmp_path / "deep.jsonl"
        deep.write_text("[" * 100_000 + "]" * 100_000 + "\n")
        assert main(["batch", str(deep)]) == 2
        assert "deep.jsonl:1: invalid JSON" in capsys.readouterr().err

    def test_oversized_integer_line_reports_error(self, tmp_path, capsys):
        huge = tmp_path / "huge.jsonl"
        huge.write_text('{"n_objects": %s}\n' % ("1" * 5000))
        assert main(["batch", str(huge)]) == 2
        assert "huge.jsonl:1: invalid JSON" in capsys.readouterr().err

    def test_non_utf8_jobs_file_reports_error(self, tmp_path, capsys):
        binary = tmp_path / "binary.jsonl"
        binary.write_bytes(b"\xff\xfe\x00garbage\n")
        assert main(["batch", str(binary)]) == 2
        assert "error: input is not UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("section, name, value", [
        ("saps", "init", "degree"),
        ("truth", "criterion", "max"),
        ("sparse", "solver", "cg"),
        ("sparse", "flow", "linear"),
        ("sparse", "logit_clip", 0.01),
    ])
    def test_retired_config_field_reports_error(self, tmp_path, capsys,
                                                section, name, value):
        payload = job_to_payload(RankingJob(
            job_id="retired", seed=1, config=QUICK,
            scenario=ScenarioSpec(8, 0.6, n_workers=6, workers_per_task=3)))
        payload["config"][section][name] = value
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(json.dumps(payload) + "\n")
        assert main(["batch", str(jobs)]) == 2
        assert f"unknown config field 'config.{section}.{name}'" in \
            capsys.readouterr().err

    def test_missing_jobs_file_reports_error(self, tmp_path, capsys):
        assert main(["batch", str(tmp_path / "absent.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_cache_flag(self, tmp_path, capsys):
        jobs = write_jobs(tmp_path / "jobs.jsonl", count=2)
        assert main(["batch", str(jobs), "--no-cache", "--json"]) == 0
        trailer = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert "cache.misses" not in trailer["counters"]
