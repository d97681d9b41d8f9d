"""Live smoke run: every metric BENCHMARK.json names is emitted for every
workload, with its unit, and every answer is correct.

``run.py --smoke`` takes about 12 s: six server spawns, tiny inputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_smoke_run_emits_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0

    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    assert set(last["metrics"]) == {f"{w}/{m['name']}" for w in workloads
                                    for m in BENCHMARK["per_layer"]}

    record = json.loads(out.read_text())
    assert record["wrong"] == []
    assert (tmp_path / "smoke.spans.jsonl").stat().st_size > 0
    for workload in workloads:
        report = record["workloads"][workload]
        for group, declared in (("e2e", BENCHMARK["end_to_end"]),
                                ("layers", BENCHMARK["per_layer"])):
            emitted = {name: entry["unit"]
                       for name, entry in report[group].items()}
            assert emitted == {m["name"]: m["unit"] for m in declared}
        table = report["layer_table_ms"]
        parts = sum(v for k, v in table.items() if k != "roundtrip")
        assert abs(parts - table["roundtrip"]) <= 1e-6 * table["roundtrip"]
