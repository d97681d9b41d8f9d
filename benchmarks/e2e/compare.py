"""Compare two sets of ``run.py --out`` records under BENCHMARK.json's bounds.

    python3 benchmarks/e2e/compare.py A.json [A2.json ...] -- B.json [B2.json ...]

A file holds one record, or one record per line.  For every end-to-end
metric and every workload both sides ran, prints
each side's median and quartiles and a verdict, one row per workload:

* ``ok`` -- B's median is worse than A's by no more than the bound, or
  every B run reads better than every A run;
* ``regressed`` -- B's median is worse than A's by more than the bound;
* ``unresolved`` -- either side's spread (interquartile range over
  median) exceeds the bound, and B does not beat A on every run.

Exits 0 when every pair is ``ok``, else 1.  With no ``--`` it prints the
medians and quartiles of every metric of one set as JSON instead.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str) -> str:
    """``ok``, ``regressed`` or ``unresolved`` for B against A."""
    sign = 1.0 if better == "lower" else -1.0
    if all(sign * (y - x) < 0 for x in a for y in b):
        return "ok"
    if max(spread(a), spread(b)) > bound:
        return "unresolved"
    base = quartiles(a)[1]
    worse = sign * (quartiles(b)[1] - base) / (abs(base) or 1.0)
    return "regressed" if worse > bound else "ok"


def records(path: str) -> List[dict]:
    """The run records in ``path``: one JSON document, or JSON Lines of
    records (as in ``results/same_code_*.jsonl``)."""
    text = Path(path).read_text()
    try:
        return [json.loads(text)]
    except json.JSONDecodeError:
        return [json.loads(line) for line in text.splitlines() if line.strip()]


def load(paths: Sequence[str], group: str = "e2e"
         ) -> Dict[str, Dict[str, List[float]]]:
    """``{workload: {metric: [value per record]}}`` of one metric group."""
    values: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    for path in paths:
        for record in records(path):
            for workload, report in record["workloads"].items():
                for metric, entry in report.get(group, {}).items():
                    values[workload][metric].append(entry["value"])
    return values


def summary(paths: Sequence[str]) -> Dict[str, object]:
    result: Dict[str, object] = {"files": [Path(p).name for p in paths]}
    for group in ("e2e", "layers"):
        for workload, metrics in load(paths, group).items():
            entry = result.setdefault(workload, {})
            for metric, values in metrics.items():
                q1, median, q3 = quartiles(values)
                entry[metric] = {"median": median, "q1": q1, "q3": q3,
                                 "runs": len(values)}
    return result


def compare(a_paths: Sequence[str], b_paths: Sequence[str]) -> int:
    spec = json.loads(BENCHMARK.read_text())
    a, b = load(a_paths), load(b_paths)
    verdicts = []
    for metric in spec["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        print(f"{name} ({metric['unit']}, {better} is better, "
              f"bound {bound:.0%})")
        print(f"  {'workload':<16} {'A median [q1, q3]':<34} "
              f"{'B median [q1, q3]':<34} {'change':>8}  verdict")
        for workload in sorted(set(a) & set(b)):
            if name not in a[workload] or name not in b[workload]:
                continue
            av, bv = a[workload][name], b[workload][name]
            qa, qb = quartiles(av), quartiles(bv)
            change = (qb[1] - qa[1]) / (abs(qa[1]) or 1.0)
            result = verdict(av, bv, bound, better)
            verdicts.append(result)
            print(f"  {workload:<16} {_cell(qa):<34} {_cell(qb):<34} "
                  f"{change:>+8.1%}  {result}")
    if not verdicts:
        print("no (metric, workload) pair is present on both sides")
        return 1
    print(f"{verdicts.count('ok')} ok, {verdicts.count('regressed')} "
          f"regressed, {verdicts.count('unresolved')} unresolved")
    return 0 if all(v == "ok" for v in verdicts) else 1


def _cell(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: Sequence[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    if "--" not in argv:
        print(json.dumps(summary(argv), indent=1))
        return 0
    split = list(argv).index("--")
    a_paths, b_paths = argv[:split], argv[split + 1:]
    if not a_paths or not b_paths:
        print("compare.py: need files on both sides of --", file=sys.stderr)
        return 2
    return compare(a_paths, b_paths)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
