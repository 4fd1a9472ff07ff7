"""Compare two sets of benchmark runs against the bounds in BENCHMARK.json.

    python3 benchmarks/perf/compare.py A.jsonl B.jsonl

Each file holds the records `run.py --out` appended, one JSON object a
line, several runs per workload. For every workload and end-to-end metric
the table gives both medians with their quartiles, the relative change
from A to B, and a verdict: B may be worse than A by the metric's bound.
Exit code 1 when any pair breaches its bound. Runs during which the box's
speed (the yardstick of layers.py) moved by more than `DRIFT_LIMIT` from
their first half to their second are counted on the workload's last line.
"""

from __future__ import annotations

import json
import os
import sys
from statistics import median, quantiles

DRIFT_LIMIT = 0.10
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def load(path: str) -> dict:
    """`{workload: [record, ...]}` of the end-to-end runs in `path`."""
    runs: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            if not record["trace"]:
                runs.setdefault(record["workload"], []).append(record)
    return runs


def summary(records: list, name: str) -> tuple[float, float, float]:
    """Median and quartiles of one metric over the runs."""
    values = [r["metrics"][name]["value"] for r in records]
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return median(values), q1, q3


def drift(record: dict) -> float:
    """Relative change of the box's speed from the first half of a run's
    yardstick readings to the second."""
    readings = record["info"]["yardstick_ms"]
    half = len(readings) // 2
    return abs(median(readings[half:]) / median(readings[:half]) - 1.0)


def cell(med: float, q1: float, q3: float) -> str:
    return f"{med:.6g} [{q1:.6g}, {q3:.6g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    a_runs, b_runs = load(argv[0]), load(argv[1])
    breaches = 0
    print(f"{'workload':18}{'metric':16}{'A median [q1, q3]':>34}"
          f"{'B median [q1, q3]':>34}{'B vs A':>9}{'bound':>7}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        if not a or not b:
            print(f"{workload:18}missing from one set")
            breaches += 1
            continue
        drifted = sum(drift(r) > DRIFT_LIMIT for r in a + b)
        failed = sum(r["failed"] or not r["correct"] for r in a + b)
        for metric in spec["end_to_end"]:
            in_a, in_b = summary(a, metric["name"]), summary(b, metric["name"])
            change = in_b[0] / in_a[0] - 1.0
            worse = -change if metric["better"] == "higher" else change
            spread = max(in_a[2] - in_a[1], in_b[2] - in_b[1]) / in_a[0]
            if worse > metric["bound"]:
                verdict = "BREACH"
                breaches += 1
            elif spread > metric["bound"]:
                verdict = "unresolved (spread above bound)"
            else:
                verdict = "ok"
            print(f"{workload:18}{metric['name']:16}{cell(*in_a):>34}"
                  f"{cell(*in_b):>34}{change:+9.2%}{metric['bound']:7.3f}"
                  f"  {verdict}")
        print(f"{workload:18}runs A={len(a)} B={len(b)}, "
              f"failed or incorrect: {failed}, "
              f"taken while the machine drifted: {drifted}")
        breaches += failed
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
