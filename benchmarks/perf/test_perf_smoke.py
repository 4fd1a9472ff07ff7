"""The benchmark harness on tiny inputs: every workload runs end to end and
prints exactly the metrics `BENCHMARK.json` lists, with their units."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def run(*args: str) -> dict:
    """`run.py --smoke` with `args`; the JSON object on its last line.

    The run gets a session of its own, so that what it leaves running can
    be told from every other process: nothing may be left.
    """
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--seconds", "0.15", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
    assert proc.returncode == 0, err[-2000:]
    assert session_members(proc.pid) == []
    return json.loads(out.splitlines()[-1])


def session_members(session: int) -> list[str]:
    """Command lines of the processes (zombies too) in `session`."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
            with open(f"/proc/{entry}/cmdline", encoding="utf-8") as fh:
                command = fh.read().replace("\0", " ")
        except OSError:  # ended while we looked
            continue
        if int(fields[3]) == session:
            found.append(f"{entry} {command}".strip())
    return found


def units(listed: list[dict]) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in listed}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_end_to_end_metrics_match_the_contract(workload):
    result = run("--workload", workload, "--seed", "3", "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units(SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_trace_run_emits_every_per_layer_metric():
    result = run("--workload", "spill3d-stream", "--seed", "3", "--trace", "1")
    assert result["correct"] is True and result["failed"] == 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units(SPEC["per_layer"])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["storage.leftover_files"] == 0
    assert values["backends.procpool.shm_leaks"] == 0
    assert values["dist.ledger_volume"] == values["dist.model_volume"] > 0


def test_benchmark_json_is_within_the_contract_limits():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert SPEC["paths"] == ["benchmarks/perf"]
    assert SPEC["command"] == ["python3", "benchmarks/perf/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["per_layer"]) <= 128
    listed = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [entry["name"] for entry in listed]
    assert len(set(names)) == len(names)
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", metric["unit"])
        assert metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
