"""Steadiness check of the benchmark itself.

    python3 perfbench/steady_check.py          # or: python3 -m pytest perfbench/steady_check.py

Runs every workload twice with the same seed in traced mode and once
untraced, each as its own process through the benchmark command, with the
shortest run the benchmark allows.  It asserts that every run passes its
output checks, that every count repeats exactly between the two traced
runs, and that the printed metrics are exactly the ones BENCHMARK.json
declares.  Takes a few minutes.  The file name keeps it out of the
repository's default test collection.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import EXACT_METRICS  # noqa: E402

SEED = 7
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    return result


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def check_workload(workload: str) -> None:
    untraced = bench(workload, 0)
    assert {k: v["unit"] for k, v in untraced["metrics"].items()} == declared("end_to_end")

    first = bench(workload, 1)
    second = bench(workload, 1)
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared("per_layer")
    for name in sorted(EXACT_METRICS):
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        assert a == b, f"{workload}: {name} changed between runs: {a!r} != {b!r}"


def test_flock_is_steady():
    check_workload("flock")


def test_field_is_steady():
    check_workload("field")


def test_organize_is_steady():
    check_workload("organize")


if __name__ == "__main__":
    for w in SPEC["workloads"]:
        check_workload(w["name"])
        print(f"{w['name']}: counts repeat, outputs pass their checks", flush=True)
