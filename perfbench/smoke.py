"""Smoke test of the benchmark itself; not part of the unit test suite.

Runs every workload at its minimal size, untraced and traced, and checks
that the result line names every metric of ``BENCHMARK.json`` with its
unit, that every answer is correct, and that no job of a generated
workload fails.  Run from the root of a checkout:

    python3 perfbench/smoke.py

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

GENERATED = ("near_unit", "nilpotent_counter", "random_wide")


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit code {proc.returncode}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    if got != wanted:
        problems.append(f"{where}: metrics {got}, expected {wanted}")
    if not all(isinstance(m.get("value"), (int, float)) for m in result["metrics"].values()):
        problems.append(f"{where}: a metric value is not a number")
    if result.get("correct") is not True:
        problems.append(f"{where}: correct is {result.get('correct')}")
    if workload in GENERATED and result.get("failed") != 0:
        problems.append(f"{where}: {result.get('failed')} failed jobs, expected none")
    return problems


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_run(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}", flush=True)
            problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
