"""Benchmark of qmcverify: end-to-end CLI job times on four workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload near_unit --seed 1 --seconds 25 --trace 0

Each run starts ``worker.py`` processes with BLAS and OpenMP pinned to one
thread.  With ``--trace 0`` it first starts six set-up-only workers
(``setup_s`` is the median of their set-up times and the measuring
worker's), then one worker that times the workload's jobs and checks every
answer.  Times are scaled to a reference speed by a calibration task (see
``worker.py``).  With ``--trace 1`` one worker alternates traced and untraced
passes and reports per-layer self times and counts.  A summary goes to
standard output, followed by one JSON line with the metrics named in
``BENCHMARK.json``; everything else, including the environment and each
model's hash, goes to ``.perfbench-run/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import NAMES

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 7
WORKER_TIMEOUT_S = 170
PINNED = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="minimal model sizes, for checking the benchmark itself")
    return ap.parse_args(argv)


def spawn(args, out: Path, setup_only: bool) -> dict:
    """Run one worker to completion and return its JSON result line."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out),
    ]
    cmd += ["--setup-only"] * setup_only + ["--smoke"] * args.smoke
    env = {**os.environ, **PINNED}
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "qmcverify" / "__init__.py").is_file():
        print("error: run from the root of a qmcverify checkout (no src/qmcverify)",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    out = root / ".perfbench-run"

    setups = []
    if not args.trace:
        setups = [spawn(args, out, True)["setup_s"] for _ in range(SETUP_RUNS - 1)]
    result = spawn(args, out, False)
    setups.append(result["setup_s"])
    values = {**result["metrics"], "setup_s": statistics.median(setups)}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the worker reported no {missing}", file=sys.stderr)
        return 1

    record = {**result, "args": vars(args), "setup_samples_s": setups}
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    results = out / "results" / f"{name}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=1, sort_keys=True))

    failed_frac = result["failed"] / result["attempted"]
    print(f"workload {args.workload} seed {args.seed}: {result['passes']} passes, "
          f"{result['attempted']} calls, {result['failed']} failed "
          f"(failed_frac {failed_frac:.4f}), {result['wrong']} wrong answers")
    for label, reason in result["failures"].items():
        print(f"  failed: {label}: {reason}")
    for mismatch in result["mismatches"]:
        print(f"  not deterministic: {mismatch}")
    print(f"env: {json.dumps(result['env'], sort_keys=True)}")
    print(f"models: {json.dumps(result['models'], sort_keys=True)}")
    print(f"details: {results.relative_to(root)}")
    print(json.dumps({
        "correct": result["wrong"] == 0 and not result["mismatches"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
