"""One benchmark process: set up one workload, run timed passes, check answers.

Started by ``run.py`` with BLAS and OpenMP pinned to one thread, from the
root of a checkout.  It imports the verifier from ``src/``, generates and
writes the workload's models, warms every CLI command up on a tiny model,
and then runs the workload's fixed job list through
``qmcverify.cli.main`` in-process, pass after pass, until ``--seconds``
is used up.  With ``--trace 1`` traced and untraced passes alternate.
The last line of standard output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import workloads
from tracing import COUNT_METRICS, ROOT_LAYER, Tracer, median_times, summarize

COMMANDS = {"verify": "verify_s", "runtime": "runtime_s", "terminate": "terminate_s"}

# The host's speed per CPU second swings by 10-30% within seconds, more
# than the bounds in BENCHMARK.json allow.  A fixed calibration task runs
# before every job and after the last; each job's time is scaled by
# CALIBRATION_NOMINAL_S over the mean of the two calibrations around it,
# and setup_s by the median of calibrations run just after set-up.  The
# reported times are therefore seconds at the speed where the calibration
# takes 12.5 ms.  Unscaled times and every calibration go to the details.
CALIBRATION_NOMINAL_S = 0.0125
SETUP_CALIBRATIONS = 7  # run after set-up is timed, to scale setup_s
_cal_rng = np.random.default_rng(0)
_CAL_SMALL = _cal_rng.standard_normal((4, 4)) + 1j * _cal_rng.standard_normal((4, 4))
_CAL_MEDIUM = _cal_rng.standard_normal((64, 64))


def calibrate() -> float:
    """Time a fixed mix of the work the jobs do, about a third each:
    interpreter bytecode, small-matrix numpy calls and a LAPACK solve."""
    start = time.perf_counter()
    s = 0
    for i in range(45000):
        s += i * i % 7
    x = np.eye(4, dtype=complex)
    for _ in range(600):
        x = _CAL_SMALL @ x
        x /= np.abs(x).max()
    np.linalg.eig(_CAL_MEDIUM)
    return time.perf_counter() - start


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True, help="run directory")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() just before this process was started")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true", help="minimal model sizes")
    return ap.parse_args(argv)


def run_job(call, job, value, json_out: Path) -> dict:
    """Run and check one CLI job ``job.repeats`` times in a row; only the
    ``call`` itself is timed, and the job's time is the median call.  The
    report is dropped after the check so that memory does not grow with
    the number of passes."""
    times, codes, failures = [], [], []
    for _ in range(job.repeats):
        json_out.unlink(missing_ok=True)
        gc.collect()
        sink = io.StringIO()
        error = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = time.perf_counter()
            try:
                rc = call(job.argv(str(json_out)))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a crash is a failed job, not a crashed run
                rc, error = None, f"raised {type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - start)
        report = json.loads(json_out.read_text()) if json_out.exists() else None
        codes.append(rc)
        failure = check(job, {"rc": rc, "error": error}, report, value)
        if failure:
            failures.append(failure)
    return {"rc": codes[0] if len(set(codes)) == 1 else codes,
            "elapsed": statistics.median(times), "failures": failures}


def _close(got: float, want: float, tol: float) -> bool:
    if math.isinf(got) or math.isinf(want):
        return got == want
    return abs(got - want) <= tol


def check(job, res: dict, report: dict | None, value) -> tuple[str, str] | None:
    """Return ``(kind, reason)`` for a failed job, else None.  Kind "wrong"
    means an answer missed its reference; the others mean no answer."""
    if res["error"]:
        return "error", res["error"]
    if res["rc"] != job.exit_code:
        return "exit", f"exit code {res['rc']}, expected {job.exit_code}"
    if report is None:
        return None if job.exit_code == 2 else ("exit", "no JSON report written")
    if value is not None:
        for m in report["methods"]:
            if not _close(float(m["value"]), value, job.tol):  # "inf" parses too
                return "wrong", f"{m['method']} = {m['value']}, reference {value!r}"
    if job.termination is not None:
        t = report["termination"]
        got = (t["terminates"], t["terminates_at"], t["almost_terminates"])
        if got != job.termination:
            return "wrong", f"termination {got}, reference {job.termination}"
    if job.steps is not None:
        ps = [s["p"] for s in report["steps"]]
        if len(ps) != len(job.steps) or not all(
            _close(a, b, job.tol) for a, b in zip(ps, job.steps)
        ):
            return "wrong", f"step probabilities {ps[:4]}..., reference {job.steps[:4]}..."
    return None


def job_metrics(jobs, passes: list[dict], key: str) -> dict:
    """sweep_s and the per-command times from the job times under ``key``."""
    sweeps = [sum(r[key] for r in p["results"]) for p in passes]
    metrics = {"sweep_s": statistics.median(sweeps)}
    for command, name in COMMANDS.items():
        # Every job of the command counts, each through its median over
        # passes; the median of the pooled times would rest on one job.
        metrics[name] = statistics.geometric_mean([
            statistics.median(p["results"][i][key] for p in passes)
            for i, job in enumerate(jobs) if job.command == command
        ])
    return metrics


def warm_up(call, workdir: Path) -> None:
    """Run every command once on a tiny model so that lazy imports and
    first-call costs land in set-up, not in the first timed job."""
    kraus, m0, m1 = workloads.bitflip(0.5)
    path = workdir / "warmup.model"
    workloads.write_model(path, kraus, m0, m1, [[0, 0], [0, 1]], {"P0": m0})
    out = str(workdir / "warmup.json")
    for argv in (
        ["verify", str(path), "-o", "P0"],
        ["runtime", str(path)],
        ["terminate", str(path)],
        ["terminate", str(path), "--scope", "scheme"],
        ["spectrum", str(path)],
        ["simulate", str(path), "--steps", "3"],
    ):
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            call(argv + ["--json-out", out])


def code_hash(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")) + sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_fingerprint(path: Path, current: dict) -> list[str]:
    """Compare with the record an earlier run of the same code and seed
    left, and merge the current record into it."""
    previous = json.loads(path.read_text()) if path.exists() else {}
    mismatches = [
        f"{key} differs from an earlier run with the same code and seed"
        for key in current
        if key in previous and previous[key] != current[key]
    ]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**previous, **current}, sort_keys=True))
    return mismatches


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
    }


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    sys.path.insert(0, str(src))
    import qmcverify
    from qmcverify.cli import main as cli

    if Path(qmcverify.__file__).resolve().parent != (src / "qmcverify").resolve():
        raise SystemExit(f"imported qmcverify from {qmcverify.__file__}, not from {src}")
    run_name = f"{args.workload}-seed{args.seed}{'-smoke' if args.smoke else ''}"
    workdir = args.out / f"{args.workload}-models"
    workdir.mkdir(parents=True, exist_ok=True)
    jobs, hashes = workloads.build(args.workload, args.seed, root, workdir, args.smoke)
    warm_up(cli, workdir)
    setup_s = time.monotonic() - args.spawned_at
    setup_calibration = statistics.median(calibrate() for _ in range(SETUP_CALIBRATIONS))
    setup_s *= CALIBRATION_NOMINAL_S / setup_calibration
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_calibration_s": setup_calibration}))
        return 0

    values = [job.value() if callable(job.value) else job.value for job in jobs]
    tracer = Tracer()
    traced_call = lambda argv: tracer.span(ROOT_LAYER, cli, argv)  # noqa: E731
    json_out = workdir / "job.json"
    passes = []  # {"traced", "results", "summary", "spans"}
    began = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 0
        started = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            results, calibrations = [], []
            for i, job in enumerate(jobs):
                calibrations.append(calibrate())
                tracer.job = f"{len(passes)}:{i}"
                results.append(run_job(traced_call if traced else cli, job, values[i], json_out))
            calibrations.append(calibrate())
        finally:
            tracer.uninstall()
        for res, before, after in zip(results, calibrations, calibrations[1:]):
            res["scaled"] = res["elapsed"] * CALIBRATION_NOMINAL_S / ((before + after) / 2)
        record = {"traced": traced, "results": results, "calibrations": calibrations}
        if traced:
            record["summary"] = summarize(tracer.spans, tracer.counts)
            record["spans"] = tracer.spans
        passes.append(record)
        now = time.perf_counter()
        enough = len(passes) >= (3 if args.trace else 2)
        if enough and (now - began) + (now - started) / 2 > args.seconds:
            break

    failures, kinds, mismatches = {}, [], []
    for p in passes:
        for job, res in zip(jobs, p["results"]):
            for kind, reason in res["failures"]:
                kinds.append(kind)
                failures.setdefault(job.label, reason)
    exit_codes = [[res["rc"] for res in p["results"]] for p in passes]
    if any(codes != exit_codes[0] for codes in exit_codes):
        mismatches.append("exit codes differ between passes")
    if any(isinstance(rc, list) for rc in exit_codes[0]):
        mismatches.append("exit codes differ between repeated calls of a job")

    untraced = [p for p in passes if not p["traced"]]
    metrics = job_metrics(jobs, untraced, "scaled")
    unscaled = job_metrics(jobs, untraced, "elapsed")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fingerprint = {"models": hashes, "exit_codes": exit_codes[0]}

    traced_passes = [p for p in passes if p["traced"]]
    if traced_passes:
        summaries = [p["summary"] for p in traced_passes]
        counts = {k: summaries[0][k] for k in COUNT_METRICS}
        if any({k: s[k] for k in COUNT_METRICS} != counts for s in summaries):
            mismatches.append("per-layer counts differ between traced passes")
        traced_sweep = statistics.median(
            sum(r["scaled"] for r in p["results"]) for p in traced_passes
        )
        metrics.update(median_times(summaries))
        metrics.update(counts)
        metrics["trace.overhead_frac"] = traced_sweep / metrics["sweep_s"] - 1
        metrics["host.calibration_s"] = statistics.median(
            c for p in passes for c in p["calibrations"]
        )
        fingerprint["counts"] = counts
        spans_file = args.out / "spans" / f"{run_name}.json"
        spans_file.parent.mkdir(parents=True, exist_ok=True)
        spans_file.write_text(json.dumps({
            "fields": ["layer", "start", "end", "parent", "job"],
            "passes": [p["spans"] for p in traced_passes],
        }))

    fp_file = args.out / "fingerprints" / f"{code_hash(root)}-{run_name}.json"
    mismatches += compare_fingerprint(fp_file, fingerprint)

    print(json.dumps({
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration,
        "passes": len(passes),
        "traced_passes": [p["traced"] for p in passes],
        "attempted": sum(job.repeats for job in jobs) * len(passes),
        "failed": len(kinds),
        "wrong": kinds.count("wrong"),
        "failures": failures,
        "mismatches": mismatches,
        "models": hashes,
        "jobs": [
            {"label": job.label, "exit_code": [p["results"][i]["rc"] for p in passes],
             "expected_exit": job.exit_code,
             "seconds": [p["results"][i]["elapsed"] for p in passes]}
            for i, job in enumerate(jobs)
        ],
        "calibrations_s": [p["calibrations"] for p in passes],
        "unscaled": unscaled,
        "metrics": metrics,
        "env": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
