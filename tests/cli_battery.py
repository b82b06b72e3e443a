"""Byte-identity battery: every CLI command on a set of model files.

Usage::

    PYTHONPATH=src python tests/cli_battery.py [MODEL ...] > battery.txt
    python tests/cli_battery.py --against OTHER_SRC [MODEL ...]

With no arguments it runs on ``models/*.model``.  Each invocation runs
``qmcverify.cli.main`` in process, with ``--json-out`` into a scratch
directory, and prints one line: a SHA-256 over its stdout, stderr, exit
code and JSON report bytes, then the exit code and the argv, then after
`` | `` a short digest (8 hex digits) of each part on its own:
``stdout``, ``stderr``, ``exit`` and ``json.KEY`` for each top-level key
of the report (``json`` for a report that does not parse).

``--against OTHER_SRC`` checks that a change leaves the CLI's output
alone: it runs the battery once under ``OTHER_SRC`` and once under the
``src`` next to this file, each in a subprocess with that tree alone on
``PYTHONPATH``, from the same directory and on the same model paths (the
report records the path as given).  It prints each invocation whose
line differs and the parts that moved, then how many lines each part
moved in, and exits 1 if any line differs, else 0.

The invocations per model: ``verify`` for every observable under each
``--method``, ``runtime``, ``terminate`` in both scopes and
``spectrum``, each at the model's ``eps_unit`` and with ``--eps-unit``
0 and 0.5; and ``simulate``.  Then the bad and borderline numbers, so
that a change to the rule that decides them shows up as a moved
``stderr`` or ``exit`` part: ``runtime`` with each override flag at
each of :data:`BAD_NUMBERS`, ``runtime --n-max 1e6``, and ``simulate``
with ``--steps`` 0 and 2.5.  A model without ``rho0`` runs them too;
the commands that need an initial state exit 2.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

METHODS = ("series", "invariant", "spectral", "all")
EPS_UNITS = (None, "0", "0.5")
OVERRIDE_FLAGS = ("--tail-tol", "--n-max", "--eps-unit", "--tol")
BAD_NUMBERS = ("nan", "inf", "-1", "0", "1e400")


def invocations(path: str) -> list[list[str]]:
    """The argv list for the model file at ``path``, without
    ``--json-out``.  A file that is not a JSON object gets the commands
    without ``verify``, which need its observable names."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        observables = sorted(doc.get("observables", {}))
    except (OSError, ValueError, AttributeError):
        observables = []
    out = []
    for eps in EPS_UNITS:
        extra = [] if eps is None else ["--eps-unit", eps]
        for name in observables:
            for method in METHODS:
                out.append(["verify", path, "-o", name, "--method", method, *extra])
        out.append(["runtime", path, *extra])
        for scope in ("program", "scheme"):
            out.append(["terminate", path, "--scope", scope, *extra])
        out.append(["spectrum", path, *extra])
    out.append(["simulate", path])
    for flag in OVERRIDE_FLAGS:
        for value in BAD_NUMBERS:
            out.append(["runtime", path, flag, value])
    out.append(["runtime", path, "--n-max", "1e6"])
    for steps in ("0", "2.5"):
        out.append(["simulate", path, "--steps", steps])
    return out


def _short(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:8]


def _part_digests(stdout: bytes, stderr: bytes, code: bytes, report: bytes) -> str:
    """``name=digest`` for each part of one invocation.  A report's
    top-level values are digested as ``json.dumps`` writes them, keys
    sorted; parsing and writing back keeps every float's bits."""
    parts = {"stdout": stdout, "stderr": stderr, "exit": code}
    if report:
        try:
            doc = json.loads(report)
        except ValueError:
            parts["json"] = report
        else:
            for key in sorted(doc):
                parts[f"json.{key}"] = json.dumps(doc[key], sort_keys=True).encode()
    return " ".join(f"{name}={_short(data)}" for name, data in parts.items())


def run_one(argv: list[str], json_out: Path) -> tuple[str, str, str]:
    """``(digest, exit code, part digests)`` of one in-process CLI call.
    An exception that escapes ``main`` is recorded as ``raised <type>`` in
    place of the code, so that the battery runs to the end and the diff
    shows it."""
    from qmcverify.cli import main

    json_out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = str(main([*argv, "--json-out", str(json_out)]))
        except SystemExit as exc:
            code = str(exc.code)
        except Exception as exc:  # noqa: BLE001 -- recorded, not hidden
            code = f"raised {type(exc).__name__}"
    report = json_out.read_bytes() if json_out.is_file() else b""
    parts = (stdout.getvalue().encode(), stderr.getvalue().encode(), code.encode(), report)
    digest = hashlib.sha256()
    for part in parts:
        digest.update(len(part).to_bytes(8, "little"))
        digest.update(part)
    return digest.hexdigest(), code, _part_digests(*parts)


def run(paths: list[str]) -> list[str]:
    """One line per invocation: digest, exit code, argv, part digests."""
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        json_out = Path(scratch) / "report.json"
        for path in paths:
            for argv in invocations(path):
                digest, code, parts = run_one(argv, json_out)
                lines.append(f"{digest} {code} {' '.join(argv)} | {parts}")
    return lines


def _parts(line: str) -> dict[str, str]:
    return dict(part.split("=") for part in line.split(" | ", 1)[1].split())


def against(other_src: str, paths: list[str]) -> int:
    """The battery under ``other_src`` and under this checkout's ``src``,
    compared line by line: prints ``argv | moved parts`` for each line
    that differs, then ``part: count`` for each part that moved; returns
    1 if any line differs, else 0."""
    trees = (other_src, str(Path(__file__).resolve().parent.parent / "src"))
    outputs = [
        subprocess.run(
            [sys.executable, __file__, *paths], env={**os.environ, "PYTHONPATH": tree},
            stdout=subprocess.PIPE, text=True, check=True,
        ).stdout.splitlines()
        for tree in trees
    ]
    argvs = [argv for path in paths for argv in invocations(path)]
    counts: Counter[str] = Counter()
    for argv, old, new in zip(argvs, *outputs):
        if old != new:
            before, after = _parts(old), _parts(new)
            moved = [name for name in {**before, **after} if before.get(name) != after.get(name)]
            counts.update(moved)
            print(f"{' '.join(argv)} | {' '.join(moved)}")
    for name, count in counts.items():
        print(f"{name}: {count}")
    return int(outputs[0] != outputs[1])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="byte-identity battery of the CLI")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="compare with the battery under this src tree")
    parser.add_argument("models", nargs="*", metavar="MODEL")
    args = parser.parse_args()
    paths = args.models or sorted(str(p) for p in Path("models").glob("*.model"))
    if args.against:
        sys.exit(against(args.against, paths))
    for line in run(paths):
        print(line)
