"""Byte-identity battery: every CLI command on a set of model files.

Usage::

    PYTHONPATH=src python tests/cli_battery.py [MODEL ...] > battery.txt
    python tests/cli_battery.py --against OTHER_SRC [MODEL ...]
    PYTHONPATH=src python tests/cli_battery.py --reports DIR [MODEL ...]
    PYTHONPATH=src python tests/cli_battery.py --generated DIR --against OTHER_SRC

With no arguments it runs on ``models/*.model``.  Each invocation runs
``qmcverify.cli.main`` in process, with ``--json-out`` into a scratch
directory, and prints one line: a SHA-256 over its stdout, stderr, exit
code and JSON report bytes, then the exit code and the argv, then after
`` | `` a short digest (8 hex digits) of each part on its own:
``stdout``, ``stderr``, ``exit`` and ``json.KEY`` for each top-level key
of the report (``json`` for a report that does not parse).  ``--reports DIR``
also keeps each invocation's JSON report as ``DIR/K.json``, ``K`` its
line number from 0.

``--against OTHER_SRC`` checks that a change leaves the CLI's output
alone: it runs the battery once under ``OTHER_SRC`` and once under the
``src`` next to this file, each in a subprocess with that tree alone on
``PYTHONPATH``, from the same directory and on the same model paths (the
report records the path as given).  It prints each invocation whose
line differs, the parts that moved and how far each ``json.KEY`` part's
numbers moved: the largest relative change over its numeric leaves
(:func:`relative_changes`).  Then it prints, for each part, how many
lines it moved in and how far its numbers moved at most, and exits 1 if
any line differs, else 0.

The committed models are all d <= 3.  A claim that a change keeps the
CLI's bytes should also cover larger ones, which are not committed,
because the tier-1 tests run the battery twice on ``models/``.
``--generated DIR`` writes these into ``DIR`` (:func:`generated`) and
adds them to the models the battery runs on:

- ``walk4`` runs the eigen path with unit spectrum at d = 8, and
  ``walk5`` is certified at d = 10: ``helpers.hadamard_walk_scheme(n)``
  started in |coin 0, vertex 1> (``rho0`` the projector on basis state
  1), with the observable ``M0`` (the scheme's ``m0``).  The two take
  about 45 s together on one tree.
- The perfbench models of seed 1: ``counter_12`` and ``random_12_0``,
  and ``bitflip_0`` of the ``near_unit`` workload, whose invariant route
  runs the doubling stage, from ``perfbench/workloads.py``'s ``build``.

Unlike ``--against`` alone, ``--generated`` needs ``qmcverify``
importable (``PYTHONPATH=src``) to write the walks.

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
import math
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


ROOT = Path(__file__).resolve().parent.parent
# Each perfbench model the battery adds, by the workload that builds it.
PERFBENCH_MODELS = {
    "near_unit": "bitflip_0.model",
    "nilpotent_counter": "counter_12.model",
    "random_wide": "random_12_0.model",
}


def generated(out: Path) -> list[str]:
    """Write the models that the module docstring lists beyond
    ``models/`` into ``out``, and return their paths: ``walk4.model``
    and ``walk5.model``, then the seed-1 perfbench models of
    :data:`PERFBENCH_MODELS`, each built into a scratch directory with
    the rest of its workload and copied from there."""
    import numpy as np

    from helpers import hadamard_walk_scheme
    from qmcverify.model import Model, save_model

    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for n in (4, 5):
        scheme = hadamard_walk_scheme(n)
        rho0 = np.zeros((2 * n, 2 * n))
        rho0[1, 1] = 1.0
        meas = scheme.meas
        paths.append(out / f"walk{n}.model")
        save_model(Model(dim=2 * n, kraus=list(scheme.e.kraus), m0=meas.m0, m1=meas.m1,
                         rho0=rho0, observables={"M0": meas.m0}), paths[-1])
    for workload, name in PERFBENCH_MODELS.items():
        with tempfile.TemporaryDirectory() as scratch:
            workloads.build(workload, 1, ROOT, Path(scratch), smoke=False)
            paths.append(out / name)
            paths[-1].write_bytes((Path(scratch) / name).read_bytes())
    return [str(path) for path in paths]


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


def run(paths: list[str], reports: Path | None = None) -> list[str]:
    """One line per invocation: digest, exit code, argv, part digests.
    With ``reports``, the K-th invocation's JSON report stays there as
    ``K.json``."""
    lines = []
    with tempfile.TemporaryDirectory() as scratch:
        json_out = Path(scratch) / "report.json"
        argvs = [argv for path in paths for argv in invocations(path)]
        for k, argv in enumerate(argvs):
            if reports is not None:
                json_out = reports / f"{k}.json"
            digest, code, parts = run_one(argv, json_out)
            lines.append(f"{digest} {code} {' '.join(argv)} | {parts}")
    return lines


def _numeric_leaves(doc, prefix=()):
    """``{path: float}`` for every number in a parsed report, and for the
    strings ``"inf"``, ``"-inf"`` and ``"nan"`` that stand for one."""
    if isinstance(doc, (dict, list)):
        items = doc.items() if isinstance(doc, dict) else enumerate(doc)
        return {
            path: x for key, value in items
            for path, x in _numeric_leaves(value, (*prefix, key)).items()
        }
    number = isinstance(doc, (int, float)) and not isinstance(doc, bool)
    return {prefix: float(doc)} if number or doc in ("inf", "-inf", "nan") else {}


def _relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def relative_changes(before: bytes, after: bytes) -> dict[str, float]:
    """``{"json.KEY": x}`` for each top-level key of two JSON reports
    whose numbers moved, ``x`` the largest ``|a - b| / max(|a|, |b|)``
    over its numeric leaves matched by path: ``inf`` where one side is
    infinite or NaN and the other is not, or where a number is on one
    side only.  Equal numbers, two NaN included, do not move."""
    old, new = (_numeric_leaves(json.loads(doc)) for doc in (before, after))
    changes: dict[str, float] = {}
    for path in {**old, **new}:
        x = _relative_change(old[path], new[path]) if path in old and path in new else math.inf
        if x:
            name = f"json.{path[0]}"
            changes[name] = max(changes.get(name, 0.0), x)
    return changes


def _parts(line: str) -> dict[str, str]:
    return dict(part.split("=") for part in line.split(" | ", 1)[1].split())


def _changes(reports: tuple[Path, Path], k: int) -> dict[str, float]:
    """:func:`relative_changes` of the K-th invocation's two reports;
    empty when either side wrote none or one that does not parse."""
    try:
        return relative_changes(*((tree / f"{k}.json").read_bytes() for tree in reports))
    except (OSError, ValueError):
        return {}


def against(other_src: str, paths: list[str]) -> int:
    """The battery under ``other_src`` and under this checkout's ``src``,
    compared line by line: prints ``argv | moved parts | part X ...`` for
    each line that differs, ``X`` the largest relative change of a number
    in that part of its JSON report, then ``part: count`` for each part
    that moved, with the largest ``X`` over the lines; returns 1 if any
    line differs, else 0."""
    trees = (other_src, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as scratch:
        reports = (Path(scratch) / "before", Path(scratch) / "after")
        outputs = []
        for tree, kept in zip(trees, reports):
            kept.mkdir()
            outputs.append(subprocess.run(
                [sys.executable, __file__, "--reports", str(kept), *paths],
                env={**os.environ, "PYTHONPATH": tree},
                stdout=subprocess.PIPE, text=True, check=True,
            ).stdout.splitlines())
        argvs = [argv for path in paths for argv in invocations(path)]
        counts: Counter[str] = Counter()
        largest: dict[str, float] = {}
        for k, (argv, old, new) in enumerate(zip(argvs, *outputs)):
            if old != new:
                before, after = _parts(old), _parts(new)
                moved = [name for name in {**before, **after} if before.get(name) != after.get(name)]
                counts.update(moved)
                changes = _changes(reports, k)
                for name, x in changes.items():
                    largest[name] = max(largest.get(name, 0.0), x)
                by = " ".join(f"{name} {x:.2g}" for name, x in changes.items())
                print(f"{' '.join(argv)} | {' '.join(moved)} | {by}")
    for name, count in counts.items():
        by = f", numbers moved by at most {largest[name]:.2g}" if name in largest else ""
        print(f"{name}: {count}{by}")
    return int(outputs[0] != outputs[1])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="byte-identity battery of the CLI")
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="compare with the battery under this src tree")
    parser.add_argument("--reports", metavar="DIR", type=Path,
                        help="keep each invocation's JSON report in this directory")
    parser.add_argument("--generated", metavar="DIR", type=Path,
                        help="write the larger models into this directory and run on them too")
    parser.add_argument("models", nargs="*", metavar="MODEL")
    args = parser.parse_args()
    paths = args.models or sorted(str(p) for p in Path("models").glob("*.model"))
    if args.generated:
        paths += generated(args.generated)
    if args.against:
        sys.exit(against(args.against, paths))
    for line in run(paths, args.reports):
        print(line)
