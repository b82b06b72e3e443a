"""Mutation sweep: which module-level constants does the test suite pin?

    python tests/mutation_sweep.py MODULE.NAME=VALUE [MODULE.NAME=VALUE ...]

Each argument names a mutant: ``MODULE`` is a module of ``src/qmcverify``
and ``NAME`` one of its module-level constants, and ``VALUE`` is Python
source that replaces the value assigned to it, e.g.
``invariant._LOEWNER_CHECKED_STEPS=0``.  The sweep copies the checkout
(without ``.git`` and caches) to a temporary directory and runs the tier-1
suite there, first unmutated and then once per mutant, with that one
assignment rewritten and ``-x -q``.  A mutant that makes the suite fail
is killed, one under which it passes survived.  It prints one line per
mutant and exits 0 if all were killed, 1 if any survived, and 2 on a bad
argument or when the unmutated suite fails.  It needs only the standard
library and pytest; pytest does not collect it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-run", "*.egg-info"
)
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def parse(spec: str) -> tuple[str, str, str]:
    """``(module, name, value)`` of one ``MODULE.NAME=VALUE`` argument."""
    target, _, value = spec.partition("=")
    module, _, name = target.rpartition(".")
    if not (module and name and value.strip()):
        raise ValueError(f"expected MODULE.NAME=VALUE, got {spec!r}")
    return module, name, value.strip()


def mutate(source: str, name: str, value: str) -> tuple[str, str]:
    """``source`` with its one module-level assignment to ``name``
    replaced by ``name = value``, and the source of the old value."""
    tree = ast.parse(source)
    hits = [
        node for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name) and node.targets[0].id == name
    ]
    if len(hits) != 1:
        raise ValueError(f"{len(hits)} module-level assignments to {name}, expected one")
    node = hits[0]
    old = ast.get_source_segment(source, node.value)
    lines = source.splitlines(keepends=True)
    lines[node.lineno - 1:node.end_lineno] = [f"{name} = {value}\n"]
    mutated = "".join(lines)
    ast.parse(mutated)  # a VALUE that is not an expression fails here
    return mutated, old


def run_suite(workdir: Path, timeout: float) -> tuple[bool, str, float]:
    """Run tier-1 with ``-x`` in ``workdir``: whether it passed, the first
    failure (or the timeout) and the seconds it took."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *TIER1, "-x"], cwd=workdir, env=env,
            capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return False, f"timed out after {timeout:.0f} s", time.perf_counter() - start
    elapsed = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    first = next((ln for ln in lines if ln.startswith(("FAILED ", "ERROR "))), None)
    return proc.returncode == 0, first or (lines[-1] if lines else f"exit {proc.returncode}"), elapsed


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    # Every mutant is checked against the checkout before the suite runs.
    mutants = []
    try:
        for spec in argv:
            module, name, value = parse(spec)
            rel = Path("src", "qmcverify", f"{module}.py")
            original = (ROOT / rel).read_text()
            mutants.append((f"{module}.{name} = {value}", rel, original,
                            *mutate(original, name, value)))
    except (OSError, SyntaxError, ValueError) as exc:
        print(f"mutation_sweep: {exc}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutation-sweep-") as tmp:
        workdir = Path(tmp) / "checkout"
        shutil.copytree(ROOT, workdir, ignore=IGNORE)
        passed, summary, base_s = run_suite(workdir, timeout=3600)
        print(f"unmutated: {summary} ({base_s:.1f} s)", flush=True)
        if not passed:
            print("mutation_sweep: the unmutated suite fails; no mutant can be judged",
                  file=sys.stderr)
            return 2
        survivors = 0
        for label, rel, original, mutated, old in mutants:
            (workdir / rel).write_text(mutated)
            try:
                passed, summary, elapsed = run_suite(workdir, timeout=max(60.0, 5 * base_s))
            finally:
                (workdir / rel).write_text(original)
            verdict = "SURVIVED" if passed else f"killed: {summary}"
            survivors += passed
            print(f"{label} (was {old}): {verdict} ({elapsed:.1f} s)", flush=True)
    print(f"{len(mutants) - survivors} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
