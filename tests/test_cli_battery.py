"""The byte-identity battery (``tests/cli_battery.py``) on the committed
models: every invocation ends in an exit code that README's table names,
never in an exception, and a second pass repeats every digest; and its
``--against`` comparison of a tree with itself finds nothing."""

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

import cli_battery
from qmcverify.model import load_model

from helpers import MODELS_DIR

ROOT = Path(__file__).parent.parent
README = ROOT / "README.md"


def test_battery_exits_by_the_readme_table_and_repeats_its_bytes():
    table = set(re.findall(r"^\| (\d+) +\|", README.read_text(), re.M))
    assert table == {"0", "2", "3", "4", "5"}
    paths = sorted(str(p) for p in MODELS_DIR.glob("*.model"))
    first = cli_battery.run(paths)
    codes = {line.split()[1] for line in first}
    assert codes <= table, codes
    assert cli_battery.run(paths) == first


def test_battery_against_its_own_src_prints_nothing_and_exits_0():
    proc = subprocess.run(
        [sys.executable, "tests/cli_battery.py", "--against", "src", "models/m1zero.model"],
        cwd=ROOT, capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_relative_changes_names_each_part_and_how_far_its_numbers_moved():
    before = {
        "methods": [{"method": "spectral", "value": 1.0, "diagnostics": {"margin": 0.5}}],
        "agreement": {"max_delta": 1e-12, "ok": True},
        "termination": {"eta": "nan", "lam": "inf"},
        "options": {"tol": 1e-6},
        "command": "runtime",
    }
    after = json.loads(json.dumps(before))
    after["methods"][0]["value"] = 1.0 + 2**-52
    after["agreement"]["max_delta"] = 2e-12
    after["command"] = "verify"
    changes = cli_battery.relative_changes(json.dumps(before).encode(), json.dumps(after).encode())
    assert changes == {"json.methods": 2**-52 / (1 + 2**-52), "json.agreement": 0.5}
    after["termination"]["lam"] = 3.0
    del after["options"]["tol"]
    changes = cli_battery.relative_changes(json.dumps(before).encode(), json.dumps(after).encode())
    assert changes["json.termination"] == changes["json.options"] == math.inf


def test_generated_writes_the_larger_models_the_docstring_lists(tmp_path):
    paths = cli_battery.generated(tmp_path)
    names = ["walk4", "walk5", "bitflip_0", "counter_12", "random_12_0"]
    assert paths == [str(tmp_path / f"{name}.model") for name in names]
    models = [load_model(path) for path in paths]
    assert [m.dim for m in models] == [8, 10, 2, 12, 12]
    assert list(models[0].observables) == ["M0"]
    assert models[0].rho0[1, 1] == 1.0 and np.trace(models[0].rho0) == 1.0
