"""The byte-identity battery (``tests/cli_battery.py``) on the committed
models: every invocation ends in an exit code that README's table names,
never in an exception, and a second pass repeats every digest."""

import re
from pathlib import Path

import cli_battery

from helpers import MODELS_DIR

README = Path(__file__).parent.parent / "README.md"


def test_battery_exits_by_the_readme_table_and_repeats_its_bytes():
    table = set(re.findall(r"^\| (\d+) +\|", README.read_text(), re.M))
    assert table == {"0", "2", "3", "4", "5"}
    paths = sorted(str(p) for p in MODELS_DIR.glob("*.model"))
    first = cli_battery.run(paths)
    codes = {line.split()[1] for line in first}
    assert codes <= table, codes
    assert cli_battery.run(paths) == first
