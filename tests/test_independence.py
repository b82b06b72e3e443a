"""The three routes stay independent: the series oracle shares no code
with the invariant or spectral routes, and the invariant route reads
nothing from the spectral layer.  Importing the package loads every
module, so the check reads each module's import statements."""

import ast
from pathlib import Path

import pytest

import qmcverify

PACKAGE = Path(qmcverify.__file__).parent

# module -> sibling modules it must not import
FORBIDDEN = {
    "oracle": {"invariant", "spectral", "termination"},
    "program": {"invariant", "spectral", "termination"},
    "invariant": {"spectral", "termination"},
}


def imported_modules(path: Path) -> set[str]:
    """The ``qmcverify`` modules that the source at ``path`` imports, at any
    depth (function-level imports included)."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = "qmcverify" if node.level == 1 else ""
            module = ".".join(filter(None, (package, node.module)))
            dotted = [f"{module}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "qmcverify" and len(parts) > 1:
                found.add(parts[1])
    return found


@pytest.mark.parametrize("name", sorted(FORBIDDEN))
def test_route_imports_nothing_from_the_other_routes(name):
    assert not imported_modules(PACKAGE / f"{name}.py") & FORBIDDEN[name]


def test_import_scan_sees_relative_and_absolute_imports(tmp_path):
    source = (
        "from .spectral import build_representation\n"
        "from . import termination\n"
        "import qmcverify.invariant\n"
        "def f():\n"
        "    from qmcverify.oracle import oracle_expectation\n"
        "    from qmcverify import linalg\n"
        "from numpy import fft\n"
    )
    probe = tmp_path / "probe.py"
    probe.write_text(source)
    assert imported_modules(probe) == {"spectral", "termination", "invariant", "oracle", "linalg"}
