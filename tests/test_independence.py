"""The three routes stay independent: the series oracle shares no code
with the invariant or spectral routes, the invariant route reads nothing
from the spectral layer, the spectral layer nothing from the invariant
route or the termination checks (its no-unit certificate reads only
the Kraus stack), and the random programs behind the golden
records are drawn, and the records regenerated, without the invariant
or spectral route.  Importing the package loads every module, so the
check reads each module's import statements."""

import ast
import inspect
import textwrap
from pathlib import Path

import pytest

import qmcverify

PACKAGE = Path(qmcverify.__file__).parent
TESTS = Path(__file__).parent

# module -> package modules it must not import
FORBIDDEN = {
    "oracle": {"invariant", "spectral", "termination"},
    "program": {"invariant", "spectral", "termination"},
    "invariant": {"spectral", "termination"},
    # The spectral route decides the unit circle from its own Kraus stack
    # and R.
    "spectral": {"invariant", "termination"},
    # The programs behind the series oracle's golden records, and the
    # script that recomputes the records from them.
    "sampling": {"invariant", "spectral", "termination"},
    "regen_goldens": {"invariant", "spectral", "termination"},
}
# The entries of FORBIDDEN that are test modules, not package modules.
TEST_SIDE = {"sampling", "regen_goldens"}


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
                # A name taken from the package root counts as an import
                # of the module that defines it.
                defined = getattr(getattr(qmcverify, parts[1], None), "__module__", "")
                found.add(defined.split(".")[1] if defined.startswith("qmcverify.") else parts[1])
    return found


@pytest.mark.parametrize("name", sorted(FORBIDDEN))
def test_route_imports_nothing_from_the_other_routes(name):
    path = (TESTS if name in TEST_SIDE else PACKAGE) / f"{name}.py"
    assert not imported_modules(path) & FORBIDDEN[name]


def identifiers(path: Path) -> set[str]:
    """Every name, attribute and imported name in the source at ``path``;
    docstrings and comments are not read."""
    return source_identifiers(path.read_text())


def source_identifiers(source: str) -> set[str]:
    """Every name, attribute and imported name in ``source``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.split(".")[-1])
    return found


def test_series_step_matrix_is_not_the_shared_builder():
    # Each route builds its d^2 x d^2 matrix with its own builder, so a
    # fault in one builder cannot hide in all three: the series from
    # apply_mat, the spectral route slab by slab from the Kraus stack, and
    # the invariant route's doubling stage from matrix_representation.
    program, spectral = identifiers(PACKAGE / "program.py"), identifiers(PACKAGE / "spectral.py")
    assert not {"matrix_representation", "_step_coordinates"} & program
    assert "apply_mat" in program
    assert "matrix_representation" not in spectral
    assert "_step_coordinates" in spectral
    assert "matrix_representation" in identifiers(PACKAGE / "invariant.py")


def test_forward_certificate_reads_only_the_kraus_stack(monkeypatch):
    # The certificate is the spectral route's own: it takes the survival
    # step and its candidate, and no name in it reaches the invariant
    # route or the termination checks.  The build checks its resolvent
    # sum with it too, once per build.
    from helpers import bitflip_program

    from qmcverify import ProgramScheme, build_representation, spectral
    from qmcverify.spectral import _kraus_slack, forward_certificate, kraus_certificate

    assert list(inspect.signature(forward_certificate).parameters) == ["g"]
    assert list(inspect.signature(kraus_certificate).parameters) == ["g", "v"]
    for fn in (forward_certificate, kraus_certificate, _kraus_slack):
        names = source_identifiers(textwrap.dedent(inspect.getsource(fn)))
        assert not {n for n in names if "invariant" in n.lower() or "termination" in n.lower()}

    calls = []

    def recording(g, v):
        calls.append(g)
        return kraus_certificate(g, v)

    monkeypatch.setattr(spectral, "kraus_certificate", recording)
    for p in (0.5, 1.0 - 1e-13, 1.0 - 1e-15):
        prog = bitflip_program(p, 0.6, 0.8)
        for scheme in (prog, ProgramScheme(prog.e, prog.meas)):
            calls.clear()
            build_representation(scheme)
            assert calls == [scheme.g]


def test_import_scan_sees_relative_and_absolute_imports(tmp_path):
    source = (
        "from .spectral import build_representation\n"
        "from . import termination\n"
        "import qmcverify.invariant\n"
        "def f():\n"
        "    from qmcverify.oracle import oracle_expectation\n"
        "    from qmcverify import linalg\n"
        "from numpy import fft\n"
        "from qmcverify import certified_expectation\n"
    )
    probe = tmp_path / "probe.py"
    probe.write_text(source)
    assert imported_modules(probe) == {"spectral", "termination", "invariant", "oracle", "linalg"}
    probe.write_text("from qmcverify import build_representation, Observable\n")
    assert imported_modules(probe) == {"spectral", "channels"}
