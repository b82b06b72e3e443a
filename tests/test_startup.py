"""The package from outside: its public names, what starting the CLI
imports, and ``python -m qmcverify`` from a checkout."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import qmcverify

ROOT = Path(__file__).parent.parent
MODEL = str(ROOT / "models" / "bitflip_p05.model")


# Lemma diagnostics that only the tests call; they live in tests/helpers.py.
TEST_ONLY = {
    "check_recursion",
    "choi_matrix",
    "completion_expansion_residual",
    "filtered_power_residual",
    "positive_part_decompose",
    "power_norm_bound_check",
}

# The Schrödinger-picture machinery of the spectral closed forms, which
# now read tr(E0*(P) X) on d x d; the vec-coordinate helpers and the
# complex-scalar guard of the spectral layer, which now stays in its real
# Hermitian basis; the oracle's copy of DEFAULT_N_MAX; and the two invariant
# entry points that certified_expectation and cert.qv1_value replace.
REMOVED = {
    "IMAG_TOL",
    "ORACLE_N_MAX",
    "_real_part",
    "_vec_coordinates",
    "as_complex_matrix",
    "expectation_via_invariant",
    "general_expectation",
    "kron",
    "maximally_entangled_vector",
    "unvec",
}


def test_public_names_are_sorted_resolve_and_leave_out_test_only_diagnostics():
    names = qmcverify.__all__
    assert names == sorted(names)
    for name in names:
        assert getattr(qmcverify, name) is not None
    assert not TEST_ONLY & set(names)
    assert not TEST_ONLY & set(vars(qmcverify))


def test_no_module_binds_a_removed_or_test_only_name():
    modules = [qmcverify] + [
        importlib.import_module(f"qmcverify.{info.name}")
        for info in pkgutil.iter_modules(qmcverify.__path__)
    ]
    for module in modules:
        assert not (TEST_ONLY | REMOVED) & set(vars(module)), module.__name__


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_verify_and_spectrum_import_neither_scipy_nor_numpy_ma():
    # scipy.linalg costs about 0.3 s of start-up and numpy.ma about 10 ms
    # (see qmcverify.linalg); no command may pull either in.
    script = f"""
import contextlib, io, sys
from qmcverify.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["verify", {MODEL!r}, "-o", "Z"]), main(["spectrum", {MODEL!r}])]
heavy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" or m.startswith("numpy.ma."))
heavy += ["numpy.ma"] if "numpy.ma" in sys.modules else []
print(codes, heavy)
"""
    done = run_python("-c", script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[0, 0] []"


def test_python_dash_m_runs_the_cli():
    done = run_python("-m", "qmcverify", "terminate", MODEL, "--scope", "scheme")
    assert done.returncode == 0, done.stderr
    assert "almost terminates: yes" in done.stdout
