"""The package from outside: its public names, what starting the CLI
imports, and ``python -m qmcverify`` from a checkout."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qmcverify
from qmcverify.cli import main

ROOT = Path(__file__).parent.parent
MODEL = str(ROOT / "models" / "bitflip_p05.model")


# Lemma diagnostics and the fixed-point reference that only the tests
# call, which live in tests/helpers.py, and the random instance
# generators, which live in tests/sampling.py.
TEST_ONLY = {
    "check_recursion",
    "choi_matrix",
    "completion_expansion_residual",
    "filtered_power_residual",
    "oracle_fixed_point",
    "positive_part_decompose",
    "power_norm_bound_check",
    "random_channel",
    "random_contracting_program",
    "random_density",
    "random_measurement",
    "random_observable",
    "random_program",
    "random_scheme",
    "random_unitary",
}

# The Schrödinger-picture machinery of the spectral closed forms, which
# now read tr(E0*(P) X) on d x d; the vec-coordinate helpers and the
# complex-scalar guard of the spectral layer, which now stays in its real
# Hermitian basis; the oracle's copy of DEFAULT_N_MAX; the two invariant
# entry points that certified_expectation and cert.qv1_value replace; the
# two result types and the second entry point of the series pass, whose
# one result SeriesPass both public series entry points now return; and
# the invariant route's second result type and certificate builder, whose
# row check_conditions now builds; the whole-matrix Hermitian-basis
# formula, which the slab builder _step_coordinates replaces; the step
# matrix's Hermiticity guard, which no Kraus family can trip; the
# unit-cluster filter over a whole-spectrum clustering, now that only
# the unit flags are clustered; the series pass's growing stack of
# powers and the package's vec, which no module called; the validated
# channel actions, which no module called either; the golden
# regeneration, now tests/regen_goldens.py; and the per-module number
# rules, which linalg.require_number and OPTION_RULES replace.
REMOVED = {
    "ConditionCheck",
    "GOLDEN_SEEDS",
    "IMAG_TOL",
    "ORACLE_N_MAX",
    "SeriesResult",
    "StepTrace",
    "_OPTION_BOUNDS",
    "_PowerStack",
    "_certificate",
    "_finite_number",
    "_real_coordinates",
    "_real_part",
    "_require_hermitian",
    "_unit_cluster_columns",
    "_vec_coordinates",
    "apply",
    "apply_dual",
    "as_complex_matrix",
    "check_eps_unit",
    "cmd_regen_goldens",
    "expectation_via_invariant",
    "general_expectation",
    "golden_records",
    "kron",
    "maximally_entangled_vector",
    "terminal_series_pass",
    "unvec",
    "vec",
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


def test_the_package_ships_neither_the_generators_nor_the_golden_regeneration():
    assert importlib.util.find_spec("qmcverify.sampling") is None
    with pytest.raises(SystemExit) as exc:
        main(["regen-goldens"])
    assert exc.value.code == 2


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
