import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmcverify
from qmcverify import (
    Observable,
    RepresentationError,
    average_running_time,
    build_representation,
    expectation_closed_form,
    power_norm_bound_check,
    filtered_power_residual,
    oracle_expectation,
    vec,
)
from qmcverify.linalg import max_abs
from qmcverify.sampling import (
    random_contracting_program,
    random_density,
    random_observable,
    random_program,
)

from helpers import (
    P0,
    bitflip_program,
    bitflip_scheme,
    bitflip_step_matrix,
    block_unitary_scheme,
    m1_zero_program,
)

MODELS_DIR = Path(__file__).parent.parent / "models"


def test_representation_matches_displayed_matrix():
    rep = build_representation(bitflip_scheme(0.5))
    assert np.allclose(rep.m, bitflip_step_matrix(0.5), atol=1e-15)
    assert not rep.has_unit_spectrum()
    assert max_abs(rep.n_filtered - rep.m) == 0.0
    assert np.array_equal(rep.n0, np.diag([1.0, 0.0, 0.0, 0.0]))


def test_representation_stuck_bitflip():
    rep = build_representation(bitflip_scheme(1.0))
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    assert np.allclose(rep.m, expected, atol=1e-15)
    assert rep.has_unit_spectrum()
    assert max_abs(rep.n_filtered) <= 1e-12


def test_representation_m1_zero():
    rep = build_representation(m1_zero_program())
    assert max_abs(rep.m) == 0.0
    assert max_abs(rep.n_filtered) == 0.0


def test_representation_rejects_expanding_step():
    # spectral radius > 1 cannot come from valid programs; feed the builder
    # a hand-made namespace that bypasses the channel validation
    from types import SimpleNamespace

    prog = bitflip_program(0.5, 0.6, 0.8)
    fake = SimpleNamespace(
        dim=2,
        e=SimpleNamespace(kraus=(1.1 * np.eye(2, dtype=complex),)),
        meas=prog.meas,
    )
    with pytest.raises(RepresentationError):
        build_representation(fake)


@pytest.mark.parametrize("p", [0.39, 0.56])
def test_worked_example_matrix_is_exact_for_exact_roots(p):
    # these rational p survive sqrt followed by squaring exactly, so the
    # constructed matrix must equal the closed form entry for entry
    assert math.sqrt(p) ** 2 == p and math.sqrt(1 - p) ** 2 == 1 - p
    rep = build_representation(bitflip_scheme(p))
    assert np.array_equal(rep.m, bitflip_step_matrix(p).astype(complex))


def test_worked_example_inverse_entries():
    rep = build_representation(bitflip_scheme(0.5))
    inv = np.linalg.inv(np.eye(4) - rep.m)
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 2.0],
        ]
    )
    assert max_abs(inv - expected) <= 1e-12
    inv2 = np.linalg.inv(np.eye(4) - rep.m) @ inv
    expected2 = expected.copy()
    expected2[0, 3] = 1.0 + 2.0
    expected2[3, 3] = 4.0
    assert max_abs(inv2 - expected2) <= 1e-12


def test_closed_form_terminating_bitflip(rng):
    rep = build_representation(bitflip_scheme(0.3))
    rho0 = random_density(2, rng)
    value = expectation_closed_form(rep, rho0, P0)
    assert value == pytest.approx(1.0, abs=1e-10)


def test_closed_form_stuck_bitflip():
    prog = bitflip_program(1.0, 0.6, 0.8)
    rep = build_representation(prog)
    assert expectation_closed_form(rep, prog.rho0, P0) == pytest.approx(0.36, abs=1e-12)


def test_closed_form_m1_zero(rng):
    prog = m1_zero_program()
    rep = build_representation(prog)
    p = random_observable(2, rng)
    expected = np.trace(
        p.mat @ prog.meas.m0 @ prog.rho0.mat @ prog.meas.m0.conj().T
    ).real
    assert expectation_closed_form(rep, prog.rho0, p) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_running_time_formula(p):
    alpha, beta = 0.6, 0.8
    prog = bitflip_program(p, alpha, beta)
    rep = build_representation(prog)
    expected = 1.0 + beta**2 / (1.0 - p)
    assert average_running_time(rep, prog.rho0) == pytest.approx(expected, abs=1e-9)


def test_running_time_m1_zero():
    prog = m1_zero_program()
    rep = build_representation(prog)
    assert average_running_time(rep, prog.rho0) == pytest.approx(1.0, abs=1e-12)


def test_running_time_infinite_when_stuck():
    prog = bitflip_program(1.0, 0.6, 0.8)
    rep = build_representation(prog)
    assert average_running_time(rep, prog.rho0) == math.inf


def test_power_identity_n_zero(rng):
    rep = build_representation(random_program(2, rng))
    assert filtered_power_residual(rep, 0) == 0.0


def test_power_identity_stuck_bitflip():
    rep = build_representation(bitflip_scheme(1.0))
    assert filtered_power_residual(rep, 1) <= 1e-12


def test_power_identity_random_programs(rng):
    for _ in range(10):
        rep = build_representation(random_program(2, rng))
        for n in (1, 5, 20):
            assert filtered_power_residual(rep, n) <= 1e-8


def test_power_identity_with_unit_spectrum():
    rep = build_representation(block_unitary_scheme())
    assert rep.has_unit_spectrum()
    for n in range(10):
        assert filtered_power_residual(rep, n) <= 1e-10


def test_filtering_correctness():
    rep = build_representation(block_unitary_scheme())
    p_u = rep.unit_projector
    assert max_abs(rep.n_filtered @ p_u) <= 1e-10
    assert max_abs(
        rep.n_filtered @ (np.eye(rep.dim2) - p_u) - rep.m @ (np.eye(rep.dim2) - p_u)
    ) <= 1e-10
    assert max_abs(p_u @ p_u - p_u) <= 1e-6


def test_closed_form_with_unit_spectrum_matches_series(rng):
    # the rotating block keeps its mass forever, so the series hits the
    # n_max cap with a flagged residual, but its partial sum is already
    # exact: nothing terminal leaks out of the unit-circle component
    scheme = block_unitary_scheme()
    prog = scheme.with_initial_state(random_density(3, rng))
    rep = build_representation(prog)
    p = random_observable(3, rng, psd=True)
    closed = expectation_closed_form(rep, prog.rho0, p)
    result = oracle_expectation(prog, p, tail_tol=1e-13, n_max=300)
    assert result.p_table.residual_mass > 0.01
    assert closed == pytest.approx(result.expectation_series, abs=1e-7)


def test_norm_bound_trivial_alpha(rng):
    rep = build_representation(random_program(2, rng))
    assert power_norm_bound_check(rep, rep.phi, 0)


def test_norm_bound_random(rng):
    for _ in range(10):
        d = int(rng.integers(2, 4))
        rep = build_representation(random_program(d, rng))
        alpha = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        n = int(rng.integers(0, 51))
        assert power_norm_bound_check(rep, alpha, n)


def test_norm_bound_isometric_case(rng):
    # M0 = 0 with a unitary channel leaves ||M^n alpha|| = ||alpha||
    from qmcverify import ProgramScheme, SuperOperator, TerminationMeasurement
    from qmcverify.sampling import random_unitary

    u = random_unitary(2, rng)
    scheme = ProgramScheme(
        SuperOperator([u]),
        TerminationMeasurement(np.zeros((2, 2)), np.eye(2)),
    )
    rep = build_representation(scheme)
    alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = alpha
    for _ in range(7):
        v = rep.m @ v
    assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(alpha), abs=1e-10)
    assert power_norm_bound_check(rep, alpha, 7)


def test_three_way_agreement_sample(rng):
    from qmcverify import expectation_via_invariant, least_fixed_point_q

    for d in (2, 2, 2, 3, 3):
        prog = random_contracting_program(d, rng)
        p = random_observable(d, rng, psd=True)
        rep = build_representation(prog)
        series = oracle_expectation(prog, p, tail_tol=1e-12).expectation_series
        closed = expectation_closed_form(rep, prog.rho0, p)
        cert = least_fixed_point_q(prog, p)
        inv = expectation_via_invariant(prog, p, cert)
        assert abs(series - closed) <= 1e-6
        assert abs(series - inv) <= 1e-6
        assert abs(closed - inv) <= 1e-6


def test_running_time_vs_series(rng):
    for _ in range(5):
        prog = random_contracting_program(2, rng)
        rep = build_representation(prog)
        spectral_time = average_running_time(rep, prog.rho0)
        series_time = oracle_expectation(
            prog, Observable(np.eye(2)), tail_tol=1e-12
        ).running_time_series
        assert abs(spectral_time - series_time) <= 1e-6


def test_unit_overlap_vector_convention():
    # (rho0 (x) I)|Phi> is the row-major vectorization of rho0
    prog = bitflip_program(1.0, 0.6, 0.8)
    assert np.allclose(vec(prog.rho0.mat), prog.rho0.mat.reshape(-1))
    rep = build_representation(prog)
    overlap = np.linalg.norm(rep.unit_projector @ vec(prog.rho0.mat))
    assert overlap == pytest.approx(0.64, abs=1e-10)


def test_unit_spectrum_build_does_not_import_numpy_ma():
    # numpy's first np.unique call imports numpy.ma, about 10 ms per process.
    package_root = Path(qmcverify.__file__).parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(package_root)!r})\n"
        "from qmcverify import build_representation\n"
        "from qmcverify.model import load_model\n"
        f"scheme = load_model({str(MODELS_DIR / 'unitary_m0zero.model')!r}).to_scheme()\n"
        "assert build_representation(scheme).has_unit_spectrum()\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
