import numpy as np
import pytest

from qmcverify import (
    DensityOperator,
    ValidationError,
    is_positive_semidefinite,
    step_probabilities,
    terminal_state_series,
)

from helpers import bitflip_program, check_recursion, m0_zero_program, m1_zero_program
from sampling import random_contracting_program, random_density, random_observable


def test_step_probabilities_bitflip_tail():
    # surviving mass after step n+1 is |beta|^2 p^n; here beta = 1
    prog = bitflip_program(0.5, 0.0, 1.0)
    trace = step_probabilities(prog, 12)
    for rec in trace.steps:
        assert rec.p_nontermination == pytest.approx(0.5 ** (rec.n - 1), abs=1e-12)


def test_step_probabilities_immediate_termination():
    trace = step_probabilities(m1_zero_program(), 5)
    assert trace.steps[0].p == pytest.approx(1.0, abs=1e-12)
    assert all(rec.p == pytest.approx(0.0, abs=1e-12) for rec in trace.steps[1:])
    assert trace.residual_mass == pytest.approx(0.0, abs=1e-12)


def test_step_probabilities_never_terminates():
    trace = step_probabilities(m0_zero_program(), 5)
    assert all(rec.p == pytest.approx(0.0, abs=1e-12) for rec in trace.steps)
    assert all(
        rec.p_nontermination == pytest.approx(1.0, abs=1e-12) for rec in trace.steps
    )


def test_step_probabilities_conservation(rng):
    for _ in range(5):
        prog = random_contracting_program(2, rng)
        trace = step_probabilities(prog, 30)
        cumulative = 0.0
        for rec in trace.steps:
            cumulative += rec.p
            assert cumulative + rec.p_nontermination == pytest.approx(1.0, abs=1e-9)


def test_step_probabilities_needs_positive_n():
    with pytest.raises(ValidationError):
        step_probabilities(m1_zero_program(), 0)


@pytest.mark.parametrize("p", [0.2, 0.7])
def test_series_reaches_full_mass_for_terminating_bitflip(p, rng):
    alpha, beta = 0.6, 0.8
    prog = bitflip_program(p, alpha, beta)
    res = terminal_state_series(prog, tail_tol=1e-12)
    assert res.rho_star.trace == pytest.approx(1.0, abs=1e-10)
    assert res.residual_mass < 1e-12


def test_series_keeps_stuck_mass_out():
    prog = bitflip_program(1.0, 0.6, 0.8)
    res = terminal_state_series(prog, tail_tol=1e-10, n_max=500)
    assert res.rho_star.trace == pytest.approx(0.36, abs=1e-12)
    assert res.residual_mass == pytest.approx(0.64, abs=1e-12)
    assert res.n_used == 500


def test_series_single_term_when_m1_zero():
    prog = m1_zero_program()
    res = terminal_state_series(prog, tail_tol=1e-12)
    assert res.n_used == 0
    expected = prog.meas.m0 @ prog.rho0.mat @ prog.meas.m0.conj().T
    assert np.allclose(res.rho_star.mat, expected, atol=1e-15)


def test_series_partial_sums_are_psd_increments(rng):
    prog = random_contracting_program(2, rng)
    sigma = prog.rho0.mat
    for _ in range(10):
        term = prog.meas.e0.apply_mat(sigma)
        assert is_positive_semidefinite(term, tol=1e-9)
        sigma = prog.g.apply_mat(sigma)


def test_recursion_residual_small_for_terminating(rng):
    tail_tol = 1e-12
    for _ in range(5):
        prog = random_contracting_program(2, rng)
        residual = check_recursion(prog, random_density(2, rng), tail_tol)
        assert residual <= 10 * tail_tol


def test_recursion_exact_for_m1_zero():
    prog = m1_zero_program()
    assert check_recursion(prog, prog.rho0, 1e-12) == 0.0


def test_recursion_exact_for_m0_zero():
    prog = m0_zero_program()
    assert check_recursion(prog, prog.rho0, 1e-12, n_max=50) == 0.0


def test_dual_recursion_identity(rng):
    # tr(F*(M) rho) = tr(E0*(M) rho) + tr(F*(M) G(rho)), with F* evaluated
    # weakly through the series
    from qmcverify.program import _series_pass

    tail_tol = 1e-12
    for _ in range(5):
        prog = random_contracting_program(2, rng)
        m = random_observable(2, rng)
        rho = random_density(2, rng)

        def f_star_expect(state_mat):
            acc = _series_pass(prog, state_mat, tail_tol, 10**6).acc
            return np.trace(m.mat @ acc).real

        lhs = f_star_expect(rho.mat)
        rhs = (
            np.trace(prog.meas.e0.apply_dual_mat(m.mat) @ rho.mat).real
            + f_star_expect(prog.g.apply_mat(rho.mat))
        )
        assert abs(lhs - rhs) <= 10 * tail_tol


def test_program_requires_unit_trace():
    prog = bitflip_program(0.5, 1.0, 0.0)
    with pytest.raises(ValidationError):
        prog.with_initial_state(DensityOperator(np.diag([0.5, 0.0])))


def test_program_requires_trace_preserving_channel():
    from qmcverify import ProgramScheme, SuperOperator

    with pytest.raises(ValidationError):
        ProgramScheme(
            SuperOperator([0.5 * np.eye(2)]),
            bitflip_program(0.5, 1.0, 0.0).meas,
        )
