import math
import re

import numpy as np
import pytest

from qmcverify import (
    DensityOperator,
    ValidationError,
    is_positive_semidefinite,
    load_model,
    oracle_expectation,
    step_probabilities,
    terminal_state_series,
)

from helpers import (
    MODELS_DIR,
    P0,
    bitflip_program,
    check_recursion,
    m0_zero_program,
    m1_zero_program,
)
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
    for n_max in (0, 2.5):
        with pytest.raises(ValidationError, match=r"^n_max must be an integer >= 1, got "):
            step_probabilities(m1_zero_program(), n_max)


# Each bad number, with the start of its message.
_TAIL_TOL = "tail_tol must be a finite number > 0, got "
_N_MAX = "n_max must be an integer >= 0, got "
BAD_SERIES_NUMBERS = {
    "tail_tol=nan": ("tail_tol", math.nan, _TAIL_TOL),
    "tail_tol=0": ("tail_tol", 0, _TAIL_TOL),
    "tail_tol=-1": ("tail_tol", -1, _TAIL_TOL),
    "tail_tol=inf": ("tail_tol", math.inf, _TAIL_TOL),
    "n_max=-5": ("n_max", -5, _N_MAX),
    "n_max=2.5": ("n_max", 2.5, _N_MAX),
    "n_max=True": ("n_max", True, _N_MAX),
    "n_max=10**400": ("n_max", 10**400, _N_MAX),
}
SERIES_ENTRIES = {
    "terminal_state_series": lambda prog, **number: terminal_state_series(prog, **number),
    "oracle_expectation": lambda prog, **number: oracle_expectation(prog, P0, **number),
}


@pytest.mark.parametrize("case", sorted(BAD_SERIES_NUMBERS))
@pytest.mark.parametrize("entry", sorted(SERIES_ENTRIES))
def test_series_entry_points_refuse_a_bad_number(entry, case):
    name, value, message = BAD_SERIES_NUMBERS[case]
    prog = load_model(MODELS_DIR / "bitflip_p05.model").to_program()
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        SERIES_ENTRIES[entry](prog, **{name: value})


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
