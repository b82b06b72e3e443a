"""Acceptance suite: one test per criterion, one printed line per verdict
(run with ``pytest tests/test_acceptance.py -v -s`` to see them)."""

import functools
import math
import time

import numpy as np
import pytest

from qmcverify import (
    DensityOperator,
    Observable,
    average_running_time,
    build_representation,
    check_program_termination,
    check_scheme_termination,
    expectation_closed_form,
    least_fixed_point_q,
    matrix_representation,
    oracle_expectation,
    terminal_state_series,
)
from qmcverify.linalg import dagger, max_abs

from helpers import (
    P0,
    bitflip_program,
    bitflip_scheme,
    completion_expansion_residual,
    filtered_power_residual,
    positive_part_decompose,
    power_norm_bound_check,
    vec_matrix,
    xflip_scheme,
)
from sampling import (
    random_channel,
    random_contracting_program,
    random_density,
    random_observable,
    random_program,
    random_scheme,
    random_unitary,
)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} FAIL  {description}")
                raise
            print(f"criterion {number:2d} PASS  {description}")

        return wrapper

    return decorate


def random_qubit_amplitudes(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v = v / np.linalg.norm(v)
    return v[0], v[1]


@criterion(1, "bit-flip termination probability is 1 by all three methods")
def test_c01_bitflip_termination_probability(rng):
    for p in (0.1, 0.5, 0.9):
        alpha, beta = random_qubit_amplitudes(rng)
        prog = bitflip_program(p, alpha, beta)
        start = time.perf_counter()
        series = oracle_expectation(prog, P0, tail_tol=1e-12).expectation_series
        cert = least_fixed_point_q(prog, P0)
        inv = cert.qv1_value
        rep = build_representation(prog)
        closed = expectation_closed_form(rep, prog.rho0, P0)
        elapsed = time.perf_counter() - start
        for value in (series, inv, closed):
            assert value == pytest.approx(1.0, abs=1e-6)
        assert elapsed < 1.0


@criterion(2, "stuck bit-flip returns |alpha|^2 and reports the stuck mass")
def test_c02_bitflip_p1_cases(rng):
    # beta = 0: everything terminates at the first step
    prog = bitflip_program(1.0, 1.0, 0.0)
    rep = build_representation(prog)
    assert expectation_closed_form(rep, prog.rho0, P0) == pytest.approx(1.0, abs=1e-9)
    cert = least_fixed_point_q(prog, P0)
    assert cert.qv1_value == pytest.approx(1.0, abs=1e-9)

    # beta != 0: the excited component never terminates
    for alpha2 in (0.36, 0.5, 0.91):
        alpha, beta = math.sqrt(alpha2), math.sqrt(1 - alpha2)
        prog = bitflip_program(1.0, alpha, beta)
        rep = build_representation(prog)
        assert expectation_closed_form(rep, prog.rho0, P0) == pytest.approx(
            alpha2, abs=1e-9
        )
        cert = least_fixed_point_q(prog, P0)
        assert cert.qv1_value == pytest.approx(alpha2, abs=1e-9)
        series = terminal_state_series(prog, tail_tol=1e-10, n_max=2000)
        assert series.residual_mass == pytest.approx(beta**2, abs=1e-9)


@criterion(3, "worked-example step matrix and resolvent entries")
def test_c03_worked_example_regression():
    # rational p whose square roots square back exactly: the constructed
    # matrix must match the closed form entry for entry, no tolerance
    for p in (0.39, 0.56, 0.99):
        assert math.sqrt(p) ** 2 == p and math.sqrt(1 - p) ** 2 == 1 - p
        m = matrix_representation(bitflip_scheme(p).g)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = 1 - p
        expected[3, 3] = p
        assert np.array_equal(m, expected)

    m = matrix_representation(bitflip_scheme(0.5).g)
    inv = np.linalg.inv(np.eye(4) - m)
    expected_inv = np.array(
        [[1.0, 0, 0, 1.0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 2.0]]
    )
    assert max_abs(inv - expected_inv) <= 1e-12


@criterion(4, "average running time 1 + |beta|^2/(1-p) by both routes")
def test_c04_average_running_time(rng):
    for p in (0.1, 0.5, 0.9):
        for _ in range(3):
            alpha, beta = random_qubit_amplitudes(rng)
            prog = bitflip_program(p, alpha, beta)
            expected = 1.0 + abs(beta) ** 2 / (1.0 - p)
            rep = build_representation(prog)
            assert average_running_time(rep, prog.rho0) == pytest.approx(
                expected, abs=1e-6
            )
            series = oracle_expectation(
                prog, Observable(np.eye(2)), tail_tol=1e-12
            ).running_time_series
            assert series == pytest.approx(expected, abs=1e-6)


@criterion(5, "duality holds on 200 random channel/state/observable triples")
def test_c05_duality_suite(rng):
    failures = 0
    for i in range(200):
        d = 2 if i % 2 == 0 else 3
        e = random_channel(d, rng, n_kraus=int(rng.integers(1, 4)))
        rho = random_density(d, rng)
        m = random_observable(d, rng)
        lhs = np.trace(m.mat @ e.apply_mat(rho.mat))
        rhs = np.trace(e.apply_dual_mat(m.mat) @ rho.mat)
        if abs(lhs - rhs) > 1e-9:
            failures += 1
    assert failures == 0


@criterion(6, "representation identity and Kraus-remix invariance")
def test_c06_representation_invariance(rng):
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        e = random_channel(d, rng)
        rep = matrix_representation(e)
        phi = np.eye(d, dtype=complex).reshape(-1)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lhs = np.kron(e.apply_mat(a), np.eye(d)) @ phi
        rhs = rep @ (np.kron(a, np.eye(d)) @ phi)
        assert np.linalg.norm(lhs - rhs) <= 1e-9

    from qmcverify import SuperOperator

    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        k = int(rng.integers(2, 4))
        e = random_channel(d, rng, n_kraus=k)
        u = random_unitary(k, rng)
        remixed = SuperOperator(
            [sum(u[j, i] * e.kraus[i] for i in range(k)) for j in range(k)]
        )
        assert max_abs(matrix_representation(e) - matrix_representation(remixed)) <= 1e-9


@criterion(7, "spectral radius at most one with semisimple unit clusters")
def test_c07_spectral_structure_suite(rng):
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        prog = random_program(d, rng)
        rep = build_representation(prog)
        sd = rep.spectral
        assert sd.spectral_radius() <= 1.0 + 1e-7
        m = matrix_representation(prog.g)
        m_norm = np.linalg.norm(m, 2)
        unit_evals = sd.eigenvalues[sd.unit_circle_flags]
        for cols in sd.unit_clusters():
            lam = unit_evals[cols].mean()
            p_c = vec_matrix(sd.right_vectors[:, cols] @ dagger(sd.left_vectors[:, cols]))
            assert max_abs((m - lam * np.eye(rep.dim**2)) @ p_c) <= 1e-6 * max(
                1.0, m_norm
            )


@criterion(8, "halting row kills the unit-circle part of every power")
def test_c08_power_identity_suite(rng):
    for i in range(50):
        d = 2 if i % 2 == 0 else 3
        rep = build_representation(random_program(d, rng))
        for n in range(21):
            assert filtered_power_residual(rep, n) <= 1e-8


@criterion(9, "powers of the step matrix stay norm-bounded by 4 sqrt(d)")
def test_c09_norm_bound_suite(rng):
    for i in range(100):
        d = 2 if i % 2 == 0 else 3
        rep = build_representation(random_program(d, rng))
        alpha = rng.standard_normal(d * d) + 1j * rng.standard_normal(d * d)
        n = int(rng.integers(0, 51))
        assert power_norm_bound_check(rep, alpha, n)


@criterion(10, "series, invariant and closed form agree pairwise")
def test_c10_three_way_agreement(rng):
    for _ in range(50):
        prog = random_contracting_program(2, rng)
        p = random_observable(2, rng, psd=True)
        series = oracle_expectation(prog, p, tail_tol=1e-12).expectation_series
        cert = least_fixed_point_q(prog, p)
        inv = cert.qv1_value
        rep = build_representation(prog)
        closed = expectation_closed_form(rep, prog.rho0, p)
        assert abs(series - inv) <= 1e-6
        assert abs(series - closed) <= 1e-6
        assert abs(inv - closed) <= 1e-6


@criterion(11, "completion identity residual stays at rounding scale")
def test_c11_completion_identity_suite(rng):
    for _ in range(20):
        prog = random_contracting_program(2, rng)
        p = random_observable(2, rng, psd=True)
        cert = least_fixed_point_q(prog, p, tol=1e-13)
        assert cert.qv2_residual <= 1e-10
        for n in range(11):
            assert completion_expansion_residual(prog, p, cert, n) <= 1e-8


@criterion(12, "termination verdicts: nilpotent, stuck, and route agreement")
def test_c12_termination_suite(rng):
    rep = build_representation(xflip_scheme())
    verdict = check_scheme_termination(rep)
    assert verdict.terminates and verdict.terminates_at == 2

    rep = build_representation(bitflip_scheme(1.0))
    assert not check_scheme_termination(rep).almost_terminates

    for _ in range(50):
        d = int(rng.integers(2, 4))
        rep = build_representation(random_scheme(d, rng))
        via_phi = check_scheme_termination(rep)
        via_mixed = check_program_termination(
            rep, DensityOperator(np.eye(d) / d)
        )
        assert via_phi.terminates == via_mixed.terminates
        assert via_phi.terminates_at == via_mixed.terminates_at
        assert via_phi.almost_terminates == via_mixed.almost_terminates


@criterion(13, "four-part positive decomposition reconstructs its input")
def test_c13_positive_part_suite(rng):
    for i in range(100):
        d = 2 + i % 3
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        b1, b2, b3, b4 = positive_part_decompose(a)
        assert max_abs(a - (b1 - b2 + 1j * b3 - 1j * b4)) <= 1e-10
        bound = np.trace(a.conj().T @ a).real + 1e-9
        for b in (b1, b2, b3, b4):
            assert np.trace(b @ b).real <= bound
