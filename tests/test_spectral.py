import dataclasses
import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmcverify
from qmcverify import (
    DensityOperator,
    Observable,
    ProgramRepresentation,
    ProgramScheme,
    RepresentationError,
    SuperOperator,
    TerminationMeasurement,
    average_running_time,
    build_representation,
    check_program_termination,
    check_scheme_termination,
    expectation_closed_form,
    load_model,
    matrix_representation,
    oracle_expectation,
    spectral_decompose,
)
from qmcverify.cli import main
from qmcverify.linalg import SpectralData, dagger, max_abs
from qmcverify.model import Model, save_model
from qmcverify.report import eigenvalue_table
from qmcverify.spectral import (
    CertifiedStep,
    _hermitian_basis,
    _step_coordinates,
    coordinates,
    decide_unit_circle,
    forward_certificate,
    from_coordinates,
    kraus_certificate,
)

from helpers import (
    I2,
    P0,
    X,
    bitflip_program,
    bitflip_scheme,
    bitflip_step_matrix,
    block_unitary_scheme,
    count_calls,
    counter_scheme,
    decaying_block_program,
    exact_running_time,
    filtered_power_residual,
    hadamard_walk_scheme,
    hermitian_basis_reference,
    m1_zero_program,
    power_norm_bound_check,
    real_coordinates_reference,
    rotated_chain_program,
    schrodinger_closed_form,
    schrodinger_running_time,
    vec,
    vec_closed_form,
    vec_coordinates,
    vec_matrix,
    vec_reference,
    vec_running_time,
)
from sampling import (
    random_contracting_program,
    random_density,
    random_observable,
    random_program,
    random_scheme,
    random_unitary,
)

MODELS_DIR = Path(__file__).parent.parent / "models"


def test_representation_matches_displayed_matrix():
    scheme = bitflip_scheme(0.5)
    rep = build_representation(scheme)
    assert np.allclose(matrix_representation(scheme.g), bitflip_step_matrix(0.5), atol=1e-15)
    assert not np.any(rep.spectral.unit_circle_flags)
    assert max_abs(rep.n_filtered - rep.spectral.matrix) == 0.0
    assert np.array_equal(matrix_representation(scheme.meas.e0), np.diag([1.0, 0.0, 0.0, 0.0]))


def test_representation_stuck_bitflip():
    scheme = bitflip_scheme(1.0)
    rep = build_representation(scheme)
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    assert np.allclose(matrix_representation(scheme.g), expected, atol=1e-15)
    assert np.any(rep.spectral.unit_circle_flags)
    assert max_abs(rep.n_filtered) <= 1e-12


def test_representation_m1_zero():
    prog = m1_zero_program()
    rep = build_representation(prog)
    assert max_abs(matrix_representation(prog.g)) == 0.0
    assert max_abs(rep.n_filtered) == 0.0


def _kraus_loop_matrices(scheme):
    """M and N0 as a Kraus loop forms them: the reference for the one
    builder, ``matrix_representation``."""
    d, m0, m1 = scheme.dim, scheme.meas.m0, scheme.meas.m1
    m = np.zeros((d * d, d * d), dtype=complex)
    for k in scheme.e.kraus:
        m += np.kron(k @ m1, (k @ m1).conj())
    return m, np.kron(m0, m0.conj())


def _same_bits(a, b):
    return np.array_equal(a, b) and all(
        np.array_equal(np.signbit(part(a)), np.signbit(part(b))) for part in (np.real, np.imag)
    )


def _builder_schemes():
    schemes = [load_model(path).validated.scheme for path in sorted(MODELS_DIR.glob("*.model"))]
    rng = np.random.default_rng(7)
    schemes += [random_scheme(d, rng, n_kraus=k) for d in (1, 2, 3, 7) for k in (1, 2, 3)]
    return schemes


@pytest.mark.parametrize("scheme", _builder_schemes())
def test_representation_matrices_are_bit_identical_to_kraus_loop(scheme):
    m, n0 = _kraus_loop_matrices(scheme)
    assert _same_bits(matrix_representation(scheme.g), m)
    assert _same_bits(matrix_representation(scheme.meas.e0), n0)


def _seeded_counter(d, rng):
    """The cyclic shift of ``counter_scheme`` through a seeded basis order
    with seeded phases, halting on the last state of the cycle."""
    order = rng.permutation(d)
    shift = np.zeros((d, d), dtype=complex)
    shift[order[(np.arange(d) + 1) % d], order] = np.exp(2j * np.pi * rng.uniform(size=d))
    m0 = np.zeros((d, d))
    m0[order[-1], order[-1]] = 1.0
    return ProgramScheme(SuperOperator([shift]), TerminationMeasurement(m0, np.eye(d) - m0))


def _assert_step_coordinates_match_the_whole_matrix_formula(g):
    r = _step_coordinates(g.stack)
    assert r.dtype == np.float64 and r.flags.c_contiguous
    assert _same_bits(r, real_coordinates_reference(matrix_representation(g)))


# Products of these exact Kraus entries leave negative zeros, which only a
# sum that starts from +0, as the Kraus loop's does, clears.
_SIGNED_ZERO_STEP = SuperOperator([0.5 * np.array([[1, -1j], [1j, -1j]])])


@pytest.mark.parametrize("g", [s.g for s in _builder_schemes()] + [_SIGNED_ZERO_STEP])
def test_step_coordinates_are_bit_identical_to_the_whole_matrix_formula(g):
    _assert_step_coordinates_match_the_whole_matrix_formula(g)


def _large_dimension_steps(d):
    """A seeded counter and a random contracting program at dimension d."""
    rng = np.random.default_rng(d)
    return _seeded_counter(d, rng).g, random_contracting_program(d, rng).g


@pytest.mark.parametrize("d", [12, 15, 18])
def test_step_coordinates_are_bit_identical_at_large_dimension(d):
    for g in _large_dimension_steps(d):
        _assert_step_coordinates_match_the_whole_matrix_formula(g)


@pytest.mark.parametrize(
    "g",
    [s.g for s in _builder_schemes()]
    + [g for d in (12, 15, 18) for g in _large_dimension_steps(d)],
)
def test_step_in_the_hermitian_basis_is_real_up_to_rounding(g):
    # M = sum_s K_s (x) conj(K_s) preserves Hermiticity for every Kraus
    # family, so Im(T M T^dag) is rounding alone, and _step_coordinates
    # drops it unchecked.  It measured at most 1.1e-16 max(1, ||c||_max),
    # on the seeded counters.
    c = hermitian_basis_reference(matrix_representation(g))
    assert max_abs(c.imag) <= 1e-15 * max(1.0, max_abs(c))


def test_step_coordinates_allocate_less_than_twice_the_result():
    # The whole-matrix formula peaks at 10.2 times R's own d^4 * 8 bytes
    # at d = 18; slab by slab, every temporary is O(d^3).
    d = 18
    stack = random_scheme(d, np.random.default_rng(3)).g.stack
    _step_coordinates(stack)
    tracemalloc.start()
    try:
        _step_coordinates(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * d**4 * 8


@pytest.mark.parametrize("scheme", _builder_schemes())
def test_representation_holds_no_complex_step_matrix(scheme):
    rep = build_representation(scheme)
    assert not hasattr(rep, "m")
    d2 = rep.dim**2
    for arr in (rep.spectral.matrix, rep.unit_projector, rep.n_filtered, rep.resolvent):
        assert arr is None or (arr.shape == (d2, d2) and arr.dtype == np.float64)
    assert (rep.unit_projector is None) == (not rep.spectral.unit_circle_flags.any())
    for field in dataclasses.fields(rep):
        value = getattr(rep, field.name)
        if isinstance(value, np.ndarray) and value.shape == (d2, d2) and rep.dim > 1:
            assert value.dtype == np.float64, field.name


def test_unit_projector_with_imaginary_coordinates_is_rejected(monkeypatch):
    unit_projector = SpectralData.unit_projector

    def complex_projector(self):
        return unit_projector(self) + 1e-6j

    scheme = block_unitary_scheme()
    assert np.any(build_representation(scheme).spectral.unit_circle_flags)
    monkeypatch.setattr(SpectralData, "unit_projector", complex_projector)
    with pytest.raises(RepresentationError, match="projector .*Hermiticity"):
        build_representation(scheme)


def test_build_leaves_the_halting_channel_unbuilt():
    # The closed forms read E0* off the d x d M0; building E0 would re-run
    # the Kraus normalization check for nothing.
    for path in sorted(MODELS_DIR.glob("*.model")):
        scheme = load_model(path).validated.scheme
        build_representation(scheme)
        assert "e0" not in scheme.meas.__dict__, path.name


def _closed_form_cases():
    """Every committed model with each of its observables, a scheme-only
    model started in a random state, and random programs with d in
    {1, 2, 3, 7}."""
    rng = np.random.default_rng(11)
    cases = []
    for path in sorted(MODELS_DIR.glob("*.model")):
        model = load_model(path)
        prog = model.validated.scheme
        if model.rho0 is None:
            prog = prog.with_initial_state(random_density(model.dim, rng))
        for name, obs in sorted(model.validated.observables.items()):
            cases.append(pytest.param(prog, obs, id=f"{path.stem}-{name}"))
    for d in (1, 2, 3, 7):
        for k in range(3):
            prog = random_program(d, rng, n_kraus=k + 1)
            cases.append(pytest.param(prog, random_observable(d, rng), id=f"random-{d}-{k}"))
    return cases


@pytest.mark.parametrize("prog, p", _closed_form_cases())
def test_closed_forms_match_the_schrodinger_reference(prog, p):
    rep = build_representation(prog)
    vec_rep = vec_reference(prog)
    n0 = matrix_representation(prog.meas.e0)

    value = expectation_closed_form(rep, prog.rho0, p)
    ref = schrodinger_closed_form(vec_rep, n0, prog.rho0, p)
    assert abs(value - ref) <= 1e-12 * max(1.0, abs(value))

    time = average_running_time(rep, prog.rho0)
    if rep.unit_overlap(prog.rho0.mat)[1]:
        ref_time = schrodinger_running_time(vec_rep, n0, prog.rho0)
        assert abs(time - ref_time) <= 1e-12 * max(1.0, abs(time))
    else:
        assert time == math.inf


def _unchecked_step(kraus):
    """A :class:`SuperOperator` on ``kraus`` that skips the normalization
    check, for steps no valid program has."""
    g = object.__new__(SuperOperator)
    object.__setattr__(g, "kraus", tuple(np.asarray(k, dtype=complex) for k in kraus))
    return g


def _unchecked_scheme(kraus):
    """What ``build_representation`` reads of a d = 2 scheme whose
    survival step is :func:`_unchecked_step` of ``kraus``."""
    from types import SimpleNamespace

    return SimpleNamespace(dim=2, g=_unchecked_step(kraus), meas=bitflip_scheme(0.5).meas)


def test_representation_rejects_expanding_step():
    # Spectral radius > 1 cannot come from valid programs.  For G = 1.1 M1
    # . 1.1 M1^dag the resolvent sum has D = V - G(V) = I but V = diag(1,
    # -4.76), so only the certificate's V > 0 test refuses it, and then
    # the eigenvalues do.
    m1 = bitflip_scheme(0.5).meas.m1
    with pytest.raises(RepresentationError, match="spectral radius"):
        build_representation(_unchecked_scheme([1.1 * m1]))


# Householder reflection, to hide the block structure of the crafted R below.
_U = np.array([1.0, 2.0, 3.0, 4.0])
_Q = np.eye(4) - 2 * np.outer(_U, _U) / (_U @ _U)


def _crafted_step(monkeypatch, r):
    """Make ``build_representation`` of any d = 2 scheme decompose the
    4 x 4 real ``r`` as its step representation.  No Kraus stack stands
    behind ``r``, so the certificate, which would check the scheme's own
    ``G``, is refused and the eigenvalues decide."""
    monkeypatch.setattr(qmcverify.spectral, "_step_coordinates", lambda stack: r)
    monkeypatch.setattr(qmcverify.spectral, "kraus_certificate", lambda *args: None)
    return bitflip_scheme(0.5)


def test_representation_rejects_a_non_semisimple_unit_cluster(monkeypatch):
    # Eigenvalues 1 and 1 - 9e-7 are both unit at eps_unit = 1e-6 and one
    # cluster at CLUSTER_REL_TOL = 1e-6.  Their eigenvectors meet at an
    # angle of 1e-3, so R acts on that plane as I plus a 1e-3-conditioned
    # nilpotent-like part: (R - lam I) P_c is about 1e-3, not rounding.
    v = np.eye(4)
    v[:, 1] = [1.0, 1e-3, 0.0, 0.0]
    v = _Q @ v
    r = v @ np.diag([1.0, 1.0 - 9e-7, 0.5, 0.25]) @ np.linalg.inv(v)
    scheme = _crafted_step(monkeypatch, r)
    with pytest.raises(RepresentationError, match="not semisimple"):
        build_representation(scheme, eps_unit=1e-6)


def test_decaying_eigenvalue_in_a_unit_cluster_stays_out_of_the_projector(monkeypatch):
    # Eigenvalues 1 and 1 - 9e-7 lie within CLUSTER_REL_TOL = 1e-6 of each
    # other, but only 1 is unit at the default eps_unit: 1 - 9e-7 is not
    # clustered, its eigenvectors are not taken for 1, P_u is the spectral
    # projector of 1 alone, and 1 - 9e-7 sets the margin.
    v = _Q @ np.triu(np.ones((4, 4)))
    v_inv = np.linalg.inv(v)
    r = v @ np.diag([1.0, 1.0 - 9e-7, 0.5, 0.25]) @ v_inv
    rep = build_representation(_crafted_step(monkeypatch, r))
    sd = rep.spectral
    assert np.count_nonzero(sd.unit_circle_flags) == 1
    assert sd.cluster_ids.tolist() == [0]
    assert sd.right_vectors.shape == (4, 1)
    assert max_abs(rep.unit_projector - np.outer(v[:, 0], v_inv[0])) <= 1e-9
    assert rep.margin == pytest.approx(9e-7, rel=1e-6)


@pytest.mark.parametrize("b", [0.435, 0.47, 0.475, 0.485])
def test_margin_and_radius_read_the_reported_modulus(b, monkeypatch):
    # A complex pair 0.3 +- i b of modulus above 0.5 leads the spectrum.
    # For these b, numpy's SIMD complex abs of the computed pair differs
    # from hypot in the last bit (x86-64 with AVX2), so a margin or a
    # radius taken by np.abs would miss the report's modulus by one ulp.
    blk = np.diag([0.3, 0.3, 0.5, 0.25])
    blk[0, 1], blk[1, 0] = -b, b
    rep = build_representation(_crafted_step(monkeypatch, _Q @ blk @ _Q.T))
    table = eigenvalue_table(rep.spectral)
    assert not any(row["unit_circle"] for row in table)
    gap = rep.spectral.gap()
    assert gap == 1.0 - max(row["modulus"] for row in table)
    assert 0 < rep.margin <= gap
    assert rep.spectral.spectral_radius() == max(row["modulus"] for row in table)


def test_representation_rejects_a_defective_unit_eigenvalue(monkeypatch):
    # A 2 x 2 Jordan block at 1: eig splits it to 1 +- 1e-8, both unit, and
    # their eigenvectors coincide, so no biorthonormal duals exist.
    j = np.diag([1.0, 1.0, 0.5, 0.25])
    j[0, 1] = 1.0
    scheme = _crafted_step(monkeypatch, _Q @ j @ _Q.T)
    with pytest.raises(RepresentationError, match="not idempotent"):
        build_representation(scheme)


@pytest.mark.parametrize("p", [0.39, 0.56])
def test_worked_example_matrix_is_exact_for_exact_roots(p):
    # these rational p survive sqrt followed by squaring exactly, so the
    # constructed matrix must equal the closed form entry for entry
    assert math.sqrt(p) ** 2 == p and math.sqrt(1 - p) ** 2 == 1 - p
    m = matrix_representation(bitflip_scheme(p).g)
    assert np.array_equal(m, bitflip_step_matrix(p).astype(complex))


def test_worked_example_inverse_entries():
    m = matrix_representation(bitflip_scheme(0.5).g)
    inv = np.linalg.inv(np.eye(4) - m)
    expected = np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 2.0],
        ]
    )
    assert max_abs(inv - expected) <= 1e-12
    inv2 = np.linalg.inv(np.eye(4) - m) @ inv
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
    assert np.any(rep.spectral.unit_circle_flags)
    for n in range(10):
        assert filtered_power_residual(rep, n) <= 1e-10


def test_filtering_correctness():
    rep = build_representation(block_unitary_scheme())
    p_u, r = rep.unit_projector, rep.spectral.matrix
    assert max_abs(rep.n_filtered @ p_u) <= 1e-10
    assert max_abs(
        rep.n_filtered @ (np.eye(rep.dim**2) - p_u) - r @ (np.eye(rep.dim**2) - p_u)
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
    assert power_norm_bound_check(rep, np.eye(rep.dim).reshape(-1), 0)


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

    u = random_unitary(2, rng)
    scheme = ProgramScheme(
        SuperOperator([u]),
        TerminationMeasurement(np.zeros((2, 2)), np.eye(2)),
    )
    rep = build_representation(scheme)
    m = matrix_representation(scheme.g)
    alpha = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    v = alpha
    for _ in range(7):
        v = m @ v
    assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(alpha), abs=1e-10)
    assert power_norm_bound_check(rep, alpha, 7)


def test_three_way_agreement_sample(rng):
    from qmcverify import least_fixed_point_q

    for d in (2, 2, 2, 3, 3):
        prog = random_contracting_program(d, rng)
        p = random_observable(d, rng, psd=True)
        rep = build_representation(prog)
        series = oracle_expectation(prog, p, tail_tol=1e-12).expectation_series
        closed = expectation_closed_form(rep, prog.rho0, p)
        cert = least_fixed_point_q(prog, p)
        inv = cert.qv1_value
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
    # (rho0 (x) I)|Phi> is the row-major vectorization of rho0, and the
    # unit projector acts on its Hermitian-basis coordinates
    prog = bitflip_program(1.0, 0.6, 0.8)
    assert np.allclose(vec(prog.rho0.mat), prog.rho0.mat.reshape(-1))
    rep = build_representation(prog)
    overlap = np.linalg.norm(rep.unit_projector @ coordinates(prog.rho0.mat))
    assert overlap == pytest.approx(0.64, abs=1e-10)


@pytest.mark.parametrize("w", [1e-7, 1e-8])
def test_a_little_weight_on_a_never_halting_state_is_not_negligible(w, tmp_path, capsys):
    # bitflip_p1 never leaves |1>, so a start with weight w there halts
    # with probability 1 - w and its mean running time diverges however
    # small w is.  The overlap is w times ||x||, above UNIT_OVERLAP_RTOL
    # (1e-9); a cut 1000 times looser would read 1 / (1 - w) steps.
    model = load_model(MODELS_DIR / "bitflip_p1.model")
    model.rho0 = np.diag([1.0 - w, w]).astype(complex)
    model.validate()
    prog = model.validated.scheme
    rep = build_representation(prog)
    assert rep.unit_overlap(prog.rho0.mat)[1] is False
    assert average_running_time(rep, prog.rho0) == math.inf
    path, out = tmp_path / "weight.model", tmp_path / "report.json"
    save_model(model, path)
    main(["terminate", str(path), "--scope", "program", "--json-out", str(out)])
    assert "almost terminates: no" in capsys.readouterr().out
    assert json.loads(out.read_text())["termination"]["almost_terminates"] is False


def test_unit_spectrum_build_does_not_import_numpy_ma():
    # numpy's first np.unique call imports numpy.ma, about 10 ms per process.
    package_root = Path(qmcverify.__file__).parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(package_root)!r})\n"
        "import numpy as np\n"
        "from qmcverify import build_representation\n"
        "from qmcverify.model import load_model\n"
        f"scheme = load_model({str(MODELS_DIR / 'unitary_m0zero.model')!r}).to_scheme()\n"
        "assert np.any(build_representation(scheme).spectral.unit_circle_flags)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"


def hermitian_basis(d):
    """The orthonormal Hermitian basis, written out entry by entry: slot
    i*d + j holds E_ii, (E_ij + E_ji)/sqrt2 for i < j and, for i > j, the
    antisymmetric element i(E_ji - E_ij)/sqrt2 of the pair (j, i)."""
    h = np.sqrt(0.5)
    basis = []
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            if i == j:
                e[i, i] = 1.0
            elif i < j:
                e[i, j] = e[j, i] = h
            else:
                e[j, i], e[i, j] = 1j * h, -1j * h
            basis.append(e)
    return basis


def dense_change_of_basis(d):
    """T with rows conj(vec(H_a)): T vec(A) lists the coordinates tr(H_a A)."""
    return np.array([vec(e).conj() for e in hermitian_basis(d)])


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_change_of_basis_is_unitary_and_matches_the_index_arrays(d):
    t = dense_change_of_basis(d)
    assert max_abs(t @ t.conj().T - np.eye(d * d)) <= 1e-15
    swap, alpha, beta = _hermitian_basis(d)
    from_indices = np.zeros((d * d, d * d), dtype=complex)
    from_indices[np.arange(d * d), np.arange(d * d)] += alpha
    from_indices[np.arange(d * d), swap] += beta
    assert np.array_equal(from_indices, t)


@pytest.mark.parametrize("d", [2, 4])
def test_hermitian_coordinates_are_real_and_map_back(rng, d):
    t = dense_change_of_basis(d)
    h = random_observable(d, rng).mat
    assert max_abs((t @ vec(h)).imag) <= 1e-15
    assert max_abs(coordinates(h) - (t @ vec(h)).real) <= 1e-15
    c = rng.standard_normal((d * d, 3)) + 1j * rng.standard_normal((d * d, 3))
    assert max_abs(vec_coordinates(c) - t.conj().T @ c) <= 1e-15


@pytest.mark.parametrize("d", [2, 3, 4])
def test_real_coordinates_are_the_step_on_the_hermitian_basis(rng, d):
    # R[a, b] = tr(H_a G(H_b)), with G applied from its Kraus operators
    scheme = random_scheme(d, rng)
    basis = hermitian_basis(d)
    steps = [k @ scheme.meas.m1 for k in scheme.e.kraus]
    expected = np.array(
        [
            [
                np.trace(h_a @ sum(s @ h_b @ s.conj().T for s in steps)).real
                for h_b in basis
            ]
            for h_a in basis
        ]
    )
    r = build_representation(scheme).spectral.matrix
    assert r.dtype == np.float64
    assert max_abs(r - expected) <= 1e-14


def test_build_without_unit_spectrum_runs_one_real_eigvals(monkeypatch, rng):
    prog = random_contracting_program(3, rng)
    calls = count_calls(monkeypatch, "eigvals", "eig")
    rep = build_representation(prog)
    assert not np.any(rep.spectral.unit_circle_flags)
    assert calls == [("eigvals", np.float64)]
    assert rep.spectral.eigenvalues.dtype == complex
    assert rep.spectral.right_vectors.shape == rep.spectral.left_vectors.shape == (9, 0)


def test_certified_build_eigensolves_only_when_spectral_is_read(monkeypatch, rng):
    prog = random_contracting_program(3, rng)
    calls = count_calls(monkeypatch, "eigvals", "eig")
    rep = build_representation(prog)
    assert rep.certificate is not None
    assert calls == []
    assert rep.spectral is rep.spectral
    assert calls == [("eigvals", np.float64)]


def conjugated(scheme, v):
    """The scheme in the basis v: K -> v K v^dag, M_i -> v M_i v^dag."""
    def conj(a):
        return v @ a @ v.conj().T

    return ProgramScheme(
        SuperOperator([conj(k) for k in scheme.e.kraus]),
        TerminationMeasurement(conj(scheme.meas.m0), conj(scheme.meas.m1)),
    )


@st.composite
def representation_cases(draw):
    """A program and an observable from the families that stress the
    spectral layer: rotation blocks on the unit circle (plain and in a
    random basis), defective zero clusters, the committed models and
    random programs."""
    kind = draw(st.sampled_from(
        ["rotation", "rotation_similar", "counter", "decaying", "committed", "random"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind.startswith("rotation"):
        scheme = block_unitary_scheme(draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0)))
        if kind == "rotation_similar":
            scheme = conjugated(scheme, random_unitary(3, rng))
        prog = scheme.with_initial_state(random_density(3, rng))
    elif kind == "counter":
        d = draw(st.integers(2, 6))
        prog = counter_scheme(d).with_initial_state(random_density(d, rng))
    elif kind == "decaying":
        prog = decaying_block_program()
    elif kind == "committed":
        name = draw(st.sampled_from(sorted(p.name for p in MODELS_DIR.glob("*.model"))))
        model = load_model(MODELS_DIR / name)
        prog = (
            model.to_scheme().with_initial_state(random_density(model.dim, rng))
            if model.rho0 is None
            else model.to_program()
        )
    else:
        prog = random_program(draw(st.integers(2, 6)), rng)
    return prog, random_observable(prog.dim, rng)


@settings(deadline=None, derandomize=True)
@given(representation_cases())
def test_real_eigensolve_matches_the_complex_reference(case):
    prog, p = case
    rep = build_representation(prog)
    ref = vec_reference(prog)
    sd, sd_ref = rep.spectral, ref.spectral

    # eigenvalue multisets, matched greedily to the nearest
    tol = 1e-12 * max(1.0, sd_ref.norm)
    remaining = list(sd_ref.eigenvalues)
    for z in sd.eigenvalues:
        k = int(np.argmin(np.abs(np.array(remaining) - z)))
        assert abs(remaining.pop(k) - z) <= tol
    assert abs(sd.norm - sd_ref.norm) <= tol
    assert np.count_nonzero(sd.unit_circle_flags) == np.count_nonzero(sd_ref.unit_circle_flags)
    # the two eigensolves may order the unit clusters differently
    sizes, sizes_ref = ([c.size for c in s.unit_clusters()] for s in (sd, sd_ref))
    assert sorted(sizes) == sorted(sizes_ref)
    gap = rep.spectral.gap()
    assert abs(gap - ref.margin) <= 1e-12
    assert 0 < rep.margin <= gap
    if rep.unit_projector is None:
        assert max_abs(ref.unit_projector) <= 1e-10
    else:
        assert max_abs(vec_matrix(rep.unit_projector) - ref.unit_projector) <= 1e-10

    for check in (
        lambda r: check_program_termination(r, prog.rho0),
        check_scheme_termination,
    ):
        got, want = check(rep), check(ref)
        assert (got.terminates, got.terminates_at, got.almost_terminates) == (
            want.terminates, want.terminates_at, want.almost_terminates
        )

    value = expectation_closed_form(rep, prog.rho0, p)
    assert abs(value - vec_closed_form(ref, prog.rho0, p)) <= 1e-10
    time, time_ref = average_running_time(rep, prog.rho0), vec_running_time(ref, prog.rho0)
    assert time == time_ref if time_ref == math.inf else abs(time - time_ref) <= 1e-10


def eigen_path(scheme):
    """``build_representation`` with the certificate refused: the
    eigenvalues decide the unit circle."""
    with mock.patch.object(qmcverify.spectral, "kraus_certificate", return_value=None):
        return build_representation(scheme)


def assert_certified_like_the_eigen_path(prog, p):
    """The certificate holds, its margin is a lower bound on the gap the
    eigenvalues give, and the closed forms are the eigen path's, bit for
    bit."""
    rep, eigen = build_representation(prog), eigen_path(prog)
    assert rep.certificate is not None and eigen.certificate is None
    assert not rep.spectral.unit_circle_flags.any()
    gap = 1.0 - rep.spectral.spectral_radius()
    assert eigen.margin == gap
    assert 0 < rep.margin <= gap
    for closed_form in (
        lambda r: expectation_closed_form(r, prog.rho0, p),
        lambda r: average_running_time(r, prog.rho0),
    ):
        assert closed_form(rep) == closed_form(eigen)
    return rep


@st.composite
def programs_without_unit_spectrum(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    make = draw(st.sampled_from([random_program, random_contracting_program]))
    prog = make(draw(st.integers(2, 6)), rng)
    return prog, random_observable(prog.dim, rng)


@settings(deadline=None, derandomize=True)
@given(programs_without_unit_spectrum())
def test_certified_margin_bounds_the_gap_and_keeps_the_closed_forms(case):
    # Every random program's survival step has norm below one, so the
    # certificate must hold.
    assert_certified_like_the_eigen_path(*case)


@pytest.mark.parametrize(
    "scheme",
    [load_model(MODELS_DIR / name).to_scheme() for name in ("bitflip_p1.model", "unitary_m0zero.model")]
    + [hadamard_walk_scheme(4), block_unitary_scheme()],
    ids=["bitflip_p1", "unitary_m0zero", "walk4", "block_unitary"],
)
def test_certificate_refuses_an_exact_unit_spectrum(scheme):
    rep = build_representation(scheme)
    assert rep.certificate is None
    assert rep.spectral.unit_circle_flags.any()


def test_certificate_refuses_a_rotation_under_a_random_similarity(monkeypatch, rng):
    # K = A U A^-1 keeps the eigenvalues 1, 1 and exp(+-i phi) of the
    # unitary channel of U = diag(1, exp(i phi)), and its R is that
    # channel's R under the similarity A (x) conj(A), which is not
    # orthogonal: a rotation block in a random basis, of a positive map.
    # The build checks the resolvent sum on K itself wherever the solve of
    # the singular I - R does not break down.
    calls = []

    def recording(g, v):
        calls.append(kraus_certificate(g, v))
        return calls[-1]

    monkeypatch.setattr(qmcverify.spectral, "kraus_certificate", recording)
    for _ in range(20):
        u = np.diag([1.0, np.exp(1j * rng.uniform(0.1, 3.0))])
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rep = build_representation(_unchecked_scheme([a @ u @ np.linalg.inv(a)]))
        assert rep.certificate is None
        assert np.count_nonzero(rep.spectral.unit_circle_flags) == 4
    assert calls and all(cert is None for cert in calls)


@pytest.mark.parametrize(
    "scheme",
    [hadamard_walk_scheme(n) for n in (5, 7, 9)] + [counter_scheme(d) for d in range(1, 19)],
    ids=[f"walk{n}" for n in (5, 7, 9)] + [f"counter{d}" for d in range(1, 19)],
)
def test_certificate_holds_on_the_odd_walks_and_the_counters(scheme):
    rng = np.random.default_rng(scheme.dim)
    prog = scheme.with_initial_state(random_density(scheme.dim, rng))
    assert_certified_like_the_eigen_path(prog, random_observable(scheme.dim, rng))


@pytest.mark.parametrize(
    "fault", [lambda v: np.full_like(v, np.nan), lambda v: -v], ids=["nan", "negated"]
)
def test_a_corrupted_certificate_solve_is_refused(fault, monkeypatch, rng):
    # The closed forms solve with np.linalg.solve too, so the fault is in
    # place for the build alone.
    solve = np.linalg.solve
    for prog in [bitflip_program(0.5, 0.6, 0.8)] + [random_program(d, rng) for d in (2, 3, 4)]:
        p = random_observable(prog.dim, rng)
        with monkeypatch.context() as patched:
            patched.setattr(np.linalg, "solve", lambda a, b: fault(solve(a, b)))
            rep = build_representation(prog)
        eigen = eigen_path(prog)
        assert rep.certificate is None
        assert rep.margin == eigen.margin
        assert expectation_closed_form(rep, prog.rho0, p) == expectation_closed_form(
            eigen, prog.rho0, p
        )
        assert average_running_time(rep, prog.rho0) == average_running_time(eigen, prog.rho0)


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_from_coordinates_inverts_coordinates(rng, d):
    h = random_observable(d, rng).mat
    assert max_abs(from_coordinates(coordinates(h)) - h) <= 1e-15
    c = rng.standard_normal(d * d)
    assert max_abs(coordinates(from_coordinates(c)) - c) <= 1e-15
    assert max_abs(from_coordinates(c).reshape(-1) - vec_coordinates(c[:, None])[:, 0]) == 0.0


def _certified_programs():
    """Certified programs: ``bitflip_p05``, the d = 6 counter from a
    random state and a seeded random d = 6 program."""
    rng = np.random.default_rng(6)
    return [
        load_model(MODELS_DIR / "bitflip_p05.model").validated.scheme,
        counter_scheme(6).with_initial_state(random_density(6, rng)),
        random_program(6, rng),
    ]


def _fresh_state_solve(rep, x):
    """``(I - N)^-1 x`` by a fresh ``np.linalg.solve`` in the layout of
    every state solve: ``coordinates(I)`` beside ``x``."""
    n = rep.dim**2
    rhs = np.column_stack([coordinates(np.eye(rep.dim)), x])
    return np.linalg.solve(np.eye(n) - rep.n_filtered, rhs)[:, 1]


def _closed_forms_by_fresh_solves(rep, rho0, p):
    y = _fresh_state_solve(rep, coordinates(rho0.mat))
    time_y = np.linalg.solve(np.eye(rep.dim**2) - rep.n_filtered, y)
    halting = coordinates(dagger(rep.m0) @ rep.m0)
    return float(coordinates(dagger(rep.m0) @ p.mat @ rep.m0) @ y), float(halting @ time_y)


def _closed_forms(rep, rho0, p):
    return expectation_closed_form(rep, rho0, p), average_running_time(rep, rho0)


@pytest.mark.parametrize("prog", _certified_programs(), ids=["bitflip_p05", "counter6", "random6"])
def test_solve_counts_of_the_shared_factorization(prog, monkeypatch):
    # The build's one solve serves the certificate and the start; the
    # expectation of that start runs none, its running time one, and any
    # other start one more for each.
    n = prog.dim**2
    solve, shapes = np.linalg.solve, []

    def counting(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    p = random_observable(prog.dim, np.random.default_rng(1))
    other = random_density(prog.dim, np.random.default_rng(2))
    rep = build_representation(prog)
    assert rep.certificate is not None
    counts = [len(shapes)]
    for call in (
        lambda: expectation_closed_form(rep, prog.rho0, p),
        lambda: average_running_time(rep, prog.rho0),
        lambda: expectation_closed_form(rep, other, p),
        lambda: average_running_time(rep, other),
    ):
        before = len(shapes)
        call()
        counts.append(len(shapes) - before)
    assert counts == [1, 0, 1, 1, 2]
    assert set(shapes) == {(n, n)}


# (program, 1 - p, relative error at most), each bound about twice the
# error measured when the table was written.  The chain's rows lose
# about u/(1 - p) to the second solve.
NEAR_UNIT_RUNNING_TIMES = [
    ("bitflip", 1e-8, 1e-8), ("bitflip", 1e-12, 1e-12), ("bitflip", 1e-13, 1e-13),
    ("chain", 1e-8, 2e-8), ("chain", 1e-12, 2e-5), ("chain", 1e-13, 5e-3),
]


@pytest.mark.parametrize("case, q, bound", NEAR_UNIT_RUNNING_TIMES)
def test_running_time_near_the_unit_circle_against_its_exact_sum(case, q, bound):
    # The exact sum is sum_n (n + 1) tr E0(G^n(rho0)), the rounded Kraus
    # entries taken exactly.  They lose about 1e-16 of trace per step, so
    # the state sum tr Y differs from it by 1.1e-3 at 1 - p = 1e-13 on
    # bitflip: the running time must read the halting-weighted sum.
    prog = bitflip_program(1.0 - q, 0.0, 1.0) if case == "bitflip" else rotated_chain_program(q)
    rep = build_representation(prog)
    assert rep.certificate is not None
    exact = exact_running_time(prog)
    time = average_running_time(rep, prog.rho0)
    assert float(abs(Fraction(time) - exact) / exact) <= bound


@pytest.mark.parametrize("prog", _certified_programs(), ids=["bitflip_p05", "counter6", "random6"])
def test_closed_forms_equal_fresh_solves_bit_for_bit(prog):
    rng = np.random.default_rng(prog.dim)
    rep = build_representation(prog)
    p = random_observable(prog.dim, rng)
    for rho0 in (prog.rho0, random_density(prog.dim, rng)):
        assert _closed_forms(rep, rho0, p) == _closed_forms_by_fresh_solves(rep, rho0, p)


@pytest.mark.parametrize("prog", _certified_programs(), ids=["bitflip_p05", "counter6", "random6"])
def test_no_representation_reads_a_stale_start_solution(prog):
    rng = np.random.default_rng(prog.dim + 1)
    rep = build_representation(prog)
    p = random_observable(prog.dim, rng)
    x0, y0 = rep.start_solution
    assert np.array_equal(x0, coordinates(prog.rho0.mat))
    # The start matches by value: a copy of rho0 reads the kept y0.
    copy = DensityOperator(prog.rho0.mat.copy())
    assert _closed_forms(rep, copy, p) == _closed_forms(rep, prog.rho0, p)
    # The same step from another start: each representation reads its own.
    other = prog.with_initial_state(random_density(prog.dim, rng))
    other_rep = build_representation(other)
    assert not np.array_equal(other_rep.start_solution[1], y0)
    for r in (rep, other_rep):
        assert _closed_forms(r, other.rho0, p) == _closed_forms_by_fresh_solves(r, other.rho0, p)


def test_certificate_reads_the_same_for_a_program_and_its_scheme():
    rng = np.random.default_rng(12)
    progs = _certified_programs() + [random_program(d, rng) for d in (2, 4, 9)]
    for prog in progs:
        rep = build_representation(prog)
        scheme_rep = build_representation(ProgramScheme(prog.e, prog.meas))
        e = coordinates(np.eye(prog.dim))
        v = np.linalg.solve(np.eye(prog.dim**2) - rep.step_matrix, np.column_stack([e, e]))
        alone = kraus_certificate(rep.g, from_coordinates(v[:, 0]))
        assert rep.certificate is not None
        assert rep.certificate == scheme_rep.certificate == alone


def test_certified_build_has_no_unit_projector():
    for prog in _certified_programs():
        rep = build_representation(prog)
        assert rep.certificate is not None and rep.unit_projector is None
        assert rep.n_filtered is rep.step_matrix
        assert rep.unit_overlap(prog.rho0.mat) == (0.0, True)
        assert np.array_equal(rep.resolvent, np.eye(prog.dim**2) - rep.step_matrix)


def test_eigen_path_without_unit_spectrum_has_no_unit_projector(tmp_path, capsys):
    # Bitflip from |1> at 1 - p = 1e-15: the certificate's slack exceeds
    # its minimum, so the eigenvalues decide, and with eps_unit = 0 the
    # eigenvalue p, 1.1e-15 below one, is not flagged.
    prog = bitflip_program(1 - 1e-15, 0, 1)
    rep = build_representation(prog, eps_unit=0)
    assert rep.certificate is None and rep.start_solution is None
    assert not rep.spectral.unit_circle_flags.any()
    assert rep.unit_projector is None
    assert rep.n_filtered is rep.step_matrix
    assert rep.margin == pytest.approx(1.1e-15, rel=0.01)
    assert rep.unit_overlap(prog.rho0.mat) == (0.0, True)
    assert np.array_equal(rep.resolvent, np.eye(4) - rep.step_matrix)

    path = tmp_path / "bitflip.model"
    save_model(
        Model(dim=2, kraus=list(prog.e.kraus), m0=prog.meas.m0, m1=prog.meas.m1,
              rho0=prog.rho0.mat, observables={}),
        path,
    )
    assert main(["terminate", str(path), "--eps-unit", "0"]) == 0
    out = capsys.readouterr().out
    assert "almost terminates: yes" in out
    assert "decided by eigenvalues" in out


# The forward certificate: the same check on d x d matrices, for V_N =
# sum_{n<N} G^n(I).


@settings(deadline=None, derandomize=True)
@given(programs_without_unit_spectrum())
def test_forward_margin_bounds_the_gap(case):
    prog, _ = case
    cert = forward_certificate(prog.g)
    if cert is not None:
        assert 0 < cert.margin <= 1.0 - eigen_path(prog).spectral.spectral_radius()


@pytest.mark.parametrize(
    "scheme",
    [load_model(MODELS_DIR / name).to_scheme() for name in ("bitflip_p1.model", "unitary_m0zero.model")]
    + [hadamard_walk_scheme(4), block_unitary_scheme()],
    ids=["bitflip_p1", "unitary_m0zero", "walk4", "block_unitary"],
)
def test_forward_certificate_refuses_an_exact_unit_spectrum(scheme, monkeypatch):
    # The norm bound never passes, so no eigensolve runs.
    calls = count_calls(monkeypatch, "eigvalsh")
    assert forward_certificate(scheme.g) is None
    assert calls == []
    assert isinstance(decide_unit_circle(scheme), ProgramRepresentation)


@pytest.mark.parametrize("d", range(1, 19))
def test_forward_certificate_holds_on_the_counters_within_d_steps(d, monkeypatch):
    # G^d(I) = 0, so V_d holds: d forward steps and one for D.
    steps = []
    apply_mat = SuperOperator.apply_mat

    def counting(self, mat):
        steps.append(mat.shape)
        return apply_mat(self, mat)

    monkeypatch.setattr(SuperOperator, "apply_mat", counting)
    cert = forward_certificate(counter_scheme(d).g)
    assert cert is not None
    assert len(steps) == cert.terms + 1 <= d + 1
    assert 0 < cert.margin <= 1.0 / d


@pytest.mark.parametrize("q", [1e-12, 1e-13, 1e-14, 1e-15, 1e-16])
def test_forward_margin_stays_below_a_near_unit_gap(q):
    # The step's one nonzero eigenvalue is a^2, a = fl(sqrt(p)) the
    # rounded Kraus entry, so its exact gap is 1 - a^2.  The build's
    # resolvent sum holds down to 1 - p = 1e-14; below, its slack
    # exceeds its minimum.
    prog = bitflip_program(1.0 - q, 0.0, 1.0)
    a = Fraction(float(prog.g.kraus[0][1, 1].real))
    gap = min(q, float(1 - a * a))
    cert = forward_certificate(prog.g)
    if cert is not None:
        assert 0 < cert.margin <= gap
    built = build_representation(prog).certificate
    assert (built is not None) == (q >= 1e-14)
    if built is not None:
        assert 0 < built.margin <= gap


@pytest.mark.parametrize("q, certified", [(1e-13, True), (1e-14, False)])
def test_build_certificate_reaches_the_rotated_chain_to_1e_13(q, certified):
    prog = rotated_chain_program(q)
    cert = build_representation(prog).certificate
    assert (cert is not None) == certified
    if certified:
        assert 0 < cert.margin <= 1.0 - eigen_path(prog).spectral.spectral_radius()


def test_kraus_certificate_refuses_a_candidate_that_does_not_contract():
    # V = |0><0| is not positive definite, and for V = I on a unitary
    # step D = 0: neither clears the slack.  The counter steps |0> to |1>
    # to |2> and halts there, so V = diag(1, 2, 3) has D = I.
    g = counter_scheme(3).g
    assert kraus_certificate(g, np.diag([1.0, 0.0, 0.0]).astype(complex)) is None
    assert kraus_certificate(SuperOperator([np.eye(3)]), np.eye(3, dtype=complex)) is None
    assert kraus_certificate(g, np.full((3, 3), np.nan, dtype=complex)) is None
    assert kraus_certificate(g, np.diag([1.0, 2.0, 3.0]).astype(complex)) is not None


@settings(deadline=None, derandomize=True)
@given(representation_cases())
def test_forward_decision_keeps_the_termination_verdicts(case):
    prog, _ = case
    for scheme, check in (
        (prog, lambda r: check_program_termination(r, prog.rho0)),
        (ProgramScheme(prog.e, prog.meas), check_scheme_termination),
    ):
        rep, built = decide_unit_circle(scheme), build_representation(scheme)
        assert isinstance(rep, CertifiedStep) == (forward_certificate(scheme.g) is not None)
        got, want = check(rep), check(built)
        assert (got.terminates_at, got.almost_terminates, got.nilpotent_check_power) == (
            want.terminates_at, want.almost_terminates, want.nilpotent_check_power
        )


def test_certified_step_reads_the_eigenvalues_of_the_build():
    for prog in _certified_programs():
        step = decide_unit_circle(prog)
        assert isinstance(step, CertifiedStep)
        assert step.certificate == forward_certificate(prog.g)
        assert step.margin == step.certificate.margin
        assert step.unit_overlap(prog.rho0.mat) == (0.0, True)
        sd, want = step.spectral, build_representation(prog).spectral
        assert np.array_equal(sd.eigenvalues, want.eigenvalues)
        assert np.array_equal(sd.unit_circle_flags, want.unit_circle_flags)


def test_decide_unit_circle_validates_eps_unit():
    with pytest.raises(qmcverify.ValidationError, match="eps_unit"):
        decide_unit_circle(counter_scheme(3), eps_unit=1.0)


def test_certified_terminate_builds_no_step_matrix(tmp_path, capsys):
    # A d = 18 step matrix alone takes d^4 * 8 bytes; a certified
    # terminate, model load included, peaks below that.
    d = 18
    prog = random_program(d, np.random.default_rng(d))
    m0 = prog.meas.m0
    path = tmp_path / "random18.model"
    save_model(
        Model(dim=d, kraus=list(prog.e.kraus), m0=m0, m1=prog.meas.m1, rho0=prog.rho0.mat,
              observables={"P": m0.conj().T @ m0}),
        path,
    )
    for scope in ("program", "scheme"):
        argv = ["terminate", str(path), "--scope", scope]
        assert main(argv) == 0  # warm caches and imports
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d**4 * 8, (scope, peak)
    assert "decided by certificate" in capsys.readouterr().out


def test_spectrum_reads_the_same_with_and_without_the_forward_certificate(tmp_path, capsys):
    paths = [str(p) for p in sorted(MODELS_DIR.glob("*.model"))]
    paths.append(str(tmp_path / "counter6.model"))
    scheme = counter_scheme(6)
    save_model(
        Model(dim=6, kraus=list(scheme.e.kraus), m0=scheme.meas.m0, m1=scheme.meas.m1,
              rho0=None, observables={}),
        paths[-1],
    )
    for path in paths:
        docs = []
        for refused in (False, True):
            out = tmp_path / "spectrum.json"
            with mock.patch.object(
                qmcverify.spectral, "forward_certificate",
                **({"return_value": None} if refused else {"wraps": forward_certificate}),
            ):
                assert main(["spectrum", path, "--json-out", str(out)]) == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1], path
    capsys.readouterr()
