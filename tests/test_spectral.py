import dataclasses
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qmcverify
from qmcverify import (
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
    vec,
)
from qmcverify.linalg import SpectralData, max_abs
from qmcverify.sampling import (
    random_contracting_program,
    random_density,
    random_observable,
    random_program,
    random_scheme,
    random_unitary,
)
from qmcverify.spectral import _hermitian_basis, _real_coordinates, coordinates

from helpers import (
    P0,
    X,
    bitflip_program,
    bitflip_scheme,
    bitflip_step_matrix,
    block_unitary_scheme,
    counter_scheme,
    decaying_block_program,
    filtered_power_residual,
    m1_zero_program,
    power_norm_bound_check,
    schrodinger_closed_form,
    schrodinger_running_time,
    vec_closed_form,
    vec_coordinates,
    vec_matrix,
    vec_reference,
    vec_running_time,
)

MODELS_DIR = Path(__file__).parent.parent / "models"


def test_representation_matches_displayed_matrix():
    scheme = bitflip_scheme(0.5)
    rep = build_representation(scheme)
    assert np.allclose(matrix_representation(scheme.g), bitflip_step_matrix(0.5), atol=1e-15)
    assert not rep.has_unit_spectrum()
    assert max_abs(rep.n_filtered - rep.spectral.matrix) == 0.0
    assert np.array_equal(matrix_representation(scheme.meas.e0), np.diag([1.0, 0.0, 0.0, 0.0]))


def test_representation_stuck_bitflip():
    scheme = bitflip_scheme(1.0)
    rep = build_representation(scheme)
    expected = np.zeros((4, 4))
    expected[3, 3] = 1.0
    assert np.allclose(matrix_representation(scheme.g), expected, atol=1e-15)
    assert rep.has_unit_spectrum()
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


@pytest.mark.parametrize("scheme", _builder_schemes())
def test_representation_holds_no_complex_step_matrix(scheme):
    rep = build_representation(scheme)
    assert not hasattr(rep, "m")
    d2 = rep.dim2
    for arr in (rep.spectral.matrix, rep.unit_projector, rep.n_filtered):
        assert arr.shape == (d2, d2) and arr.dtype == np.float64
    for field in dataclasses.fields(rep):
        value = getattr(rep, field.name)
        if isinstance(value, np.ndarray) and value.shape == (d2, d2) and rep.dim > 1:
            assert value.dtype == np.float64, field.name


def test_unit_projector_with_imaginary_coordinates_is_rejected(monkeypatch):
    unit_projector = SpectralData.unit_projector

    def complex_projector(self):
        return unit_projector(self) + 1e-6j

    scheme = block_unitary_scheme()
    assert build_representation(scheme).has_unit_spectrum()
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


def test_representation_rejects_expanding_step():
    # spectral radius > 1 cannot come from valid programs; feed the builder
    # a hand-made namespace that bypasses the channel validation
    from types import SimpleNamespace

    prog = bitflip_program(0.5, 0.6, 0.8)
    fake = SimpleNamespace(
        dim=2,
        g=SimpleNamespace(dim=2, stack=(1.1 * prog.meas.m1)[None]),
        meas=prog.meas,
    )
    with pytest.raises(RepresentationError):
        build_representation(fake)


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
    assert rep.has_unit_spectrum()
    for n in range(10):
        assert filtered_power_residual(rep, n) <= 1e-10


def test_filtering_correctness():
    rep = build_representation(block_unitary_scheme())
    p_u, r = rep.unit_projector, rep.spectral.matrix
    assert max_abs(rep.n_filtered @ p_u) <= 1e-10
    assert max_abs(
        rep.n_filtered @ (np.eye(rep.dim2) - p_u) - r @ (np.eye(rep.dim2) - p_u)
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
    from qmcverify.sampling import random_unitary

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


def test_real_coordinates_reject_a_step_that_breaks_hermiticity():
    # vec(A) -> vec(X A) maps Hermitian A to a non-Hermitian X A
    with pytest.raises(RepresentationError, match="Hermiticity"):
        _real_coordinates(np.kron(X, np.eye(2)))


def test_build_without_unit_spectrum_runs_one_real_eig(monkeypatch, rng):
    prog = random_contracting_program(3, rng)
    dtypes = []
    eig = np.linalg.eig

    def recording_eig(a):
        dtypes.append(a.dtype)
        return eig(a)

    monkeypatch.setattr(np.linalg, "eig", recording_eig)
    rep = build_representation(prog)
    assert not rep.has_unit_spectrum()
    assert dtypes == [np.float64]
    assert rep.spectral.eigenvalues.dtype == rep.spectral.right_vectors.dtype == complex


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
    assert sd.cluster_ids.max() == sd_ref.cluster_ids.max()
    assert abs(rep.margin - ref.margin) <= 1e-12
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
