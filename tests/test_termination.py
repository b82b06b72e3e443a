import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcverify import (
    ConsistencyError,
    DensityOperator,
    ProgramRepresentation,
    ProgramScheme,
    SuperOperator,
    TerminationMeasurement,
    build_representation,
    check_program_termination,
    check_scheme_termination,
    load_model,
    matrix_representation,
    terminal_state_series,
)
from qmcverify.sampling import random_density, random_scheme, random_unitary

from helpers import (
    MODELS_DIR,
    bitflip_program,
    bitflip_scheme,
    block_unitary_scheme,
    counter_scheme,
    decaying_block_program,
    m1_zero_program,
    vec_reference,
    xflip_scheme,
)


def test_xflip_scheme_terminates_at_two():
    rep = build_representation(xflip_scheme())
    verdict = check_scheme_termination(rep)
    assert verdict.terminates
    assert verdict.terminates_at == 2
    assert verdict.almost_terminates


def test_bitflip_terminating_program_is_almost_only():
    prog = bitflip_program(0.5, 0.6, 0.8)
    rep = build_representation(prog)
    verdict = check_program_termination(rep, prog.rho0)
    assert verdict.almost_terminates
    assert not verdict.terminates


def test_stuck_bitflip_from_ground_state_terminates_at_one():
    prog = bitflip_program(1.0, 1.0, 0.0)
    rep = build_representation(prog)
    verdict = check_program_termination(rep, prog.rho0)
    assert verdict.terminates
    assert verdict.terminates_at == 1
    assert verdict.almost_terminates


def test_stuck_bitflip_with_excited_component_never_terminates():
    prog = bitflip_program(1.0, 0.6, 0.8)
    rep = build_representation(prog)
    verdict = check_program_termination(rep, prog.rho0)
    assert not verdict.almost_terminates
    assert not verdict.terminates
    assert verdict.unit_overlap_norm == pytest.approx(0.64, abs=1e-10)


def test_m1_zero_scheme_terminates_at_one():
    rep = build_representation(m1_zero_program())
    verdict = check_scheme_termination(rep)
    assert verdict.terminates_at == 1


def test_bitflip_scheme_verdict():
    rep = build_representation(bitflip_scheme(0.5))
    verdict = check_scheme_termination(rep)
    assert verdict.almost_terminates
    assert not verdict.terminates


def test_block_unitary_scheme_is_not_almost_terminating():
    rep = build_representation(block_unitary_scheme())
    verdict = check_scheme_termination(rep)
    assert not verdict.almost_terminates
    assert verdict.unit_overlap_norm > 0.1


def test_verdict_consistent_with_series_residual(rng):
    scheme = block_unitary_scheme()
    rep = build_representation(scheme)
    for _ in range(5):
        rho = random_density(3, rng)
        verdict = check_program_termination(rep, rho)
        series = terminal_state_series(
            scheme.with_initial_state(rho), tail_tol=1e-10, n_max=3000
        )
        if verdict.almost_terminates:
            assert series.residual_mass <= 1e-8
        else:
            assert series.residual_mass >= 1e-4


def test_scheme_termination_implies_program_termination(rng):
    rep = build_representation(xflip_scheme())
    assert check_scheme_termination(rep).terminates
    for _ in range(10):
        rho = random_density(2, rng)
        assert check_program_termination(rep, rho).terminates


def test_exact_termination_found_at_nilpotent_bound():
    rep = build_representation(xflip_scheme())
    bound = rep.spectral.zero_nilpotent_index_bound
    assert bound == 2
    m = matrix_representation(xflip_scheme().g)
    v = np.eye(rep.dim, dtype=complex).reshape(-1)
    for _ in range(bound):
        v = m @ v
    assert np.linalg.norm(v) <= 1e-12


def test_scheme_routes_agree_on_random_schemes(rng):
    for _ in range(15):
        d = int(rng.integers(2, 4))
        rep = build_representation(random_scheme(d, rng))
        via_phi = check_scheme_termination(rep)
        mixed = DensityOperator(np.eye(d) / d)
        via_mixed = check_program_termination(rep, mixed)
        assert via_phi.terminates == via_mixed.terminates
        assert via_phi.terminates_at == via_mixed.terminates_at
        assert via_phi.almost_terminates == via_mixed.almost_terminates


def test_unit_overlap_uses_dual_basis():
    # for the rotating-block scheme the overlap must see exactly the mass
    # rho0 places on the never-terminating subspace
    scheme = block_unitary_scheme()
    rep = build_representation(scheme)
    rho_safe = DensityOperator(np.diag([1.0, 0.0, 0.0]))
    rho_stuck = DensityOperator(np.diag([0.0, 0.5, 0.5]))
    assert check_program_termination(rep, rho_safe).almost_terminates
    assert not check_program_termination(rep, rho_stuck).almost_terminates


@dataclass(frozen=True)
class StepOnly:
    """A stand-in representation: the survival step and the unit-circle
    projector, with the overlap test of ``ProgramRepresentation``."""

    dim: int
    g: SuperOperator
    unit_projector: np.ndarray

    unit_overlap = ProgramRepresentation.unit_overlap


def step_only(rep):
    return StepOnly(rep.dim, rep.g, rep.unit_projector)


def _verdict_tuple(v):
    return v.terminates, v.terminates_at, v.almost_terminates


ALMOST, NEVER = (False, None, True), (False, None, False)

# (program verdict, scheme verdict) of each committed model.
COMMITTED_VERDICTS = {
    "bitflip_p05": (ALMOST, ALMOST),
    "bitflip_p1": (NEVER, NEVER),
    "m1zero": ((True, 1, True), (True, 1, True)),
    "unitary_m0zero": (NEVER, NEVER),
    "xflip_scheme": (None, (True, 2, True)),
}


@pytest.mark.parametrize("name", sorted(COMMITTED_VERDICTS))
def test_termination_reads_only_the_step_and_the_unit_projector(name):
    prog = load_model(MODELS_DIR / f"{name}.model").validated.scheme
    rep = step_only(build_representation(prog))
    program, scheme = COMMITTED_VERDICTS[name]
    assert _verdict_tuple(check_scheme_termination(rep)) == scheme
    if program is not None:
        assert _verdict_tuple(check_program_termination(rep, prog.rho0)) == program


def test_step_only_verdicts_match_the_vec_reference(rng):
    schemes = [block_unitary_scheme(), counter_scheme(5), decaying_block_program()]
    schemes += [random_scheme(int(rng.integers(2, 5)), rng) for _ in range(10)]
    for scheme in schemes:
        rep = step_only(build_representation(scheme))
        ref = vec_reference(scheme)
        rho = random_density(scheme.dim, rng)
        assert _verdict_tuple(check_scheme_termination(rep)) == _verdict_tuple(
            check_scheme_termination(ref)
        )
        assert _verdict_tuple(check_program_termination(rep, rho)) == _verdict_tuple(
            check_program_termination(ref, rho)
        )


def test_exact_termination_without_almost_termination_is_a_consistency_error():
    # A unit projector of I puts all of m1zero's start on the unit circle,
    # while the program halts at its first step.
    prog = load_model(MODELS_DIR / "m1zero.model").validated.scheme
    rep = build_representation(prog)
    rep = dataclasses.replace(rep, unit_projector=np.eye(rep.dim**2))
    with pytest.raises(ConsistencyError, match=r"at step 1 .*\(unit overlap 1\)"):
        check_program_termination(rep, prog.rho0)


def test_decaying_mass_is_not_exact_termination():
    # The surviving mass drops below ZERO_VECTOR_RTOL at the nilpotent index
    # of the step matrix, but the surviving state never vanishes.
    prog = decaying_block_program()
    rep = build_representation(prog)
    for verdict in (check_program_termination(rep, prog.rho0), check_scheme_termination(rep)):
        assert not verdict.terminates
        assert verdict.terminates_at is None
        assert verdict.almost_terminates


def test_counter_terminates_at_d_without_rank_of_powers(monkeypatch):
    calls = []
    matrix_rank = np.linalg.matrix_rank

    def counting_rank(*args, **kwargs):
        calls.append(1)
        return matrix_rank(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counting_rank)
    d = 6
    scheme = counter_scheme(d)
    rep = build_representation(scheme)
    first = DensityOperator(np.diag([1.0] + [0.0] * (d - 1)))
    assert check_program_termination(rep, first).terminates_at == d
    assert check_scheme_termination(rep).terminates_at == d
    assert calls == []
    assert rep.spectral.zero_nilpotent_index_bound == d


@st.composite
def permutation_programs(draw):
    """Mixtures of one or two phased permutations halting on one or two
    basis states (few, so that long runs are common), started uniformly on
    a random set of basis states.  Every step maps diagonal matrices to
    diagonal matrices, so zeros stay exact."""
    d = draw(st.integers(2, 7))
    n_kraus = draw(st.integers(1, 2))
    w = draw(st.floats(0.1, 0.9))
    weights = [1.0] if n_kraus == 1 else [w, 1.0 - w]
    kraus = []
    for weight in weights:
        perm = draw(st.permutations(range(d)))
        phases = draw(st.lists(st.floats(0.0, 2 * np.pi), min_size=d, max_size=d))
        k = np.zeros((d, d), dtype=complex)
        k[perm, range(d)] = np.sqrt(weight) * np.exp(1j * np.array(phases))
        kraus.append(k)
    halting = draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=2))
    start = draw(st.sets(st.integers(0, d - 1), min_size=1, max_size=d))
    m0 = np.diag([1.0 if j in halting else 0.0 for j in range(d)])
    rho0 = np.diag([1.0 if j in start else 0.0 for j in range(d)]) / len(start)
    seed = draw(st.integers(0, 2**32 - 1))
    return kraus, m0, rho0, random_unitary(d, np.random.default_rng(seed))


def _first_exact_zero(g, rho):
    """First n <= d^2 + 1 with G^n(rho) exactly the zero matrix, else None."""
    for n in range(1, rho.shape[0] ** 2 + 2):
        rho = g.apply_mat(rho)
        if not rho.any():
            return n
    return None


def _scheme_in_basis(kraus, m0, u):
    def conj(a):
        return u @ a @ u.conj().T

    d = m0.shape[0]
    meas = TerminationMeasurement(conj(m0), conj(np.eye(d) - m0))
    return ProgramScheme(SuperOperator([conj(k) for k in kraus]), meas)


@settings(deadline=None, derandomize=True)
@given(permutation_programs())
def test_exact_termination_matches_exact_zero_reference(case):
    kraus, m0, rho0, u = case
    d = m0.shape[0]
    scheme = _scheme_in_basis(kraus, m0, np.eye(d))
    expected = _first_exact_zero(scheme.g, rho0)
    expected_scheme = _first_exact_zero(scheme.g, np.eye(d) / d)
    for basis in (np.eye(d), u):
        rep = build_representation(_scheme_in_basis(kraus, m0, basis))
        rho = DensityOperator(basis @ rho0 @ basis.conj().T)
        assert check_program_termination(rep, rho).terminates_at == expected
        assert check_scheme_termination(rep).terminates_at == expected_scheme
