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
    average_running_time,
    build_representation,
    check_program_termination,
    check_scheme_termination,
    load_model,
    matrix_representation,
    terminal_state_series,
)
from qmcverify import termination

from helpers import (
    MODELS_DIR,
    bitflip_program,
    bitflip_scheme,
    block_unitary_scheme,
    counter_scheme,
    decaying_block_program,
    m1_zero_program,
    reference_termination,
    vec_reference,
    xflip_scheme,
)
from sampling import (
    random_channel,
    random_density,
    random_measurement,
    random_scheme,
    random_unitary,
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
    # The surviving mass drops below 1e-9 at the nilpotent index
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


def _small_weight_chain(w, basis):
    """|0> halts; |1> steps to |0> with weight 1 - w and stays with weight
    w; written in ``basis``, and started in |1>."""
    kraus = [np.diag([1.0, 0.0]), np.array([[0.0, np.sqrt(1 - w)], [0.0, 0.0]]),
             np.diag([0.0, np.sqrt(w)])]
    scheme = _scheme_in_basis(kraus, np.diag([1.0, 0.0]), basis)
    return scheme, DensityOperator(basis @ np.diag([0.0, 1.0]) @ basis.conj().T)


@pytest.mark.parametrize("w", [1e-3, 1e-6, 1e-9, 1e-10, 1e-12, 1e-16, 1e-20])
def test_a_small_weight_to_stay_is_not_exact_termination(w):
    # w^n of the mass survives every step: the run never terminates
    # exactly, and its mean running time is 1 + 1/(1 - w).  The support
    # step reads the stay as the amplitude sqrt(w) >= 1e-10, and the
    # search with no early stop reads it the same way.
    for basis in (np.eye(2), random_unitary(2, np.random.default_rng(7))):
        scheme, rho = _small_weight_chain(w, basis)
        rep = build_representation(scheme)
        for a, verdict in ((rho.mat, check_program_termination(rep, rho)),
                           (np.eye(2), check_scheme_termination(rep))):
            assert verdict.terminates_at is None
            assert verdict.almost_terminates
            assert reference_termination(rep, a) == (None, True)
        assert average_running_time(rep, rho) == pytest.approx(1 + 1 / (1 - w), rel=1e-12)


def _measurement_of_rank(d, rank, rng):
    """A complete measurement whose ``M1`` has the given rank."""
    w = np.concatenate([rng.uniform(0.3, 0.95, rank), np.zeros(d - rank)])
    v = random_unitary(d, rng)
    m1 = random_unitary(d, rng) @ (v * np.sqrt(w)) @ v.conj().T
    m0 = random_unitary(d, rng) @ (v * np.sqrt(1.0 - w)) @ v.conj().T
    return TerminationMeasurement(m0, m1)


def _density_of_rank(d, rank, rng):
    g = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def _planted_block_scheme(d1, d2, rng):
    """A random scheme on ``d1`` states beside a unitary block of ``d2``
    states that never halts, the whole rotated into a random basis."""
    d = d1 + d2
    u2 = random_unitary(d2, rng)
    kraus = []
    for k in random_channel(d1, rng).kraus:
        op = np.zeros((d, d), dtype=complex)
        op[:d1, :d1] = k
        op[d1:, d1:] = u2 / np.sqrt(2)
        kraus.append(op)
    inner = random_measurement(d1, rng)
    m0 = np.zeros((d, d), dtype=complex)
    m1 = np.zeros((d, d), dtype=complex)
    m0[:d1, :d1], m1[:d1, :d1] = inner.m0, inner.m1
    m1[d1:, d1:] = np.eye(d2)
    basis = random_unitary(d, rng)

    def conj(a):
        return basis @ a @ basis.conj().T

    meas = TerminationMeasurement(conj(m0), conj(m1))
    return ProgramScheme(SuperOperator([conj(k) for k in kraus]), meas)


def _assert_matches_reference(scheme, starts):
    rep = build_representation(scheme)
    scheme_verdict = check_scheme_termination(rep)
    expected = reference_termination(rep, np.eye(rep.dim))
    assert (scheme_verdict.terminates_at, scheme_verdict.almost_terminates) == expected
    for rho in starts:
        verdict = check_program_termination(rep, rho)
        expected = reference_termination(rep, rho.mat)
        assert (verdict.terminates_at, verdict.almost_terminates) == expected


@pytest.mark.parametrize("name", sorted(COMMITTED_VERDICTS))
def test_committed_models_match_the_full_length_search(name):
    prog = load_model(MODELS_DIR / f"{name}.model").validated.scheme
    starts = [] if COMMITTED_VERDICTS[name][0] is None else [prog.rho0]
    _assert_matches_reference(prog, starts)


@pytest.mark.parametrize("d", range(3, 19))
def test_counters_match_the_full_length_search(d, rng):
    first = DensityOperator(np.diag([1.0] + [0.0] * (d - 1)))
    _assert_matches_reference(counter_scheme(d), [first, random_density(d, rng)])


@pytest.mark.parametrize("d", range(2, 19))
def test_random_schemes_match_the_full_length_search(d):
    rng = np.random.default_rng([d, 29])
    low = max(1, (d - 1) // 2)
    for m1_rank in (d, low):
        scheme = ProgramScheme(random_channel(d, rng), _measurement_of_rank(d, m1_rank, rng))
        starts = [random_density(d, rng), random_density(d, rng, pure=True),
                  _density_of_rank(d, low, rng)]
        _assert_matches_reference(scheme, starts)


@pytest.mark.parametrize("d1, d2", [(1, 1), (2, 3), (5, 2), (9, 9)])
def test_planted_never_halting_blocks_match_the_full_length_search(d1, d2):
    rng = np.random.default_rng([d1, d2, 29])
    scheme = _planted_block_scheme(d1, d2, rng)
    d = d1 + d2
    starts = [random_density(d, rng), random_density(d, rng, pure=True),
              _density_of_rank(d, max(1, d // 2), rng)]
    _assert_matches_reference(scheme, starts)
    rep = build_representation(scheme)
    assert not check_scheme_termination(rep).almost_terminates


def _count_ranges(monkeypatch):
    calls = []
    support = termination._range

    def counting_range(mat):
        calls.append(1)
        return support(mat)

    monkeypatch.setattr(termination, "_range", counting_range)
    return calls


def test_a_full_rank_program_stops_after_one_step(monkeypatch, rng):
    rep = build_representation(random_scheme(7, rng))
    rho = random_density(7, rng)
    calls = _count_ranges(monkeypatch)
    for check in (lambda: check_program_termination(rep, rho),
                  lambda: check_scheme_termination(rep)):
        calls.clear()
        verdict = check()
        assert len(calls) == 2
        assert verdict.terminates_at is None
        assert verdict.support_stop == "whole_space"
        assert verdict.nilpotent_check_power == 1
        assert verdict.support_dropped_max is None


@pytest.mark.parametrize("d", [3, 8, 18])
def test_counter_takes_every_step(monkeypatch, d):
    rep = build_representation(counter_scheme(d))
    first = DensityOperator(np.diag([1.0] + [0.0] * (d - 1)))
    calls = _count_ranges(monkeypatch)
    for check in (lambda: check_program_termination(rep, first),
                  lambda: check_scheme_termination(rep)):
        calls.clear()
        verdict = check()
        assert len(calls) == d + 1
        assert verdict.terminates_at == d
        assert verdict.support_stop == "vanished"
        assert verdict.nilpotent_check_power == d
        assert verdict.support_kept_min > 0.99
        assert verdict.support_dropped_max < 1e-13


def test_a_support_that_barely_turns_still_empties():
    # From the start with coordinates 0.2^(d-1-k), one step drops the
    # last coordinate and shifts the rest up by one: the image is the
    # start without its first coordinate, 0.2^17 of the norm.  The two
    # supports agree to sin-angle 0.0 in double precision, yet the run
    # halts exactly at step d.
    d = 18
    rep = build_representation(counter_scheme(d))
    start = 0.2 ** (d - 1 - np.arange(d))
    start /= np.linalg.norm(start)
    rho = DensityOperator(np.outer(start, start))
    v0 = termination._range(rho.mat)[0][:, :1]
    v1 = termination._range(np.concatenate(rep.g.stack @ v0, axis=1))[0][:, :1]
    cos = abs((v0.conj().T @ v1).item())
    assert np.sqrt(max(0.0, 1.0 - cos * cos)) == 0.0
    verdict = check_program_termination(rep, rho)
    assert verdict.terminates_at == d
    assert verdict.support_stop == "vanished"


def test_a_full_start_with_a_rank_deficient_m1_continues(rng):
    d = 8
    scheme = ProgramScheme(random_channel(d, rng), _measurement_of_rank(d, 3, rng))
    rep = build_representation(scheme)
    rho = random_density(d, rng)
    for a, verdict in ((rho.mat, check_program_termination(rep, rho)),
                       (np.eye(d), check_scheme_termination(rep))):
        assert verdict.nilpotent_check_power > 1
        assert (verdict.terminates_at, verdict.almost_terminates) == (
            reference_termination(rep, a))
    counter = build_representation(counter_scheme(d))
    verdict = check_program_termination(counter, DensityOperator(np.eye(d) / d))
    assert (verdict.terminates_at, verdict.support_stop) == (d, "vanished")


@pytest.mark.parametrize("w, expected", [(1e-13, None), (2e-14, None), (0.0, 1)])
def test_a_small_start_weight_on_a_stuck_state_counts(w, expected):
    # The stuck bitflip halts from |0> at once and never from |1>; a
    # start weight is an eigenvalue of rho0, cut at START_RTOL.
    prog = bitflip_program(1.0, 1.0, 0.0)
    rep = build_representation(prog)
    verdict = check_program_termination(rep, DensityOperator(np.diag([1.0 - w, w])))
    assert verdict.terminates_at == expected


def test_a_kept_stay_is_reported_as_the_margin():
    # The chain's stay has amplitude sqrt(w): the search keeps it at
    # w = 1e-20, so the support is the whole space at steps 1 and 2, and
    # reports it as the smallest value kept.
    scheme, rho = _small_weight_chain(1e-20, np.eye(2))
    rep = build_representation(scheme)
    verdict = check_program_termination(rep, rho)
    assert (verdict.support_stop, verdict.nilpotent_check_power) == ("whole_space", 2)
    assert verdict.support_kept_min == pytest.approx(1e-10, rel=1e-9)
