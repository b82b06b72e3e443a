import numpy as np
import pytest

from qmcverify import (
    ConsistencyError,
    DensityOperator,
    Observable,
    ProgramScheme,
    SuperOperator,
    TerminationMeasurement,
    ValidationError,
    build_representation,
    certificate_for,
    certified_expectation,
    check_conditions,
    check_program_termination,
    is_positive_semidefinite,
    least_fixed_point_q,
    matrix_representation,
    oracle_expectation,
    oracle_fixed_point,
    terminal_state_series,
)
from qmcverify.invariant import _LINEAR_STEPS, _qv3_tail_values
from qmcverify.linalg import max_abs, psd_split
from qmcverify.model import load_model
from qmcverify.sampling import random_contracting_program, random_density, random_observable

from helpers import (
    MODELS_DIR,
    P0,
    Z,
    bitflip_program,
    completion_expansion_residual,
    m1_zero_program,
)


def almost_terminates(prog):
    # The program's own verdict, as the CLI passes it to check_conditions.
    return check_program_termination(build_representation(prog), prog.rho0).almost_terminates


def test_least_fixed_point_bitflip_terminating():
    # K = pK + (1-p) has the unique solution K = 1, so the completion is I
    prog = bitflip_program(0.5, 0.6, 0.8)
    cert = least_fixed_point_q(prog, P0)
    assert cert.converged
    assert max_abs(cert.completion.mat - np.eye(2)) <= 1e-10
    assert cert.qv2_residual <= 1e-10


def test_least_fixed_point_bitflip_stuck():
    # p = 1 admits every K; the least solution picks K = 0
    prog = bitflip_program(1.0, 0.6, 0.8)
    cert = least_fixed_point_q(prog, P0)
    assert cert.converged
    assert cert.q.mat[1, 1].real == pytest.approx(0.0, abs=1e-12)
    assert max_abs(cert.completion.mat - np.diag([1.0, 0.0])) <= 1e-12


def test_least_fixed_point_m1_zero_single_iteration():
    prog = m1_zero_program()
    cert = least_fixed_point_q(prog, P0)
    expected = prog.e.apply_dual_mat(
        prog.meas.m0.conj().T @ P0.mat @ prog.meas.m0
    )
    assert max_abs(cert.q.mat - expected) <= 1e-12
    assert cert.iterations <= 2


def test_least_fixed_point_requires_psd_observable():
    prog = bitflip_program(0.5, 0.6, 0.8)
    with pytest.raises(ValidationError):
        least_fixed_point_q(prog, Observable(Z))


def test_solve_fast_path_matches_iteration(rng):
    # vec(G*(L)) = M^dag vec(L), so on a strictly contracting program the
    # limit L of the iteration is the unique solution of
    # (I - M^dag) vec(L) = vec(M0^dag P M0), and Q = E*(L).
    for _ in range(5):
        prog = random_contracting_program(2, rng)
        p = random_observable(2, rng, psd=True)
        cert = least_fixed_point_q(prog, p)
        m = matrix_representation(prog.g)
        base = prog.meas.m0.conj().T @ p.mat @ prog.meas.m0
        limit = np.linalg.solve(np.eye(4) - m.conj().T, base.reshape(-1)).reshape(2, 2)
        assert max_abs(cert.q.mat - prog.e.apply_dual_mat(limit)) <= 1e-8


def test_conditions_hold_for_terminating_bitflip():
    prog = bitflip_program(0.5, 0.6, 0.8)
    cert = least_fixed_point_q(prog, P0)
    cond = check_conditions(prog, cert, almost_terminates(prog))
    assert cond.qv1 and cond.qv2 and cond.qv3
    assert cond.almost_terminating


def test_conditions_reject_non_least_candidate_when_stuck():
    # on the p = 1 program, K = 1 satisfies QV2 but the tail stays |beta|^2
    prog = bitflip_program(1.0, 0.6, 0.8)
    cert = certificate_for(prog, P0, Observable(np.eye(2)))
    cond = check_conditions(prog, cert, almost_terminates(prog))
    assert cond.qv2
    assert not cond.qv3
    assert cond.qv3_limit == pytest.approx(0.64, abs=1e-10)


def test_conditions_zero_observable():
    prog = bitflip_program(0.5, 0.6, 0.8)
    cert = least_fixed_point_q(prog, Observable(np.zeros((2, 2))))
    cond = check_conditions(prog, cert, almost_terminates(prog))
    assert cond.qv1 and cond.qv2 and cond.qv3
    assert cond.qv1_value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "p,alpha,beta,expected",
    [(0.5, 0.6, 0.8, 1.0), (1.0, 0.6, 0.8, 0.36), (1.0, 1.0, 0.0, 1.0)],
)
def test_expectation_reproduces_termination_probabilities(p, alpha, beta, expected):
    prog = bitflip_program(p, alpha, beta)
    cert = least_fixed_point_q(prog, P0)
    assert cert.qv1_value == pytest.approx(expected, abs=1e-9)


def test_klem_identity_base_case(rng):
    prog = random_contracting_program(2, rng)
    p = random_observable(2, rng, psd=True)
    cert = least_fixed_point_q(prog, p)
    assert completion_expansion_residual(prog, p, cert, 0) <= 1e-10


def test_klem_identity_bitflip_range():
    prog = bitflip_program(0.5, 0.6, 0.8)
    cert = least_fixed_point_q(prog, P0)
    for n in range(1, 11):
        assert completion_expansion_residual(prog, P0, cert, n) <= 1e-9


def test_klem_identity_m1_zero():
    prog = m1_zero_program()
    cert = least_fixed_point_q(prog, P0)
    for n in (0, 3, 7):
        assert completion_expansion_residual(prog, P0, cert, n) <= 1e-12


def test_monotone_iteration_bounded_by_terminal_dual(rng):
    # Q_n <= F*(P) for every iterate, tested weakly on a basis of density
    # matrices: tr(Q_n rho) <= tr(P F(rho))
    from qmcverify.invariant import _completion_mat
    from qmcverify.program import _series_pass

    prog = random_contracting_program(2, rng)
    p = random_observable(2, rng, psd=True)
    basis = [
        np.diag([1.0, 0.0]).astype(complex),
        np.diag([0.0, 1.0]).astype(complex),
        np.full((2, 2), 0.5, dtype=complex),
        np.array([[0.5, -0.5j], [0.5j, 0.5]]),
    ]
    bounds = []
    for rho in basis:
        f_rho = _series_pass(prog, rho, 1e-13, 10**6).acc
        bounds.append(np.trace(p.mat @ f_rho).real)
    q_n = np.zeros((2, 2), dtype=complex)
    for _ in range(30):
        q_n = _completion_mat(prog.meas, p.mat, prog.e.apply_dual_mat(q_n))
        for rho, bound in zip(basis, bounds):
            assert np.trace(q_n @ rho).real <= bound + 1e-8


def test_monotone_iteration_is_loewner_increasing():
    from qmcverify.invariant import _completion_mat

    prog = bitflip_program(0.7, 0.6, 0.8)
    prev = np.zeros((2, 2), dtype=complex)
    for _ in range(20):
        nxt = _completion_mat(
            prog.meas, P0.mat, prog.e.apply_dual_mat(prev)
        )
        assert is_positive_semidefinite(nxt - prev, tol=1e-10)
        prev = nxt


def test_fixed_point_minimality_weak(rng):
    # any other QV2 solution dominates the least one in expectation
    prog = bitflip_program(1.0, 0.6, 0.8)
    least = least_fixed_point_q(prog, P0)
    other = certificate_for(prog, P0, Observable(np.eye(2)))
    assert other.qv2_residual <= 1e-12
    for _ in range(10):
        rho = random_density(2, rng)
        lhs = np.trace(least.q.mat @ rho.mat).real
        rhs = np.trace(other.q.mat @ rho.mat).real
        assert lhs <= rhs + 1e-10


def test_agreement_with_series_oracle(rng):
    tail_tol = 1e-12
    for _ in range(10):
        prog = random_contracting_program(2, rng)
        p = random_observable(2, rng, psd=True)
        cert = least_fixed_point_q(prog, p)
        via_invariant = cert.qv1_value
        via_series = oracle_expectation(prog, p, tail_tol).expectation_series
        assert abs(via_invariant - via_series) <= max(10 * tail_tol, 1e-8)


def test_general_expectation_matches_psd_route(rng):
    prog = random_contracting_program(2, rng)
    p = random_observable(2, rng, psd=True)
    cert = least_fixed_point_q(prog, p)
    direct = cert.qv1_value
    value = certified_expectation(prog, p, almost_terminates(prog))[0]
    assert value == pytest.approx(direct, abs=1e-9)


def test_general_expectation_pauli_z_vs_series():
    prog = bitflip_program(0.5, *np.sqrt([0.5, 0.5]))
    rho_star = terminal_state_series(prog, tail_tol=1e-13).rho_star
    expected = np.trace(Z @ rho_star.mat).real
    value = certified_expectation(prog, Observable(Z), almost_terminates(prog))[0]
    assert value == pytest.approx(expected, abs=1e-8)


def test_general_expectation_zero_observable():
    prog = bitflip_program(0.5, 0.6, 0.8)
    zero = Observable(np.zeros((2, 2)))
    assert certified_expectation(prog, zero, almost_terminates(prog))[0] == 0.0


def test_fixed_point_through_g_dual_matches_written_out_iteration(rng):
    # least_fixed_point_q steps G* (Kraus operators E_i M1); the oracle
    # keeps the written-out M1^dag E*(Q) M1.  The random programs certify
    # in the linear stage, where both run the same sequence.
    for d in (2, 3, 4):
        for _ in range(3):
            prog = random_contracting_program(d, rng)
            p = random_observable(d, rng, psd=True)
            cert = least_fixed_point_q(prog, p, tol=1e-13)
            assert cert.converged
            assert max_abs(cert.q.mat - oracle_fixed_point(prog, p, tol=1e-13).mat) <= 1e-12
    # Bitflip p = 0.999 from |1> goes on to the doubling stage, which ends
    # closer to the least invariant than the oracle's linear iteration
    # stopped at tol 1e-13 (about 1e-10 off); compare with the analytic
    # q = I instead.
    cert = least_fixed_point_q(bitflip_program(0.999, 0.0, 1.0), P0, tol=1e-13)
    assert cert.converged and cert.stop_reason == "bound"
    assert max_abs(cert.q.mat - np.eye(2)) <= 1e-12


def test_fixed_point_steps_g_and_the_oracle_does_not(monkeypatch):
    prog = bitflip_program(0.9, 0.6, 0.8)
    used = []
    orig = SuperOperator.apply_dual_mat

    def spy(self, mat):
        used.append(self)
        return orig(self, mat)

    monkeypatch.setattr(SuperOperator, "apply_dual_mat", spy)
    least_fixed_point_q(prog, P0)
    assert any(e is prog.g for e in used)
    used.clear()
    oracle_fixed_point(prog, P0)
    assert used and all(e is prog.e for e in used)


def test_linear_bound_is_not_taken_from_the_first_ratio():
    # increments 1, 1e-7, 1e-7 p, ...: the first ratio alone would claim
    # convergence after two steps
    prog = bitflip_program(1 - 1e-7, 0.0, 1.0)
    cert = least_fixed_point_q(prog, P0)
    assert cert.stop_reason == "bound"
    assert cert.iterations > _LINEAR_STEPS
    assert cert.qv1_value == pytest.approx(1.0, abs=1e-9)


def test_power_read_tail_matches_stepped_tail():
    prog = bitflip_program(0.99, 0.0, 1.0)
    cert = least_fixed_point_q(prog, P0)
    assert cert.iterations > _LINEAR_STEPS  # the doubling stage ran
    stepped = _qv3_tail_values(prog, cert.q.mat)
    # the power-read tail also closes the last pair n = 2^j, 2^j + 1
    assert len(cert.qv3_tail) - len(stepped) in (0, 1)
    assert max(abs(a - b) for a, b in zip(cert.qv3_tail, stepped)) <= 1e-12


def test_non_psd_increment_in_doubling_stage_raises(monkeypatch):
    from qmcverify.channels import matrix_representation

    def corrupted(g):
        m = matrix_representation(g)
        m[0, 3] = -1.0  # G*(|0><0|) now has weight -1 on |1><1|
        return m

    monkeypatch.setattr("qmcverify.invariant.matrix_representation", corrupted)
    with pytest.raises(ConsistencyError, match="Loewner"):
        least_fixed_point_q(bitflip_program(0.999, 0.0, 1.0), P0)


def test_committed_models_and_small_random_programs_stay_linear(monkeypatch, rng):
    def no_doubling(g):
        raise AssertionError("the doubling stage ran")

    monkeypatch.setattr("qmcverify.invariant.matrix_representation", no_doubling)
    cases = []
    for path in sorted(MODELS_DIR.glob("*.model")):
        model = load_model(path)
        targets = [model.to_scheme()]
        if model.rho0 is not None:
            targets.append(model.to_program())
        for name in model.observables:
            for part in psd_split(model.observable(name).mat):
                cases += [(t, Observable(part)) for t in targets]
    for d in (2, 3, 4):
        for _ in range(10):
            prog = random_contracting_program(d, rng)
            cases.append((prog, random_observable(d, rng, psd=True)))
    for prog, p in cases:
        cert = least_fixed_point_q(prog, p)
        assert cert.stop_reason == "bound"
        assert cert.iterations <= _LINEAR_STEPS


def test_n_max_caps_linear_steps_plus_squarings():
    prog = bitflip_program(0.999, 0.0, 1.0)
    for n_max in (10, _LINEAR_STEPS, _LINEAR_STEPS + 3, _LINEAR_STEPS + 12):
        cert = least_fixed_point_q(prog, P0, n_max=n_max)
        assert cert.iterations == n_max
        assert not cert.converged and cert.stop_reason == "n_max"
        # a partial result stays a lower bound of q = I
        assert np.all(np.linalg.eigvalsh(np.eye(2) - cert.q.mat) >= -1e-12)


def test_qv1_value_is_the_invariant_expectation(rng):
    for d in (2, 3, 4, 5):
        for _ in range(5):
            prog = random_contracting_program(d, rng)
            p = random_observable(d, rng, psd=True)
            cert = least_fixed_point_q(prog, p)
            almost = almost_terminates(prog)
            assert cert.qv1_value == certified_expectation(prog, p, almost)[0]
            assert check_conditions(prog, cert, almost).qv1_value == cert.qv1_value


def test_unit_spectrum_stops_on_tol_without_a_bound():
    # d=3: |2> survives forever, |1> flips to the halting |0> with
    # probability 1 - p.  G* keeps |2><2|, so ||A^k||_inf never drops
    # below 1, while the increments, which never reach |2>, still vanish.
    p = 0.999
    flip = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    e = SuperOperator([np.sqrt(p) * np.eye(3), np.sqrt(1 - p) * flip])
    meas = TerminationMeasurement(np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1.0]))
    prog = ProgramScheme(e, meas).with_initial_state(DensityOperator(np.diag([0, 1.0, 0])))
    cert = least_fixed_point_q(prog, Observable(np.diag([1.0, 0, 0])))
    assert cert.stop_reason == "tol" and cert.converged
    assert cert.error_bound == np.inf
    assert cert.qv1_value == pytest.approx(1.0, abs=1e-9)
    assert max_abs(cert.q.mat - np.diag([1.0, 1.0, 0])) <= 1e-9
