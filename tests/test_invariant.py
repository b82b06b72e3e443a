import math
import re
from fractions import Fraction

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
    certified_expectation,
    check_conditions,
    is_positive_semidefinite,
    least_fixed_point_q,
    matrix_representation,
    oracle_expectation,
    terminal_state_series,
)
from qmcverify.invariant import (
    STOP_REASONS,
    _COMBINE_PARTS,
    _MAX_LINEAR_EXP,
    _TAIL_STEPS,
    _check_increments,
    _linear_budget,
    _qv3_tail_values,
)
from qmcverify.linalg import max_abs, psd_flags, psd_split
from qmcverify.model import load_model

from helpers import (
    MODELS_DIR,
    P0,
    Z,
    bitflip_program,
    completion_expansion_residual,
    counter_scheme,
    hadamard_walk_scheme,
    m1_zero_program,
    oracle_fixed_point,
)
from sampling import random_contracting_program, random_density, random_observable


# The largest linear-stage budget the rule can give.
LARGEST_BUDGET = 2**_MAX_LINEAR_EXP


def force_budget(monkeypatch, budget):
    monkeypatch.setattr("qmcverify.invariant._linear_budget", lambda d: budget)


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


# Each bad number, with the start of its message.
_TOL = "tol must be a finite number > 0, got "
_N_MAX = "n_max must be an integer >= 0, got "
BAD_FIXED_POINT_NUMBERS = {
    "tol=nan": ("tol", math.nan, _TOL),
    "tol=0": ("tol", 0, _TOL),
    "tol=-1": ("tol", -1, _TOL),
    "n_max=-3": ("n_max", -3, _N_MAX),
    "n_max=2.5": ("n_max", 2.5, _N_MAX),
}


@pytest.mark.parametrize("case", sorted(BAD_FIXED_POINT_NUMBERS))
def test_least_fixed_point_refuses_a_bad_number(case):
    name, value, message = BAD_FIXED_POINT_NUMBERS[case]
    prog = load_model(MODELS_DIR / "bitflip_p05.model").to_program()
    with pytest.raises(ValidationError, match="^" + re.escape(message)):
        least_fixed_point_q(prog, P0, **{name: value})


@pytest.mark.parametrize("n_max", [-3, 2.5])
def test_certified_expectation_refuses_a_bad_n_max(n_max):
    prog = load_model(MODELS_DIR / "bitflip_p05.model").to_program()
    with pytest.raises(ValidationError, match="^" + re.escape(_N_MAX)):
        certified_expectation(prog, P0, n_max=n_max)


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
    cond = check_conditions(prog, cert)
    assert cond["qv1"] and cond["qv2"] and cond["qv3"]


def test_conditions_zero_observable():
    prog = bitflip_program(0.5, 0.6, 0.8)
    cert = least_fixed_point_q(prog, Observable(np.zeros((2, 2))))
    cond = check_conditions(prog, cert)
    assert cond["qv1"] and cond["qv2"] and cond["qv3"]
    assert cond["qv1_value"] == pytest.approx(0.0, abs=1e-12)


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
    from qmcverify.invariant import _completion_mat

    prog = bitflip_program(1.0, 0.6, 0.8)
    least = least_fixed_point_q(prog, P0)
    other = np.eye(2)
    completion = _completion_mat(prog.meas, P0.mat, other)
    assert max_abs(prog.e.apply_dual_mat(completion) - other) <= 1e-12
    for _ in range(10):
        rho = random_density(2, rng)
        lhs = np.trace(least.q.mat @ rho.mat).real
        rhs = np.trace(other @ rho.mat).real
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
    value = certified_expectation(prog, p)[0]
    assert value == pytest.approx(direct, abs=1e-9)


def test_general_expectation_pauli_z_vs_series():
    prog = bitflip_program(0.5, *np.sqrt([0.5, 0.5]))
    rho_star = terminal_state_series(prog, tail_tol=1e-13).rho_star
    expected = np.trace(Z @ rho_star.mat).real
    value = certified_expectation(prog, Observable(Z))[0]
    assert value == pytest.approx(expected, abs=1e-8)


def test_general_expectation_zero_observable():
    prog = bitflip_program(0.5, 0.6, 0.8)
    zero = Observable(np.zeros((2, 2)))
    assert certified_expectation(prog, zero)[0] == 0.0


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


def test_linear_bound_is_not_taken_from_the_first_ratio(monkeypatch):
    # increments 1, 1e-7, 1e-7 p, ...: the first ratio alone would claim
    # convergence after two steps.  At d = 2 the budget is 1 and the ratio
    # bound never runs, so give the linear stage the largest budget.
    force_budget(monkeypatch, LARGEST_BUDGET)
    prog = bitflip_program(1 - 1e-7, 0.0, 1.0)
    cert = least_fixed_point_q(prog, P0)
    assert cert.stop_reason == "bound"
    assert cert.iterations > LARGEST_BUDGET
    assert cert.qv1_value == pytest.approx(1.0, abs=1e-9)


def series_remainders(prog, p, steps):
    # sum_{k>n} tr(E0*(P) G^k(rho0)) for n < steps, from terminal terms
    # stepped until the surviving mass is gone (or the step cap, for a
    # program whose surviving mass never halts).
    b = prog.meas.m0.conj().T @ p.mat @ prog.meas.m0
    sigma, terms = prog.rho0.mat, []
    while len(terms) <= steps or (np.trace(sigma).real > 1e-18 and len(terms) < 20_000):
        terms.append(np.trace(b @ sigma).real)
        sigma = prog.g.apply_mat(sigma)
    tails = np.cumsum(terms[::-1])[::-1]
    return tails[1 : steps + 1]


def test_qv3_tail_of_the_least_invariant_is_the_series_remainder(rng):
    # tr(E*(L) E1(G^n(rho0))) = sum_{k>n} tr(E0*(P) G^k(rho0)), so QV3
    # holds by construction, terminating or not.
    cases = [
        (random_contracting_program(d, rng), random_observable(d, rng, psd=True))
        for d in (2, 3, 5)
        for _ in range(3)
    ]
    near = bitflip_program(0.99, 0.0, 1.0)
    cases += [(near, P0), (bitflip_program(1.0, 0.6, 0.8), P0)]
    for prog, p in cases:
        cert = least_fixed_point_q(prog, p)
        tail = _qv3_tail_values(prog, cert.q.mat)
        want = series_remainders(prog, p, _TAIL_STEPS[len(tail) - 1] + 1)
        assert max(abs(t - want[n]) for t, n in zip(tail, _TAIL_STEPS)) <= 1e-11
    assert least_fixed_point_q(near, P0).iterations > _linear_budget(2)  # doubling ran


def test_computed_certificates_sample_no_tail(monkeypatch, rng):
    def no_tail(prog, q_mat):
        raise AssertionError("a QV3 tail was sampled")

    monkeypatch.setattr("qmcverify.invariant._qv3_tail_values", no_tail)
    cases = []
    for name in ("bitflip_p05", "bitflip_p1"):
        model = load_model(MODELS_DIR / f"{name}.model")
        cases += [(model.to_program(), model.observable(o)) for o in ("P0", "Z")]
    cases.append((random_contracting_program(3, rng), random_observable(3, rng)))
    for prog, o in cases:
        assert certified_expectation(prog, o)[1]["qv3"]
        for part in psd_split(o.mat):
            assert least_fixed_point_q(prog, Observable(part)).qv3_tail == ()


def test_non_psd_increment_in_doubling_stage_raises(monkeypatch):
    from qmcverify.channels import matrix_representation

    def corrupted(g):
        m = matrix_representation(g)
        m[0, 3] = -1.0  # G*(|0><0|) now has weight -1 on |1><1|
        return m

    monkeypatch.setattr("qmcverify.invariant.matrix_representation", corrupted)
    with pytest.raises(ConsistencyError, match="Loewner"):
        least_fixed_point_q(bitflip_program(0.999, 0.0, 1.0), P0)


def test_non_psd_increment_in_linear_stage_raises(monkeypatch):
    # The d = 9 counter from |0> with P = |8><8|: the linear stage runs
    # (budget 256), and G* shifts |k><k| to |k-1><k-1| and kills |0><0|.
    # One corrupted step gives the increment L_2 - L_1 = |7><7| - |0><0|/2;
    # the next step drops the fault, so only the increment check sees it.
    d = 9
    prog = counter_scheme(d).with_initial_state(DensityOperator(np.diag(np.eye(d)[0])))
    p = Observable(np.diag(np.eye(d)[-1]))
    assert _linear_budget(d) == LARGEST_BUDGET
    apply_dual_mat, calls = SuperOperator.apply_dual_mat, []

    def corrupted(self, mat):
        out = apply_dual_mat(self, mat)
        calls.append(None)
        if len(calls) == 2:
            out[0, 0] -= 0.5
        return out

    monkeypatch.setattr(SuperOperator, "apply_dual_mat", corrupted)
    with pytest.raises(ConsistencyError, match="Loewner"):
        least_fixed_point_q(prog, p)
    assert len(calls) == 2


NAN_FAULT = "fixed-point iteration produced an increment with NaN or Inf entries"


def test_nan_increment_in_linear_stage_is_a_numerical_fault(monkeypatch):
    # The d = 9 counter as above, with a NaN planted in the second step:
    # its delta is NaN, which is checked, not skipped, and fails at once.
    d = 9
    prog = counter_scheme(d).with_initial_state(DensityOperator(np.diag(np.eye(d)[0])))
    apply_dual_mat, calls = SuperOperator.apply_dual_mat, []

    def corrupted(self, mat):
        out = apply_dual_mat(self, mat)
        calls.append(None)
        if len(calls) == 2:
            out[0, 0] = np.nan
        return out

    monkeypatch.setattr(SuperOperator, "apply_dual_mat", corrupted)
    with pytest.raises(ConsistencyError, match=NAN_FAULT):
        least_fixed_point_q(prog, Observable(np.diag(np.eye(d)[-1])))
    assert len(calls) == 2


def test_nan_increment_in_doubling_stage_is_a_numerical_fault(monkeypatch):
    def corrupted(g):
        m = matrix_representation(g)
        m[0, 0] = np.nan
        return m

    monkeypatch.setattr("qmcverify.invariant.matrix_representation", corrupted)
    with pytest.raises(ConsistencyError, match=NAN_FAULT):
        least_fixed_point_q(bitflip_program(0.5, 0.0, 1.0), P0)


def test_the_first_failing_increment_names_the_fault():
    good, bad, nan = np.eye(2), -np.eye(2), np.full((2, 2), np.nan)
    _check_increments(np.array([good, good]))
    _check_increments(np.empty((0, 2, 2)))
    for stack, message in (([good, nan, bad], NAN_FAULT), ([good, bad, nan], "Loewner")):
        with pytest.raises(ConsistencyError, match=message):
            _check_increments(np.array(stack))


def _shelved_then_halted():
    """d = 4 with one unitary Kraus operator: |2> -> |1> -> |0>, which
    halts, and |3> survives forever.  From ``b = |0><0|`` the doubling
    stage's increments are |1><1| and |2><2|, then ``A^4 L_4`` is exactly
    zero while ``||A^k||_inf`` stays at one."""
    perm = np.zeros((4, 4), dtype=complex)
    for src, dst in ((2, 1), (1, 0), (0, 2), (3, 3)):
        perm[dst, src] = 1.0
    m0 = np.diag([1.0, 0.0, 0.0, 0.0])
    scheme = ProgramScheme(SuperOperator([perm]), TerminationMeasurement(m0, np.eye(4) - m0))
    return scheme, Observable(m0), {}


def _unit_spectrum_chain():
    """The d = 3 chain of test_unit_spectrum_stops_on_tol_without_a_bound
    and its halting observable."""
    p = 0.999
    flip = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    e = SuperOperator([np.sqrt(p) * np.eye(3), np.sqrt(1 - p) * flip])
    meas = TerminationMeasurement(np.diag([1.0, 0, 0]), np.diag([0, 1.0, 1.0]))
    return ProgramScheme(e, meas), Observable(np.diag([1.0, 0, 0])), {}


# Doubling-stage runs that end on each stop, each from a linear stage of
# one step (budget 1), whose one increment is checked on its own.
DOUBLING_STOPS = {
    "bound": lambda: (bitflip_program(0.999, 0.0, 1.0), P0, {}),
    "bound, 48 increments": lambda: (bitflip_program(1 - 1e-13, 0.0, 1.0), P0, {}),
    "n_max": lambda: (bitflip_program(1 - 1e-13, 0.0, 1.0), P0, {"n_max": 40}),
    "tol": _unit_spectrum_chain,
    "zero increment": _shelved_then_halted,
}


def _fault_at(monkeypatch, k):
    """Spy on the stacked check: record each call's stack size, and make
    the k-th doubled increment (from 1; 0 for none) negative definite in
    the stack that checks it."""
    sizes = []

    def spy(stack, tol):
        i = k - sum(sizes)  # the linear stage's increment is sizes[0]
        sizes.append(len(stack))
        if 0 <= i < len(stack) and len(sizes) > 1:
            stack = stack.copy()
            stack[i] = -np.eye(stack.shape[1])
        return psd_flags(stack, tol)

    monkeypatch.setattr("qmcverify.invariant.psd_flags", spy)
    return sizes


@pytest.mark.parametrize("case", sorted(DOUBLING_STOPS))
def test_every_doubling_stop_checks_the_increments_it_kept(case, monkeypatch):
    prog, p, kwargs = DOUBLING_STOPS[case]()
    force_budget(monkeypatch, 1)
    sizes = _fault_at(monkeypatch, 0)
    cert = least_fixed_point_q(prog, p, **kwargs)
    assert cert.stop_reason == case.split(",")[0].replace("zero increment", "bound")
    increments = sum(sizes) - 1
    assert increments >= 2
    # One check per started group of 32, the last one at the stop; a
    # fault in the first, the 33rd or the last increment surfaces.
    groups = [32] * (increments // 32) + [increments % 32] * bool(increments % 32)
    assert sizes == [1] + groups
    for k in sorted({1, 33, increments} & set(range(1, increments + 1))):
        _fault_at(monkeypatch, k)
        with pytest.raises(ConsistencyError, match="Loewner"):
            least_fixed_point_q(prog, p, **kwargs)


def test_committed_models_and_small_random_programs_stay_linear(monkeypatch, rng):
    # Under the rule's budget of 1 the doubling stage certifies all of
    # these with a finite bound; given the largest budget, the linear stage
    # certifies them on its own.
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
        assert np.isfinite(cert.error_bound)

    def no_doubling(g):
        raise AssertionError("the doubling stage ran")

    force_budget(monkeypatch, LARGEST_BUDGET)
    monkeypatch.setattr("qmcverify.invariant.matrix_representation", no_doubling)
    for prog, p in cases:
        cert = least_fixed_point_q(prog, p)
        assert cert.stop_reason == "bound"
        assert cert.iterations <= LARGEST_BUDGET


def test_n_max_caps_linear_steps_plus_squarings(monkeypatch):
    # Bitflip p = 0.999 from |1> needs 16 iterations under the rule's
    # budget of 1 and 268 under the largest budget, where n_max = 10 also
    # cuts the linear stage short of its budget.
    prog = bitflip_program(0.999, 0.0, 1.0)
    for budget, n_maxes in (
        (None, (1, 2, 5, 10, 15)),
        (LARGEST_BUDGET, (10, LARGEST_BUDGET, LARGEST_BUDGET + 3, LARGEST_BUDGET + 12)),
    ):
        if budget is not None:
            force_budget(monkeypatch, budget)
        for n_max in n_maxes:
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
            assert cert.qv1_value == certified_expectation(prog, p)[0]
            assert check_conditions(prog, cert)["qv1_value"] == cert.qv1_value


def test_split_observable_row_combines_its_parts_rows(rng):
    model = load_model(MODELS_DIR / "bitflip_p05.model")
    cases = [
        (model.to_program(), model.observable("Z")),
        (random_contracting_program(3, rng), random_observable(3, rng)),
    ]
    for prog, o in cases:
        assert not is_positive_semidefinite(o.mat)
        value, row = certified_expectation(prog, o)
        pos, neg = (
            check_conditions(prog, least_fixed_point_q(prog, Observable(part)))
            for part in psd_split(o.mat)
        )
        assert list(row) == list(_COMBINE_PARTS) == list(pos)
        assert row["iterations"] == pos["iterations"] + neg["iterations"]
        assert row["error_bound"] == pos["error_bound"] + neg["error_bound"]
        assert row["qv2_residual"] == max(pos["qv2_residual"], neg["qv2_residual"])
        for flag in ("converged", "qv1", "qv2", "qv3"):
            assert row[flag] == (pos[flag] and neg[flag])
        worse = max(pos["stop_reason"], neg["stop_reason"], key=STOP_REASONS.index)
        assert row["stop_reason"] == worse
        assert value == row["qv1_value"] == pos["qv1_value"] - neg["qv1_value"]


def test_psd_observable_row_is_its_certificate_row(rng):
    prog = random_contracting_program(3, rng)
    p = random_observable(3, rng, psd=True)
    value, row = certified_expectation(prog, p)
    assert row == check_conditions(prog, least_fixed_point_q(prog, p))
    assert list(row) == list(_COMBINE_PARTS)
    assert value == row["qv1_value"]


def test_unit_spectrum_stops_on_tol_without_a_bound():
    # d=3: |2> survives forever, |1> flips to the halting |0> with
    # probability 1 - p.  G* keeps |2><2|, so ||A^k||_inf never drops
    # below 1, while the increments, which never reach |2>, still vanish.
    scheme, halt, _ = _unit_spectrum_chain()
    prog = scheme.with_initial_state(DensityOperator(np.diag([0, 1.0, 0])))
    cert = least_fixed_point_q(prog, halt)
    assert cert.stop_reason == "tol" and not cert.converged
    assert cert.error_bound == np.inf
    assert cert.qv1_value == pytest.approx(1.0, abs=1e-9)
    assert max_abs(cert.q.mat - np.diag([1.0, 1.0, 0])) <= 1e-9
    # The absorbing Hadamard walk on a 4-cycle from |coin 0, vertex 1>: on
    # its unit spectrum ||A^k||_inf rounds just below 1, so the bound
    # formula runs and gave 9.9e12; a tol stop still certifies nothing.
    walk = hadamard_walk_scheme(4)
    start = np.zeros((8, 8))
    start[1, 1] = 1.0
    halt = Observable(walk.meas.m0)
    cert = least_fixed_point_q(walk.with_initial_state(DensityOperator(start)), halt)
    assert cert.stop_reason == "tol" and not cert.converged
    assert cert.error_bound == np.inf
    assert cert.qv1_value == pytest.approx(0.75, abs=1e-9)


def test_linear_budget_rule():
    budgets = [_linear_budget(d) for d in range(1, 41)]
    assert all(b & (b - 1) == 0 for b in budgets)
    assert budgets == sorted(budgets)
    assert _linear_budget(2) <= 2
    # A budget in between would cut the linear stage off before its ratio
    # bound certifies a contracting program and then double anyway.
    assert set(budgets) == {1, LARGEST_BUDGET}
    # The benchmark's d = 12-18 programs keep the largest budget.
    assert all(_linear_budget(d) == LARGEST_BUDGET for d in range(12, 19))


def test_benchmark_sizes_certify_in_the_linear_stage(monkeypatch, rng):
    # Random contracting programs and cyclic counters at d = 12, 15, 18
    # certify within the rule's budget, so they never reach the doubling
    # stage.
    def no_doubling(g):
        raise AssertionError("the doubling stage ran")

    monkeypatch.setattr("qmcverify.invariant.matrix_representation", no_doubling)
    for d in (12, 15, 18):
        counter = counter_scheme(d).with_initial_state(DensityOperator(np.diag(np.eye(d)[0])))
        cases = [(counter, Observable(counter.meas.m0))]
        cases += [
            (random_contracting_program(d, rng), random_observable(d, rng, psd=True))
            for _ in range(2)
        ]
        for prog, p in cases:
            cert = least_fixed_point_q(prog, p)
            assert cert.stop_reason == "bound"
            assert cert.iterations <= _linear_budget(d)


@pytest.mark.parametrize("name", ["bitflip_p1", "unitary_m0zero", "m1zero"])
def test_exact_zero_doubled_increment_certifies(monkeypatch, name):
    # With a budget of 1 the doubling stage starts from L_1 = b.  On
    # bitflip_p1, G* maps b = |0><0| to exactly zero while ||A||_inf = 1,
    # so only the zero increment certifies L = L_1.  m1zero has A = 0 and
    # unitary_m0zero has b = 0, which certify by the bound and in the
    # linear stage.
    model = load_model(MODELS_DIR / f"{name}.model")
    prog = model.to_program()
    force_budget(monkeypatch, 1)
    for obs in model.observables:
        for part in psd_split(model.observable(obs).mat):
            p = Observable(part)
            cert = least_fixed_point_q(prog, p)
            assert cert.stop_reason == "bound" and cert.error_bound == 0.0
            assert cert.iterations == 1
            want = oracle_expectation(prog, p, 1e-13).expectation_series
            assert cert.qv1_value == pytest.approx(want, abs=1e-12)


def test_hidden_slow_mode_chain():
    # d = 4 classical chain: |0> halts, |1> -> |0> w.p. 0.9, |2> -> |0>
    # w.p. 1e-12 and -> the absorbing, never halting |3> w.p. 1e-5.  From
    # |2> the program halts with probability 1e-12 / (1e-12 + 1e-5).  The
    # linear stage's ratio bound certified 1.4e-11 here with a bound of
    # 1.2e-13; doubling from the start reads the slow mode.
    a, b = 1e-12, 1e-5
    moves = {(0, 0): 1.0, (0, 1): 0.9, (1, 1): 0.1, (0, 2): a, (3, 2): b, (2, 2): 1 - a - b}
    moves[3, 3] = 1.0
    basis = np.eye(4)
    kraus = [np.sqrt(w) * np.outer(basis[i], basis[j]) for (i, j), w in moves.items()]
    m0 = np.diag([1.0, 0.0, 0.0, 0.0])
    scheme = ProgramScheme(SuperOperator(kraus), TerminationMeasurement(m0, np.eye(4) - m0))
    prog = scheme.with_initial_state(DensityOperator(np.diag([0.0, 0.0, 1.0, 0.0])))
    exact = a / (a + b)
    cert = least_fixed_point_q(prog, Observable(m0))
    assert cert.qv1_value == pytest.approx(exact, rel=1e-6)
    if cert.stop_reason == "bound":
        assert abs(cert.qv1_value - exact) <= cert.error_bound


@pytest.mark.parametrize("gap", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5])
def test_bitflip_value_is_one_to_1e_11(gap):
    cert = least_fixed_point_q(bitflip_program(1 - gap, 0.0, 1.0), P0)
    assert cert.converged
    assert abs(cert.qv1_value - 1.0) <= 1e-11


@pytest.mark.parametrize("gap", [1e-8, 1e-11, 1e-12, 9e-13, 5e-13, 1e-13])
def test_bitflip_value_at_tiny_gaps(gap):
    # Doubling from k = 1, the first increments are below tol long before
    # L_k nears the value; the tol stop must not take them.  The reference
    # is the exact value of the program as built: the rounded Kraus weights
    # sqrt(p)^2 + sqrt(1-p)^2 miss 1 by about 1e-16, which moves the value
    # off 1 by up to 1.1e-3 at gap 1e-13.
    prog = bitflip_program(1 - gap, 0.0, 1.0)
    stay = sum(Fraction(float(abs(k[1, 1]))) ** 2 for k in prog.e.kraus)
    halt = sum(Fraction(float(abs(k[0, 1]))) ** 2 for k in prog.e.kraus)
    cert = least_fixed_point_q(prog, P0)
    assert cert.converged
    assert cert.qv1_value == pytest.approx(float(halt / (1 - stay)), rel=1e-7)
