"""Invariant-based verification of terminal expectations.

For a positive observable ``P`` the method looks for a positive ``Q``
whose completion ``M0^dag P M0 + M1^dag Q M1`` is invariant under the
dual channel (condition QV2); together with finiteness (QV1) and
Q-termination (QV3) this pins the terminal expectation down to
``tr(completion rho0)``.

The least such ``Q`` always exists and is constructed here by the
monotone iteration ``Q_0 = 0``,
``Q_{n+1} = M0^dag P M0 + M1^dag E*(Q_n) M1``, whose limit ``L`` is the
completion itself; the invariant is ``Qbar = E*(L)``.  There is no
linear-solve shortcut: the equivalent linear system can silently pick a
non-least fixed point whenever the step representation has unit-modulus
spectrum, while the iteration cannot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import Observable
from .errors import ConsistencyError, ValidationError
from .linalg import dagger, is_positive_semidefinite, max_abs, psd_split
from .program import ProgramScheme, QuantumProgram
from .spectral import ProgramRepresentation, build_representation

DEFAULT_FIXED_POINT_TOL = 1e-12
DEFAULT_FIXED_POINT_N_MAX = 1_000_000

# Tail sampling for QV3: geometric step counts, stopping early once both
# the surviving mass and the tail value have stabilized (they are monotone
# resp. eventually constant up to unit-circle rotation, which the paired
# odd/even samples cover).
_TAIL_STABLE_TOL = 1e-12
_TAIL_MAX_EXP = 17


@dataclass(frozen=True, eq=False)
class InvariantCertificate:
    """Outcome of the fixed-point construction for one observable.

    ``q`` is the invariant candidate, ``completion`` the observable whose
    initial-state expectation reproduces the terminal one.  ``qv3_tail``
    holds ``tr(q . E1(G^n(rho0)))`` at geometrically spaced ``n`` (empty
    for schemes, which have no initial state).
    """

    q: Observable
    completion: Observable
    qv2_residual: float
    qv3_tail: tuple[float, ...]
    qv1_value: float | None
    iterations: int
    converged: bool


def _completion_mat(meas, p_mat: np.ndarray, q_mat: np.ndarray) -> np.ndarray:
    m0, m1 = meas.m0, meas.m1
    return dagger(m0) @ p_mat @ m0 + dagger(m1) @ q_mat @ m1


def _qv3_tail_values(prog: QuantumProgram, q_mat: np.ndarray) -> tuple[float, ...]:
    e1, g = prog.meas.e1, prog.g
    sigma = prog.rho0.mat
    samples: list[float] = []
    masses: list[float] = []
    targets = []
    for j in range(_TAIL_MAX_EXP + 1):
        targets.append(2**j)
        targets.append(2**j + 1)
    targets = sorted(set([0, 1] + targets))
    # Nilpotent transients of the step matrix last at most dim^2 steps;
    # only trust a plateau once the samples are past them.
    transient = max(16, 2 * prog.dim**2)
    n = 0
    for target in targets:
        while n < target:
            sigma = g.apply_mat(sigma)
            n += 1
        samples.append(float(np.trace(q_mat @ e1.apply_mat(sigma)).real))
        masses.append(float(np.trace(sigma).real))
        if masses[-1] < 1e-15:
            break
        if len(samples) >= 6 and target > transient:
            ds = max(abs(samples[-1] - samples[-3]), abs(samples[-2] - samples[-4]))
            dm = max(abs(masses[-1] - masses[-3]), abs(masses[-2] - masses[-4]))
            if ds <= _TAIL_STABLE_TOL and dm <= _TAIL_STABLE_TOL:
                break
    return tuple(samples)


def least_fixed_point_q(
    prog_or_scheme: ProgramScheme,
    p: Observable,
    tol: float = DEFAULT_FIXED_POINT_TOL,
    n_max: int = DEFAULT_FIXED_POINT_N_MAX,
) -> InvariantCertificate:
    """Least positive solution of ``E*(M0^dag P M0 + M1^dag Q M1) = Q``.

    Parameters
    ----------
    prog_or_scheme : ProgramScheme or QuantumProgram
        With a program, the certificate also carries the QV1 value and the
        QV3 tail samples for its initial state.
    p : Observable
        Must be positive semidefinite.
    tol : float
        Iteration stops once ``||Q_{n+1} - Q_n||_max < tol``.
    n_max : int
        Iteration cap; a certificate with ``converged=False`` is returned
        when it is hit (unit-modulus spectrum slows the iteration down to
        a crawl, but the partial result is still a valid lower bound).
    """
    if p.dim != prog_or_scheme.dim:
        raise ValidationError(
            f"observable dimension {p.dim} != program dimension {prog_or_scheme.dim}"
        )
    if not is_positive_semidefinite(p.mat):
        raise ValidationError(
            "the fixed-point construction needs a positive observable; "
            "split a general Hermitian one with general_expectation"
        )
    meas = prog_or_scheme.meas
    e = prog_or_scheme.e
    m1 = meas.m1
    base = _completion_mat(meas, p.mat, np.zeros_like(p.mat))

    limit = np.zeros_like(p.mat)
    iterations = 0
    converged = False
    check_until = 32
    while iterations < n_max:
        nxt = base + dagger(m1) @ e.apply_dual_mat(limit) @ m1
        delta = max_abs(nxt - limit)
        if iterations < check_until and delta > tol:
            if not is_positive_semidefinite(nxt - limit, 1e-8):
                raise ConsistencyError(
                    "fixed-point iteration lost Loewner monotonicity; "
                    "the input data is inconsistent"
                )
        limit = nxt
        iterations += 1
        if delta < tol:
            converged = True
            break

    q_mat = e.apply_dual_mat(limit)
    q_mat = (q_mat + dagger(q_mat)) / 2
    completion = _completion_mat(meas, p.mat, q_mat)
    qv2_residual = max_abs(e.apply_dual_mat(completion) - q_mat)

    qv1_value = None
    qv3_tail: tuple[float, ...] = ()
    if isinstance(prog_or_scheme, QuantumProgram):
        qv1_value = float(np.trace(completion @ prog_or_scheme.rho0.mat).real)
        qv3_tail = _qv3_tail_values(prog_or_scheme, q_mat)

    return InvariantCertificate(
        q=Observable(q_mat),
        completion=Observable(completion),
        qv2_residual=qv2_residual,
        qv3_tail=qv3_tail,
        qv1_value=qv1_value,
        iterations=iterations,
        converged=converged,
    )


def certificate_for(
    prog_or_scheme: ProgramScheme, p: Observable, q: Observable
) -> InvariantCertificate:
    """Certificate for a user-supplied invariant candidate ``q`` (used to
    probe QV2/QV3 for candidates other than the least fixed point)."""
    completion = _completion_mat(prog_or_scheme.meas, p.mat, q.mat)
    qv2_residual = max_abs(prog_or_scheme.e.apply_dual_mat(completion) - q.mat)
    qv1_value = None
    qv3_tail: tuple[float, ...] = ()
    if isinstance(prog_or_scheme, QuantumProgram):
        qv1_value = float(np.trace(completion @ prog_or_scheme.rho0.mat).real)
        qv3_tail = _qv3_tail_values(prog_or_scheme, q.mat)
    return InvariantCertificate(
        q=q,
        completion=Observable(completion),
        qv2_residual=qv2_residual,
        qv3_tail=qv3_tail,
        qv1_value=qv1_value,
        iterations=0,
        converged=True,
    )


@dataclass(frozen=True)
class ConditionCheck:
    """Boolean verdicts plus the residuals they were decided on."""

    qv1: bool
    qv1_value: float
    qv2: bool
    qv2_residual: float
    qv3: bool
    qv3_limit: float
    almost_terminating: bool


def check_conditions(
    prog: QuantumProgram,
    p: Observable,
    cert: InvariantCertificate,
    tol: float = 1e-8,
    rep: ProgramRepresentation | None = None,
) -> ConditionCheck:
    """Evaluate QV1/QV2/QV3 for a certificate.

    QV1 is always finite in finite dimension; the value is reported for
    completeness.  QV3 is decided on the sampled tail and cross-checked
    against the spectral almost-termination criterion: almost termination
    implies Q-termination for every Q, so a terminating program can never
    fail QV3.
    """
    if rep is None:
        rep = build_representation(prog)
    x = prog.rho0.mat.reshape(-1)
    overlap = float(np.linalg.norm(rep.unit_projector @ x))
    almost = overlap <= 1e-9 * float(np.linalg.norm(x))

    qv1_value = cert.qv1_value
    if qv1_value is None:
        qv1_value = float(np.trace(cert.completion.mat @ prog.rho0.mat).real)

    tail = cert.qv3_tail or _qv3_tail_values(prog, cert.q.mat)
    qv3_limit = max(abs(t) for t in tail[-2:]) if tail else 0.0
    qv3 = qv3_limit <= tol or almost

    return ConditionCheck(
        qv1=bool(np.isfinite(qv1_value)),
        qv1_value=qv1_value,
        qv2=cert.qv2_residual <= tol,
        qv2_residual=cert.qv2_residual,
        qv3=qv3,
        qv3_limit=qv3_limit,
        almost_terminating=almost,
    )


def expectation_via_invariant(
    prog: QuantumProgram, p: Observable, cert: InvariantCertificate
) -> float:
    """The initial-state expectation ``tr(completion rho0)``.

    Sound as the terminal expectation whenever QV2 and QV3 hold for the
    certificate; with the least fixed point and a finite QV1 value the
    result is exact even for programs that do not almost terminate.
    """
    return float(np.trace(cert.completion.mat @ prog.rho0.mat).real)


def completion_expansion_residual(
    prog: QuantumProgram, p: Observable, cert: InvariantCertificate, n: int
) -> float:
    """Absolute gap between ``tr(completion rho0)`` and
    ``sum_{k<=n} tr(P E0(G^k(rho0))) + tr(Q E1(G^n(rho0)))``; zero in
    exact arithmetic whenever QV2 holds."""
    if n < 0:
        raise ValueError("n must be >= 0")
    e0, e1, g = prog.meas.e0, prog.meas.e1, prog.g
    sigma = prog.rho0.mat
    acc = 0.0
    for k in range(n + 1):
        acc += float(np.trace(p.mat @ e0.apply_mat(sigma)).real)
        if k < n:
            sigma = g.apply_mat(sigma)
    acc += float(np.trace(cert.q.mat @ e1.apply_mat(sigma)).real)
    lhs = float(np.trace(cert.completion.mat @ prog.rho0.mat).real)
    return abs(lhs - acc)


def general_expectation(
    prog: QuantumProgram,
    o: Observable,
    tol: float = DEFAULT_FIXED_POINT_TOL,
    n_max: int = DEFAULT_FIXED_POINT_N_MAX,
) -> float:
    """Terminal expectation of an arbitrary Hermitian observable, split
    spectrally into positive parts with orthogonal supports."""
    pos, neg = psd_split(o.mat)
    total = 0.0
    for sign, part in ((1.0, pos), (-1.0, neg)):
        if max_abs(part) == 0.0:
            continue
        cert = least_fixed_point_q(prog, Observable(part), tol=tol, n_max=n_max)
        total += sign * expectation_via_invariant(prog, Observable(part), cert)
    return total
