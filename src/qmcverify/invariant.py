"""Invariant-based verification of terminal expectations.

For a positive observable ``P`` the method looks for a positive ``Q``
whose completion ``M0^dag P M0 + M1^dag Q M1`` is invariant under the
dual channel (condition QV2); together with finiteness (QV1) and
Q-termination (QV3) this pins the terminal expectation down to
``tr(completion rho0)``.

The least such ``Q`` always exists and is constructed here by the
monotone iteration ``L_0 = 0``,
``L_{n+1} = M0^dag P M0 + M1^dag E*(L_n) M1 = b + G*(L_n)``
(stepped through the dual of the scheme's survival step ``G = E . E1``,
whose Kraus operators are ``E_i M1``), whose limit ``L`` is the
completion itself; the invariant is ``Qbar = E*(L)``.  With ``A`` the
d^2 x d^2 matrix of ``G*`` on row-major vectors, ``L_n = sum_{j<n} A^j b``,
and the iteration runs in two stages:

* **Linear stage**: at most ``_LINEAR_STEPS`` steps ``L <- b + G*(L)``.
  With ``delta`` the last increment ``||L_{n+1} - L_n||_max`` and ``r``
  the largest ratio of consecutive increments over the last
  ``_RATIO_WINDOW`` steps (none before the window is full), it stops
  once the a-posteriori bound ``delta r / (1 - r)`` on
  ``||L - L_n||_max`` is below ``tol`` (``delta == 0`` stops at once,
  with bound 0).  Programs that contract at a fixed rate stop here after
  a few dozen steps.  The bound rests on the observed ratios: a slow
  mode that the increments have not shown yet can escape it.
* **Doubling stage**, entered only when the linear stage has not
  certified: ``L_{2k} = L_k + A^k L_k`` and ``A^{2k} = A^k A^k``, starting
  from ``k = _LINEAR_STEPS`` with ``A^k`` built by squaring ``A``.  Since
  ``L - L_k = sum_{m>=1} A^{mk} L_k``, it stops once
  ``||A^k||_inf ||L_k||_max / (1 - ||A^k||_inf) < tol``, a bound that
  holds in exact arithmetic.  So a program with contraction margin
  ``1 - r`` needs about ``log2(1 / (1 - r))`` squarings instead of
  ``1 / (1 - r)`` linear steps.  ``A`` is built here from ``G``'s Kraus
  operators.  The route imports nothing from the spectral or termination
  layers: a caller that wants QV3 cross-checked against almost
  termination passes that verdict in.

The first ``_LOEWNER_CHECKED_STEPS`` linear increments and every
doubled one are checked to be positive semidefinite (Loewner
monotonicity), and ``n_max`` caps linear steps plus squarings.  Neither stage can land on a non-least fixed point: both only
visit iterates ``L_n`` of the same monotone sequence from zero, whose
limit is the least fixed point.  There is no linear-solve shortcut: the
equivalent linear system can silently pick a non-least fixed point
whenever the step representation has unit-modulus spectrum.  On such a
spectrum ``||A^k||_inf`` stays at or above one, so no bound can be
certified; the doubling stage then stops once an increment falls below
``tol`` and says so.

The QV3 tail samples ``tr(Q E1(G^n(rho0)))`` at ``n = 2^j, 2^j + 1``.
When the doubling stage ran, the samples at ``n = 2^j`` are read from
the same powers, one vector ``vec(G^{2^j}(rho0)) = (A^{2^j})^dag
vec(rho0)`` per power, and the tail goes on squaring until the mass is
gone or the samples are stable; otherwise it steps ``G`` one step at a
time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Observable, matrix_representation
from .errors import ConsistencyError, ValidationError
from .linalg import dagger, is_positive_semidefinite, max_abs, psd_split
from .program import ProgramScheme, QuantumProgram

DEFAULT_FIXED_POINT_TOL = 1e-12
DEFAULT_FIXED_POINT_N_MAX = 1_000_000

# The linear stage's step budget, a power of two so that the doubling
# stage can build A^_LINEAR_STEPS by squaring.  One squaring of the
# 324 x 324 matrix at d = 18 costs about as much as 45 linear steps, while
# random d = 18 programs certify in 16-24 linear steps.
_LINEAR_EXP = 8
_LINEAR_STEPS = 2**_LINEAR_EXP
# The linear bound takes the largest of this many consecutive-increment
# ratios, and waits until it has them all: the first ratio compares
# ``||G*(b)||`` with ``||b||`` and can be far below the contraction rate.
_RATIO_WINDOW = 4
# The first linear steps are checked for Loewner monotonicity.
_LOEWNER_CHECKED_STEPS = 32
_LOEWNER_TOL = 1e-8
# QV2 holds when the invariance residual is at most this, and QV3 when
# the last tail samples are.
CONDITION_TOL = 1e-8

STOP_REASONS = ("bound", "tol", "n_max")

# Tail sampling for QV3: geometric step counts, stopping early once both
# the surviving mass and the tail value have stabilized (they are monotone
# resp. eventually constant up to unit-circle rotation, which the paired
# odd/even samples cover).  The stepped tail stops at 2^_TAIL_MAX_EXP
# steps; the tail read from powers, whose squarings cost no more per
# doubling of n, at 2^_TAIL_MAX_POWER_EXP.
_TAIL_STABLE_TOL = 1e-12
_TAIL_MASS_TOL = 1e-15
_TAIL_MAX_EXP = 17
_TAIL_MAX_POWER_EXP = 32


@dataclass(frozen=True, eq=False)
class InvariantCertificate:
    """Outcome of the fixed-point construction for one observable.

    ``q`` is the invariant candidate, ``completion`` the observable whose
    initial-state expectation reproduces the terminal one.  ``qv3_tail``
    holds ``tr(q . E1(G^n(rho0)))`` at geometrically spaced ``n`` (empty
    for schemes, which have no initial state).  ``error_bound`` bounds
    ``||L - L_n||_max`` for the iterate ``L_n`` that ``completion`` was
    built from (``inf`` when none could be certified); ``stop_reason`` is
    ``bound`` (certified below ``tol``), ``tol`` (the increment fell below
    ``tol`` but no bound could be certified), ``n_max`` (the cap was hit)
    or ``given`` (a candidate from :func:`certificate_for`).
    """

    q: Observable
    completion: Observable
    qv2_residual: float
    qv3_tail: tuple[float, ...]
    qv1_value: float | None
    iterations: int
    converged: bool
    error_bound: float
    stop_reason: str


def _completion_mat(meas, p_mat: np.ndarray, q_mat: np.ndarray) -> np.ndarray:
    m0, m1 = meas.m0, meas.m1
    return dagger(m0) @ p_mat @ m0 + dagger(m1) @ q_mat @ m1


def _initial_value(completion: Observable, prog: QuantumProgram) -> float:
    """``tr(completion rho0)``: the QV1 value and the invariant method's
    expectation, computed by this one function."""
    return float(np.trace(completion.mat @ prog.rho0.mat).real)


def _check_increment(increment: np.ndarray) -> None:
    if not is_positive_semidefinite(increment, _LOEWNER_TOL):
        raise ConsistencyError(
            "fixed-point iteration lost Loewner monotonicity; "
            "the input data is inconsistent"
        )


class _Powers:
    """The doubling stage's current power ``A^(2^j)`` of the dual step
    matrix, and the forward states ``vec(G^(2^i)(rho0))``, ``i <= j``,
    read off each power as it was formed (none for a scheme)."""

    def __init__(self, g, rho0: np.ndarray | None):
        # vec(G*(Y)) = M^dag vec(Y) for the matrix M of G.
        self.power = matrix_representation(g).conj().T
        self._x0 = None if rho0 is None else rho0.reshape(-1).conj()
        self.states: list[np.ndarray] = []
        self._read_state()

    def _read_state(self) -> None:
        # (A^n)^dag x0 = M^n x0, one vector-matrix product.
        if self._x0 is not None:
            self.states.append((self._x0 @ self.power).conj())

    def square(self) -> None:
        self.power = self.power @ self.power
        self._read_state()


def _linear_stage(g, base: np.ndarray, tol: float, steps: int):
    """At most ``steps`` linear steps from zero.  Returns the iterate, the
    steps taken, the stop reason (``None`` if not certified) and the
    a-posteriori bound."""
    limit = np.zeros_like(base)
    ratios: list[float] = []
    delta = bound = math.inf
    for n in range(1, steps + 1):
        nxt = base + g.apply_dual_mat(limit)
        prev, delta = delta, max_abs(nxt - limit)
        if n <= _LOEWNER_CHECKED_STEPS and delta > tol:
            _check_increment(nxt - limit)
        limit = nxt
        if delta == 0.0:
            return limit, n, "bound", 0.0
        if n > 1:
            ratios = (ratios + [delta / prev])[-_RATIO_WINDOW:]
        if len(ratios) == _RATIO_WINDOW:
            r = max(ratios)
            bound = delta * r / (1.0 - r) if r < 1.0 else math.inf
            if bound < tol:
                return limit, n, "bound", bound
    return limit, steps, None, bound


def _doubling_stage(powers: _Powers, limit: np.ndarray, tol: float, budget: int):
    """Double ``L_k`` from ``k = _LINEAR_STEPS`` on, squaring at most
    ``budget`` times.  Returns the iterate, the squarings made, the stop
    reason and the bound."""
    d = limit.shape[0]
    for squarings in range(_LINEAR_EXP):
        if squarings >= budget:
            return limit, squarings, "n_max", math.inf
        powers.square()
    s = limit.reshape(-1)
    squarings, small = _LINEAR_EXP, False
    while True:
        norm = float(np.abs(powers.power).sum(axis=1).max())
        bound = norm * max_abs(s) / (1.0 - norm) if norm < 1.0 else math.inf
        for reason, stop in (("bound", bound < tol), ("tol", small), ("n_max", squarings >= budget)):
            if stop:
                return s.reshape(d, d), squarings, reason, bound
        increment = powers.power @ s
        _check_increment(increment.reshape(d, d))
        s = s + increment
        small = max_abs(increment) < tol
        powers.square()
        squarings += 1


def _tail_states(prog: QuantumProgram, powers: _Powers | None):
    """``(n, G^n(rho0))`` at ``n = 0, 1`` and ``n = 2^j, 2^j + 1``, in
    increasing order: stepped one ``G`` at a time, or read from the
    powers (squaring further when the tail needs more)."""
    g, sigma = prog.g, prog.rho0.mat
    yield 0, sigma
    if powers is None:
        targets = sorted({2**j + i for j in range(_TAIL_MAX_EXP + 1) for i in (0, 1)})
        n = 0
        for target in targets:
            while n < target:
                sigma = g.apply_mat(sigma)
                n += 1
            yield n, sigma
        return
    d = prog.dim
    for j in range(_TAIL_MAX_POWER_EXP + 1):
        if j == len(powers.states):
            powers.square()
        sigma = powers.states[j].reshape(d, d)
        if j != 1:  # n = 2 is also 2^0 + 1
            yield 2**j, sigma
        yield 2**j + 1, g.apply_mat(sigma)


def _qv3_tail_values(
    prog: QuantumProgram, q_mat: np.ndarray, powers: _Powers | None = None
) -> tuple[float, ...]:
    """QV3 tail samples ``tr(q E1(G^n(rho0)))``.

    The stepped tail (``powers`` is None) may stop on any sample; the tail
    read from powers stops only after both samples of a power
    (``n = 2^j, 2^j + 1``), so that its last two samples come from the
    same, latest power.
    """
    e1 = prog.meas.e1
    samples: list[float] = []
    masses: list[float] = []
    # Nilpotent transients of the step matrix last at most dim^2 steps;
    # only trust a plateau once the samples are past them.
    transient = max(16, 2 * prog.dim**2)
    for n, sigma in _tail_states(prog, powers):
        samples.append(float(np.trace(q_mat @ e1.apply_mat(sigma)).real))
        masses.append(float(np.trace(sigma).real))
        if powers is not None and n % 2 == 0:
            continue  # n = 2^j waits for its partner 2^j + 1
        if masses[-1] < _TAIL_MASS_TOL:
            break
        if len(samples) >= 6 and n > transient:
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
        The iteration stops once its error bound is below ``tol`` (see the
        module docstring for the two stages and their bounds).
    n_max : int
        Cap on linear steps plus squarings; a certificate with
        ``converged=False`` and ``stop_reason="n_max"`` is returned when
        it is hit (the partial result is still a valid lower bound).

    Raises
    ------
    ConsistencyError
        If an increment of the iteration is not positive semidefinite.
    """
    if p.dim != prog_or_scheme.dim:
        raise ValidationError(
            f"observable dimension {p.dim} != program dimension {prog_or_scheme.dim}"
        )
    if not is_positive_semidefinite(p.mat):
        raise ValidationError(
            "the fixed-point construction needs a positive observable; "
            "split a general Hermitian one with certified_expectation"
        )
    g = prog_or_scheme.g
    base = _completion_mat(prog_or_scheme.meas, p.mat, np.zeros_like(p.mat))

    limit, iterations, reason, bound = _linear_stage(
        g, base, tol, min(n_max, _LINEAR_STEPS)
    )
    powers = None
    if reason is None and iterations < n_max:
        is_program = isinstance(prog_or_scheme, QuantumProgram)
        powers = _Powers(g, prog_or_scheme.rho0.mat if is_program else None)
        limit, squarings, reason, bound = _doubling_stage(
            powers, limit, tol, n_max - iterations
        )
        iterations += squarings
    reason = reason or "n_max"

    q_mat = prog_or_scheme.e.apply_dual_mat(limit)
    # Exactly Hermitian once symmetrized, so Observable keeps its bits.
    q = Observable((q_mat + dagger(q_mat)) / 2)
    return _certificate(prog_or_scheme, p, q, iterations, bound, reason, powers)


def certificate_for(
    prog_or_scheme: ProgramScheme, p: Observable, q: Observable
) -> InvariantCertificate:
    """Certificate for a user-supplied invariant candidate ``q`` (used to
    probe QV2/QV3 for candidates other than the least fixed point)."""
    return _certificate(prog_or_scheme, p, q, 0, 0.0, "given")


def _certificate(
    prog_or_scheme: ProgramScheme,
    p: Observable,
    q: Observable,
    iterations: int,
    error_bound: float,
    stop_reason: str,
    powers: _Powers | None = None,
) -> InvariantCertificate:
    """The certificate of ``q``: its completion, the QV2 residual and, for
    a program, the QV1 value and the QV3 tail (read from ``powers`` when
    the doubling stage formed them)."""
    completion = Observable(_completion_mat(prog_or_scheme.meas, p.mat, q.mat))
    qv2_residual = max_abs(prog_or_scheme.e.apply_dual_mat(completion.mat) - q.mat)
    qv1_value = None
    qv3_tail: tuple[float, ...] = ()
    if isinstance(prog_or_scheme, QuantumProgram):
        qv1_value = _initial_value(completion, prog_or_scheme)
        qv3_tail = _qv3_tail_values(prog_or_scheme, q.mat, powers)
    return InvariantCertificate(
        q=q,
        completion=completion,
        qv2_residual=qv2_residual,
        qv3_tail=qv3_tail,
        qv1_value=qv1_value,
        iterations=iterations,
        converged=stop_reason != "n_max",
        error_bound=error_bound,
        stop_reason=stop_reason,
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
    prog: QuantumProgram, cert: InvariantCertificate, almost_terminates: bool
) -> ConditionCheck:
    """Evaluate QV1/QV2/QV3 for a certificate.

    QV1 is always finite in finite dimension; the value is reported for
    completeness.  QV3 is decided on the sampled tail and cross-checked
    against ``almost_terminates``, the program's almost-termination
    verdict (``TerminationVerdict.almost_terminates``): almost termination
    implies Q-termination for every Q, so a terminating program can never
    fail QV3.  QV2 and the tail are decided at :data:`CONDITION_TOL`.  A
    certificate built on a scheme carries neither the QV1 value nor the
    tail; both are computed here for ``prog``'s initial state.
    """
    qv1_value = cert.qv1_value
    if qv1_value is None:
        qv1_value = _initial_value(cert.completion, prog)

    tail = cert.qv3_tail or _qv3_tail_values(prog, cert.q.mat)
    qv3_limit = max(abs(t) for t in tail[-2:]) if tail else 0.0
    qv3 = qv3_limit <= CONDITION_TOL or almost_terminates

    return ConditionCheck(
        qv1=bool(np.isfinite(qv1_value)),
        qv1_value=qv1_value,
        qv2=cert.qv2_residual <= CONDITION_TOL,
        qv2_residual=cert.qv2_residual,
        qv3=qv3,
        qv3_limit=qv3_limit,
        almost_terminating=almost_terminates,
    )


# How the diagnostics of the positive parts of a general observable combine.
_COMBINE_PARTS = {
    "iterations": sum,
    "converged": all,
    "error_bound": sum,
    "stop_reason": lambda reasons: max(reasons, key=STOP_REASONS.index),
    "qv1": all,
    "qv1_value": sum,
    "qv2": all,
    "qv2_residual": max,
    "qv3": all,
    "qv3_limit": max,
}


def certified_expectation(
    prog: QuantumProgram,
    o: Observable,
    almost_terminates: bool,
    n_max: int = DEFAULT_FIXED_POINT_N_MAX,
) -> tuple[float, dict]:
    """Terminal expectation of a Hermitian observable by the least
    invariant, with its diagnostics.

    A positive observable gets one certificate.  Any other is split into
    positive parts ``o = pos - neg`` with orthogonal supports; each part
    gets its own certificate, the value is the difference, and the parts'
    diagnostics combine as in :data:`_COMBINE_PARTS` (``qv1_value`` is the
    difference too, the error bounds add up, and the stop reason is the
    worse one).  The value and ``qv1_value`` are one number,
    ``tr(completion rho0)``, computed once per part.
    ``almost_terminates`` is the program's almost-termination verdict,
    which :func:`check_conditions` reads for QV3; the value does not
    depend on it.
    """
    if is_positive_semidefinite(o.mat):
        parts = [(1.0, o)]
    else:
        parts = [
            (sign, Observable(part))
            for sign, part in zip((1.0, -1.0), psd_split(o.mat))
            if max_abs(part) > 0.0
        ]
    values, diags = [], []
    for sign, part in parts:
        cert = least_fixed_point_q(prog, part, n_max=n_max)
        cond = check_conditions(prog, cert, almost_terminates)
        values.append(sign * cond.qv1_value)
        diags.append(
            {
                "iterations": cert.iterations,
                "converged": cert.converged,
                "error_bound": cert.error_bound,
                "stop_reason": cert.stop_reason,
                "qv1": cond.qv1,
                "qv1_value": values[-1],
                "qv2": cond.qv2,
                "qv2_residual": cond.qv2_residual,
                "qv3": cond.qv3,
                "qv3_limit": cond.qv3_limit,
            }
        )
    if len(parts) == 1:
        return values[0], diags[0]
    combined = {key: how(d[key] for d in diags) for key, how in _COMBINE_PARTS.items()}
    return sum(values), combined

