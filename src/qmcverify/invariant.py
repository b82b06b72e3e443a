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

* **Linear stage**: at most ``B = _linear_budget(d)`` steps
  ``L <- b + G*(L)``: 256, or 1 up to d = 8, where a squaring of ``A``
  costs no more than a linear step's fixed cost and doubling from the
  start is cheaper.
  With ``delta`` the last increment ``||L_{n+1} - L_n||_max`` and ``r``
  the largest ratio of consecutive increments over the last
  ``_RATIO_WINDOW`` steps (none before the window is full), it stops
  once the a-posteriori bound ``delta r / (1 - r)`` on
  ``||L - L_n||_max`` is below ``tol`` (``delta == 0`` stops at once,
  with bound 0).  Programs that contract at a fixed rate stop here after
  a few dozen steps when ``B = 256``.  The bound rests on the observed
  ratios: a slow mode that the increments have not shown yet can escape
  it.  With ``B = 1`` it never runs.
* **Doubling stage**, entered only when the linear stage has not
  certified: ``L_{2k} = L_k + A^k L_k`` and ``A^{2k} = A^k A^k``, starting
  from ``k = B`` with ``A^B`` built by ``log2 B`` squarings of ``A``.  Since
  ``L - L_k = sum_{m>=1} A^{mk} L_k``, it stops once
  ``||A^k||_inf ||L_k||_max / (1 - ||A^k||_inf) < tol``, a bound that
  holds in exact arithmetic, or with bound 0 once an increment
  ``A^k L_k`` is exactly zero (then every later one is too).  So a
  program with contraction margin ``1 - r`` needs about
  ``log2(1 / (1 - r))`` squarings instead of ``1 / (1 - r)`` linear
  steps.  ``A`` is built here from ``G``'s Kraus
  operators.  The route imports nothing from the spectral or termination
  layers and takes nothing from them.

Every increment ``L_{n+1} - L_n`` of the iteration is positive
semidefinite (Loewner monotonicity).  The first
``_LOEWNER_CHECKED_STEPS`` linear increments are checked each as it is
made, and every doubled one too: the doubling stage keeps up to
``_LOEWNER_BATCH`` = 32 increments and decides them by one stacked
eigensolve (:func:`~qmcverify.linalg.psd_flags`) when the batch is full
and before each return.  So a fault surfaces at most 31 squarings late,
memory stays at 32 d x d matrices, and the first failing increment in
order names the fault: a NaN or Inf entry is a numerical fault, a
negative eigenvalue a loss of monotonicity, both a
:class:`~qmcverify.errors.ConsistencyError`.  ``n_max`` caps linear
steps plus squarings.  Neither stage can land on a non-least fixed
point: both only visit iterates ``L_n`` of the same monotone sequence
from zero, whose limit is the least fixed point.  There is no
linear-solve shortcut: the equivalent linear system can silently pick a
non-least fixed point whenever the step representation has unit-modulus
spectrum.  On such a spectrum ``||A^k||_inf`` stays at one (rounding
can put it just below), so no bound can be certified; the doubling
stage then stops once an
increment ``A^k L_k`` with ``k >= 256`` falls below ``tol`` and says so,
with bound ``inf`` whatever the bound formula gives.  It waits for
``k = 256`` whatever ``B`` is: on a bitflip that halts at rate
``1e-13`` per step the first increments are below ``tol`` long before
``L_k`` nears the value 1.

QV3 holds by construction for every iterate the route returns, so no
tail is sampled for it.  With ``Qbar = E*(L)``,
``tr(Qbar E1(G^n(rho0))) = tr(L G^{n+1}(rho0)) = sum_{k>n} tr(b G^k(rho0))``:
the remainder of the terminal-expectation series
``sum_k tr(b G^k(rho0)) = tr(P rho_star)``, whose terms are non-negative
for ``P >= 0``.  That series converges for every program, terminating or
not, so the remainder tends to 0; a partial iterate ``L_N`` keeps only
its first ``N`` terms and gives a smaller one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import Observable, matrix_representation
from .errors import ConsistencyError, ValidationError
from .linalg import (
    dagger,
    is_positive_semidefinite,
    max_abs,
    psd_flags,
    psd_split,
    require_number,
)
from .program import ProgramScheme, QuantumProgram

DEFAULT_FIXED_POINT_TOL = 1e-12
DEFAULT_FIXED_POINT_N_MAX = 1_000_000

# The linear stage's step budget is 1, so that the doubling stage starts
# from ``k = 1``, or ``2**_MAX_LINEAR_EXP``, a power of two so that the
# doubling stage builds ``A^256`` in 8 squarings.  A doubling iteration
# costs one squaring of the d^2 x d^2 matrix ``A`` (d^6 multiply-adds)
# plus what a linear step also pays: a few numpy calls on d x d arrays and
# a PSD check.  That fixed cost is taken as ``_STEP_COST`` multiply-adds,
# so an iteration costs ``1 + d^6 / _STEP_COST`` linear steps; it swamps a
# step's ``2 K d^3`` at every d up to 18, so the Kraus count ``K`` is left
# out.  Measured with one BLAS thread on a 2-vCPU VM, an iteration costs
# about one checked (first 32) or 4 unchecked linear steps up to d = 6,
# 10 or 33 at d = 12 and 53 or 237 at d = 18; the model's 1.0, 12 and 131
# lie between.  Random contracting programs certify after 18-47 linear
# steps or 6-7 doubling iterations, so doubling from the start pays while
# an iteration costs at most two linear steps, ``d^6 <= _STEP_COST``: up
# to d = 8 (at d = 9, budgets 1 and 256 took 1.2 and 1.1 ms per random
# program).  A budget in between would pay for linear steps cut off
# before the ratio bound certifies, which needs at least
# ``_RATIO_WINDOW + 1`` of them, and then for the squarings as well.
# These costs were measured while each doubled increment paid its own
# PSD check; the doubling stage now checks them 32 at a time (module
# docstring), which makes an iteration cheaper, most of all at small d.
# The rule was not re-tuned for that.
_STEP_COST = 2**18
_MAX_LINEAR_EXP = 8


def _linear_budget(d: int) -> int:
    """1 while a doubling iteration costs at most two linear steps (up to
    d = 8), else ``2**_MAX_LINEAR_EXP``."""
    return 1 if d**6 <= _STEP_COST else 2**_MAX_LINEAR_EXP


# The linear bound takes the largest of this many consecutive-increment
# ratios, and waits until it has them all: the first ratio compares
# ``||G*(b)||`` with ``||b||`` and can be far below the contraction rate.
_RATIO_WINDOW = 4
# The first linear steps are checked for Loewner monotonicity, one at a
# time; the doubling stage checks its increments this many at a time.
_LOEWNER_CHECKED_STEPS = 32
_LOEWNER_BATCH = 32
_LOEWNER_TOL = 1e-8
# QV2 holds when the invariance residual is at most this.
CONDITION_TOL = 1e-8

STOP_REASONS = ("bound", "tol", "n_max")

# Tail sampling by :func:`_qv3_tail_values`: geometric step counts,
# stopping early once both the surviving mass and the tail value have
# stabilized (they are monotone resp. eventually constant up to
# unit-circle rotation, which the paired odd/even samples cover), and at
# 2^_TAIL_MAX_EXP steps at the latest.
_TAIL_STABLE_TOL = 1e-12
_TAIL_MASS_TOL = 1e-15
_TAIL_MAX_EXP = 17
_TAIL_STEPS = (0, *sorted({2**j + i for j in range(_TAIL_MAX_EXP + 1) for i in (0, 1)}))


@dataclass(frozen=True, eq=False)
class InvariantCertificate:
    """Outcome of the fixed-point construction for one observable.

    ``q`` is the invariant candidate, ``completion`` the observable whose
    initial-state expectation reproduces the terminal one.  ``qv3_tail``
    is empty: QV3 holds by construction (see the module docstring), so
    no tail ``tr(q . E1(G^n(rho0)))`` is sampled.  ``error_bound`` bounds
    ``||L - L_n||_max`` for the iterate ``L_n`` that ``completion`` was
    built from (``inf`` when none could be certified); ``stop_reason`` is
    ``bound`` (certified below ``tol``), ``tol`` (the increment fell below
    ``tol`` but no bound could be certified) or ``n_max`` (the cap was
    hit).  ``converged`` is true only on a ``bound`` stop, the one stop
    whose ``error_bound`` is finite.
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


def _check_increments(increments: np.ndarray) -> None:
    """Raise on the first of a ``(n, d, d)`` stack of increments that is
    not positive semidefinite, all of them decided by one
    :func:`~qmcverify.linalg.psd_flags` call (none for an empty stack)."""
    if not len(increments):
        return
    ok = psd_flags(increments, _LOEWNER_TOL)
    if ok.all():
        return
    if not np.isfinite(increments[np.argmin(ok)]).all():
        raise ConsistencyError(
            "fixed-point iteration produced an increment with NaN or Inf "
            "entries; a numerical fault"
        )
    raise ConsistencyError(
        "fixed-point iteration lost Loewner monotonicity; "
        "the input data is inconsistent"
    )


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
        # A NaN delta is checked too, so that the fault is named.
        if n <= _LOEWNER_CHECKED_STEPS and not delta <= tol:
            _check_increments((nxt - limit)[None])
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


def _doubling_stage(g, limit: np.ndarray, tol: float, exp: int, cap: int):
    """Double ``L_k`` from ``k = 2**exp`` on, squaring at most ``cap``
    times.  Returns the iterate, the squarings made, the stop reason and
    the bound."""
    d = limit.shape[0]
    # vec(G*(Y)) = M^dag vec(Y) for the matrix M of G.
    power = matrix_representation(g).conj().T
    for squarings in range(exp):
        if squarings >= cap:
            return limit, squarings, "n_max", math.inf
        power = power @ power
    s = limit.reshape(-1)
    squarings, small = exp, False
    # Increments not yet checked; every return checks them first.
    pending, count = np.empty((_LOEWNER_BATCH, d, d), dtype=complex), 0
    while True:
        norm = float(np.abs(power).sum(axis=1).max())
        bound = norm * max_abs(s) / (1.0 - norm) if norm < 1.0 else math.inf
        for reason, stop in (("bound", bound < tol), ("tol", small), ("n_max", squarings >= cap)):
            if stop:
                _check_increments(pending[:count])
                return s.reshape(d, d), squarings, reason, math.inf if reason == "tol" else bound
        increment = power @ s
        if not increment.any():
            # A^k L_k = 0, so every later increment A^{mk} L_k is zero too.
            _check_increments(pending[:count])
            return s.reshape(d, d), squarings, "bound", 0.0
        pending[count] = increment.reshape(d, d)
        count += 1
        if count == _LOEWNER_BATCH:
            _check_increments(pending)
            count = 0
        s = s + increment
        # The heuristic stop waits for k = 2**_MAX_LINEAR_EXP (see the
        # module docstring).
        small = squarings >= _MAX_LINEAR_EXP and max_abs(increment) < tol
        power = power @ power
        squarings += 1


def _qv3_tail_values(prog: QuantumProgram, q_mat: np.ndarray) -> tuple[float, ...]:
    """QV3 tail samples ``tr(q E1(G^n(rho0)))`` at ``n`` in
    :data:`_TAIL_STEPS`, stepping ``G`` one step at a time."""
    g, e1, sigma = prog.g, prog.meas.e1, prog.rho0.mat
    samples: list[float] = []
    masses: list[float] = []
    # Nilpotent transients of the step matrix last at most dim^2 steps;
    # only trust a plateau once the samples are past them.
    transient = max(16, 2 * prog.dim**2)
    n = 0
    for target in _TAIL_STEPS:
        while n < target:
            sigma = g.apply_mat(sigma)
            n += 1
        samples.append(float(np.trace(q_mat @ e1.apply_mat(sigma)).real))
        masses.append(float(np.trace(sigma).real))
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
        With a program, the certificate also carries the QV1 value for its
        initial state.
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
    ValidationError
        If ``tol`` is not finite and > 0, ``n_max`` not whole and >= 0, or
        ``p`` not a positive observable of the program's dimension.
    ConsistencyError
        If an increment of the iteration is not positive semidefinite.
    """
    tol = require_number(tol, "tol", 0, strict=True)
    n_max = require_number(n_max, "n_max", 0, whole=True)
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

    budget = _linear_budget(prog_or_scheme.dim)
    limit, iterations, reason, bound = _linear_stage(g, base, tol, min(n_max, budget))
    if reason is None and iterations < n_max:
        limit, squarings, reason, bound = _doubling_stage(
            g, limit, tol, budget.bit_length() - 1, n_max - iterations
        )
        iterations += squarings
    reason = reason or "n_max"

    q_mat = prog_or_scheme.e.apply_dual_mat(limit)
    # Exactly Hermitian once symmetrized, so Observable keeps its bits.
    q = Observable((q_mat + dagger(q_mat)) / 2)
    completion = Observable(_completion_mat(prog_or_scheme.meas, p.mat, q.mat))
    return InvariantCertificate(
        q=q,
        completion=completion,
        qv2_residual=max_abs(prog_or_scheme.e.apply_dual_mat(completion.mat) - q.mat),
        qv3_tail=(),
        qv1_value=(
            _initial_value(completion, prog_or_scheme)
            if isinstance(prog_or_scheme, QuantumProgram)
            else None
        ),
        iterations=iterations,
        converged=reason == "bound",
        error_bound=bound,
        stop_reason=reason,
    )


def check_conditions(prog: QuantumProgram, cert: InvariantCertificate) -> dict:
    """The invariant row's diagnostics for a certificate, keyed as
    :data:`_COMBINE_PARTS`: the iterations, ``converged``, error bound and
    stop reason of the iteration, and the QV1/QV2/QV3 verdicts with the
    values they were decided on.

    QV1 is always finite in finite dimension; its value
    ``tr(completion rho0)`` is the invariant method's expectation.  QV2 is
    decided at :data:`CONDITION_TOL`.  QV3 holds by construction for a
    certificate from :func:`least_fixed_point_q` (see the module
    docstring).  A certificate built on a scheme carries no QV1 value; it
    is computed here for ``prog``'s initial state.
    """
    qv1_value = cert.qv1_value
    if qv1_value is None:
        qv1_value = _initial_value(cert.completion, prog)
    return {
        "iterations": cert.iterations,
        "converged": cert.converged,
        "error_bound": cert.error_bound,
        "stop_reason": cert.stop_reason,
        "qv1": bool(np.isfinite(qv1_value)),
        "qv1_value": qv1_value,
        "qv2": cert.qv2_residual <= CONDITION_TOL,
        "qv2_residual": cert.qv2_residual,
        "qv3": True,
    }


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
}


def certified_expectation(
    prog: QuantumProgram,
    o: Observable,
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
    ``tr(completion rho0)``, computed once per part.  QV3 holds by
    construction for every part, so no tail is sampled.
    """
    if is_positive_semidefinite(o.mat):
        parts = [(1.0, o)]
    else:
        parts = [
            (sign, Observable(part))
            for sign, part in zip((1.0, -1.0), psd_split(o.mat))
            if max_abs(part) > 0.0
        ]
    rows = []
    for sign, part in parts:
        rows.append(check_conditions(prog, least_fixed_point_q(prog, part, n_max=n_max)))
        rows[-1]["qv1_value"] *= sign
    row = rows[0] if len(rows) == 1 else {
        key: how(r[key] for r in rows) for key, how in _COMBINE_PARTS.items()
    }
    return row["qv1_value"], row
