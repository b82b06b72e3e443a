"""Quantum Markov chain programs and their step-by-step semantics.

A program scheme is a trace-preserving super-operator ``E`` plus a
two-outcome termination measurement ``{M0, M1}``; feeding it an initial
state ``rho0`` gives a program.  One execution step measures, stops on
outcome 0, and otherwise applies ``E``, so the surviving (unnormalized)
state evolves under ``G = E . E1`` with ``E_i(rho) = M_i rho M_i^dag``.

The truncated series ``sum_n E0(G^n(rho0))`` computed here is the oracle
against which the invariant and closed-form methods are checked.  One
private loop, :func:`_series_pass`, steps ``sigma <- G(sigma)`` once per
step and serves the terminal sum, the step table and the running time
alike.  It keeps only scalars per step (``tr E0(sigma_n)`` and the
surviving mass) and validates the terminal sum once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import DensityOperator, SuperOperator, compose
from .errors import DimensionMismatchError, ValidationError
from .linalg import TOL_TP, dagger, max_abs, require_square

DEFAULT_TAIL_TOL = 1e-12
DEFAULT_N_MAX = 1_000_000


@dataclass(frozen=True, eq=False)
class TerminationMeasurement:
    """Yes-no measurement {M0, M1} with M0^dag M0 + M1^dag M1 = I.

    Outcome 0 halts the program; outcome 1 lets it continue.
    """

    m0: np.ndarray
    m1: np.ndarray

    def __init__(self, m0, m1):
        a = require_square(m0, "m0")
        b = require_square(m1, "m1")
        if a.shape != b.shape:
            raise DimensionMismatchError(
                f"m0 and m1 have different shapes {a.shape} and {b.shape}"
            )
        defect = max_abs(dagger(a) @ a + dagger(b) @ b - np.eye(a.shape[0]))
        if defect > TOL_TP:
            raise ValidationError(
                "termination measurement is not complete: "
                f"||M0^dag M0 + M1^dag M1 - I||_max = {defect:.3e}"
            )
        object.__setattr__(self, "m0", np.array(a))
        object.__setattr__(self, "m1", np.array(b))
        self.m0.setflags(write=False)
        self.m1.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.m0.shape[0]

    @cached_property
    def e0(self) -> SuperOperator:
        return SuperOperator([self.m0])

    @cached_property
    def e1(self) -> SuperOperator:
        return SuperOperator([self.m1])


@dataclass(frozen=True, eq=False)
class ProgramScheme:
    """A super-operator together with a termination measurement; becomes a
    program once an initial state is supplied."""

    e: SuperOperator
    meas: TerminationMeasurement

    def __post_init__(self):
        if not self.e.trace_preserving:
            raise ValidationError("the step super-operator must be trace-preserving")
        if self.e.dim != self.meas.dim:
            raise DimensionMismatchError(
                f"channel dimension {self.e.dim} != measurement dimension {self.meas.dim}"
            )
        # Trace preservation of G + E0 follows from the two contracts above;
        # verify it anyway since everything downstream leans on it.
        ksum = dagger(self.meas.m0) @ self.meas.m0
        for k in self.g.kraus:
            ksum = ksum + dagger(k) @ k
        defect = max_abs(ksum - np.eye(self.dim))
        if defect > 10 * TOL_TP:
            raise ValidationError(
                f"G + E0 is not trace-preserving (defect {defect:.3e}); "
                "check the channel and measurement data"
            )

    @property
    def dim(self) -> int:
        return self.e.dim

    @cached_property
    def g(self) -> SuperOperator:
        """The survival step G = E . E1."""
        return compose(self.e, self.meas.e1)

    def with_initial_state(self, rho0: DensityOperator) -> "QuantumProgram":
        return QuantumProgram(self.e, self.meas, rho0)


@dataclass(frozen=True, eq=False)
class QuantumProgram(ProgramScheme):
    """A program scheme plus a unit-trace initial state."""

    rho0: DensityOperator

    def __post_init__(self):
        ProgramScheme.__post_init__(self)
        if self.rho0.dim != self.dim:
            raise DimensionMismatchError(
                f"initial state dimension {self.rho0.dim} != program dimension {self.dim}"
            )
        if abs(self.rho0.trace - 1.0) > 1e-9:
            raise ValidationError(
                f"initial state must have unit trace, got {self.rho0.trace:.12g}"
            )

    @property
    def scheme(self) -> ProgramScheme:
        return ProgramScheme(self.e, self.meas)


@dataclass(frozen=True)
class StepRecord:
    n: int
    p: float
    p_nontermination: float


@dataclass(frozen=True)
class StepTrace:
    """Per-step termination/survival probabilities.

    ``steps[k]`` describes step ``n = k + 1``:
    ``p = tr(E0(G^(n-1)(rho0)))`` and ``p_nontermination = tr(G^n(rho0))``,
    the mass that survives n steps (equal to ``tr(E1(G^(n-1)(rho0)))``
    because ``E`` is trace-preserving).  ``residual_mass`` is
    ``tr(E1(G^(N-1)(rho0)))`` for the last step ``N``.
    For every prefix, ``sum(p_1..p_n) + p_nontermination_n = 1``.
    """

    steps: tuple[StepRecord, ...]
    residual_mass: float


@dataclass(frozen=True, eq=False)
class SeriesResult:
    rho_star: DensityOperator
    residual: float
    n_used: int


def _real_trace(mat: np.ndarray) -> float:
    return float(mat.trace().real)


@dataclass(frozen=True, eq=False)
class _SeriesPass:
    """Outcome of one pass of :func:`_series_pass`; only ``acc`` and
    ``last`` are matrices, everything kept per step is a scalar."""

    acc: np.ndarray  # sum_{n <= n_used} E0(sigma_n), unvalidated
    last: np.ndarray  # sigma_{n_used}
    p: list[float]  # tr E0(sigma_n) for n = 0..n_used
    mass: list[float]  # tr sigma_{n+1} for n = 0..n_used
    n_used: int

    def series(self) -> SeriesResult:
        return SeriesResult(
            rho_star=DensityOperator(self.acc), residual=self.mass[-1], n_used=self.n_used
        )

    def step_trace(self, e1: SuperOperator) -> StepTrace:
        steps = tuple(
            StepRecord(n=n, p=p, p_nontermination=m)
            for n, (p, m) in enumerate(zip(self.p, self.mass), start=1)
        )
        return StepTrace(steps=steps, residual_mass=_real_trace(e1.apply_mat(self.last)))


def _series_pass(
    scheme: ProgramScheme, rho_mat: np.ndarray, tail_tol: float, n_max: int
) -> _SeriesPass:
    """The one stepping loop behind every series quantity.

    Steps ``sigma_{n+1} = G(sigma_n)`` from ``sigma_0 = rho``, adding
    ``E0(sigma_n)`` to the terminal sum and recording the scalars
    ``tr E0(sigma_n)`` and ``tr sigma_{n+1}``, until the surviving mass
    drops below ``tail_tol`` or ``n`` reaches ``n_max``.  The mass is
    monotone nonincreasing, which makes it the natural stopping
    functional.  Nothing is validated per step."""
    e0, g = scheme.meas.e0, scheme.g
    sigma = rho_mat
    acc = e0.apply_mat(sigma)
    ps = [_real_trace(acc)]
    masses = []
    n = 0
    while True:
        nxt = g.apply_mat(sigma)
        mass = _real_trace(nxt)
        masses.append(mass)
        if mass < tail_tol or n >= n_max:
            return _SeriesPass(acc=acc, last=sigma, p=ps, mass=masses, n_used=n)
        n += 1
        sigma = nxt
        term = e0.apply_mat(sigma)
        ps.append(_real_trace(term))
        acc += term


def _check_tail_tol(tail_tol: float) -> None:
    if tail_tol <= 0:
        raise ValidationError(f"tail_tol must be positive, got {tail_tol}")


def step_probabilities(prog: QuantumProgram, n_max: int) -> StepTrace:
    """Tabulate p_n and the nontermination probability for n = 1..n_max."""
    if n_max < 1:
        raise ValidationError(f"n_max must be >= 1, got {n_max}")
    run = _series_pass(prog, prog.rho0.mat, -math.inf, n_max - 1)
    return run.step_trace(prog.meas.e1)


def terminal_state_series(
    prog: QuantumProgram,
    tail_tol: float = DEFAULT_TAIL_TOL,
    n_max: int = DEFAULT_N_MAX,
) -> SeriesResult:
    """Truncated terminal state sum_{n=0}^{n_used} E0(G^n(rho0)).

    A residual above ``tail_tol`` is not an error: the series still
    converges, but the program may not terminate almost surely and any
    expectation taken in ``rho_star`` is a lower estimate.
    """
    _check_tail_tol(tail_tol)
    return _series_pass(prog, prog.rho0.mat, tail_tol, n_max).series()


def terminal_series_with_steps(
    prog: QuantumProgram,
    tail_tol: float = DEFAULT_TAIL_TOL,
    n_max: int = DEFAULT_N_MAX,
) -> tuple[SeriesResult, StepTrace]:
    """:func:`terminal_state_series` together with the step table of the
    same pass: ``n_used + 1`` records, one per term of the sum."""
    _check_tail_tol(tail_tol)
    run = _series_pass(prog, prog.rho0.mat, tail_tol, n_max)
    return run.series(), run.step_trace(prog.meas.e1)


def check_recursion(
    prog: QuantumProgram,
    rho: DensityOperator,
    tail_tol: float = DEFAULT_TAIL_TOL,
    n_max: int = DEFAULT_N_MAX,
) -> float:
    """Self-consistency residual ||F(rho) - E0(rho) - F(G(rho))||_max,
    with F evaluated by series summation on both sides."""
    lhs = _series_pass(prog, rho.mat, tail_tol, n_max).acc
    g_rho = prog.g.apply_mat(rho.mat)
    tail = _series_pass(prog, g_rho, tail_tol, n_max).acc
    rhs = prog.meas.e0.apply_mat(rho.mat) + tail
    return max_abs(lhs - rhs)
