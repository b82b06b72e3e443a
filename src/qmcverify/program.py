"""Quantum Markov chain programs and their step-by-step semantics.

A program scheme is a trace-preserving super-operator ``E`` plus a
two-outcome termination measurement ``{M0, M1}``; feeding it an initial
state ``rho0`` gives a program.  One execution step measures, stops on
outcome 0, and otherwise applies ``E``, so the surviving (unnormalized)
state evolves under ``G = E . E1`` with ``E_i(rho) = M_i rho M_i^dag``.

The truncated series ``sum_n E0(G^n(rho0))`` computed here is the oracle
against which the invariant and closed-form methods are checked.  One
private loop, :func:`_series_pass`, serves the terminal sum, the step
table and the running time alike, and its one result, :class:`SeriesPass`,
is what both public entry points return.  It keeps only scalars per step
(``tr E0(sigma_n)`` and the surviving mass) and validates the terminal
sum once, on first read.

Each state needs the one before, so only ``sigma <- G(sigma)`` is
sequential, and it runs one of two kernels, chosen from the shape of
``G``.  With ``K`` Kraus operators on dimension ``d``, a Kraus step
costs ``2K d^3`` multiply-adds and a product with ``G``'s own
``d^2 x d^2`` matrix costs ``d^4``, so when ``d <= 2K`` the pass builds
that matrix once; otherwise it applies the Kraus operators.  The matrix
is built column by column from ``G.apply_mat`` on the matrix units, never
from :func:`~qmcverify.channels.matrix_representation`, which the
invariant route's doubling stage uses, nor from the spectral route's
Hermitian-basis builder: a fault in either must not pass unseen because
the series shares it.  The matrix kernel builds a stack of
its first ``s`` powers once, when the pass starts, by ``log2 s``
doubling products, so one matrix-vector product gives ``s`` states;
``s`` is the largest power of two up to 256 whose ``s d^4`` entries fit
in 256 KB (256 at d <= 2, 1 from d = 10 on).  The states go into
chunks of up to 256; per chunk, one product with ``vec(I)`` and
``vec((M0^dag M0)^T)`` reads every mass and every ``tr E0(sigma_n)``, one
dot product adds the chunk's share of ``sum_n n p_n`` and one sum adds
its states to ``sum_n sigma_n``, to which ``E0`` is applied once at the
end.  The results are those of a step-by-step loop
(``tests/test_series_pass.py`` keeps it as the reference) up to rounding
that stays first order in ``n u``, ``u`` the unit roundoff; the step
count and stop reason can differ only where a mass lies within that
rounding of ``tail_tol``.  The step table is built from
the scalars only when first read.  The scalars are kept as
``array('d')``, 8 bytes per step each, the doubles a Python float list
would hold at 32 bytes per entry.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import DensityOperator, SuperOperator, _sum_terms, compose
from .errors import ConsistencyError, DimensionMismatchError, ValidationError
from .linalg import OPTION_RULES, TOL_TP, dagger, max_abs, require_number, require_square

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
        """This scheme started in ``rho0``.  The scheme's own contracts held
        when it was built, so only the state's are checked here, and the
        program shares the scheme's ``G`` instead of composing it again."""
        prog = object.__new__(QuantumProgram)
        for name, value in (("e", self.e), ("meas", self.meas), ("rho0", rho0)):
            object.__setattr__(prog, name, value)
        prog.__dict__["g"] = self.g
        prog._check_state()
        return prog


@dataclass(frozen=True, eq=False)
class QuantumProgram(ProgramScheme):
    """A program scheme plus a unit-trace initial state."""

    rho0: DensityOperator

    def __post_init__(self):
        ProgramScheme.__post_init__(self)
        self._check_state()

    def _check_state(self) -> None:
        if self.rho0.dim != self.dim:
            raise DimensionMismatchError(
                f"initial state dimension {self.rho0.dim} != program dimension {self.dim}"
            )
        if abs(self.rho0.trace - 1.0) > 1e-9:
            raise ValidationError(
                f"initial state must have unit trace, got {self.rho0.trace:.12g}"
            )


@dataclass(frozen=True)
class StepRecord:
    n: int
    p: float
    p_nontermination: float


def _real_trace(mat: np.ndarray) -> float:
    return float(mat.trace().real)


@dataclass(frozen=True, eq=False)
class SeriesPass:
    """Outcome of one pass of :func:`_series_pass`; only ``acc`` and
    ``last`` are matrices, everything kept per step is a scalar, stored
    as a C double.

    ``steps[k]`` describes step ``n = k + 1``:
    ``p = tr(E0(G^(n-1)(rho0)))`` and ``p_nontermination = tr(G^n(rho0))``,
    the mass that survives n steps (equal to ``tr(E1(G^(n-1)(rho0)))``
    because ``E`` is trace-preserving).  For every prefix,
    ``sum(p_1..p_n) + p_nontermination_n = 1``.
    """

    acc: np.ndarray  # sum_{n <= n_used} E0(sigma_n), unvalidated
    last: np.ndarray  # sigma_{n_used}
    p: array  # 'd': tr E0(sigma_n) for n = 0..n_used
    mass: array  # 'd': tr sigma_{n+1} for n = 0..n_used
    time_sum: float  # sum of (n + 1) * p[n] for n = 0..n_used
    n_used: int
    stop_reason: str  # "tail_tol" or "n_max"
    # tr E1(sigma_{n_used}), the mass left after the last step: the pass's
    # one residual
    residual_mass: float

    @cached_property
    def rho_star(self) -> DensityOperator:
        """The terminal sum ``acc``, validated on first read.  The program
        was validated when it was built, so a sum that fails the check is
        a numerical fault of the pass, not bad input."""
        try:
            return DensityOperator(self.acc)
        except ValidationError as exc:
            raise ConsistencyError(f"series terminal state: {exc}") from exc

    @cached_property
    def steps(self) -> tuple[StepRecord, ...]:
        """One record per term of the sum, ``n_used + 1`` in all; built on
        first read."""
        return tuple(
            StepRecord(n=n, p=p, p_nontermination=m)
            for n, (p, m) in enumerate(zip(self.p, self.mass), start=1)
        )


# Largest chunk of the series pass, in steps: a chunk holds at most this
# many d x d states.
_CHUNK = 256
# Most complex entries the matrix kernel's stack of powers of G may hold
# (256 KB): s powers of a d^2 x d^2 matrix are s d^4 entries.
_STACK_ENTRIES = 2**14


def _stack_height(d: int) -> int:
    """How many powers ``P_1..P_s`` of ``G``'s step matrix the pass keeps
    on dimension ``d``: the largest power of two ``s <= _CHUNK`` with
    ``s d^4 <= _STACK_ENTRIES``, and at least 1.  That is 256 at d <= 2,
    128 at d = 3, 64 at d = 4, 4 at d = 7 and 8, and 1 from d = 10 on."""
    s = _CHUNK
    while s > 1 and s * d**4 > _STACK_ENTRIES:
        s //= 2
    return s


def _step_matrix(g: SuperOperator) -> np.ndarray | None:
    """``G``'s own ``d^2 x d^2`` matrix in row-major ``vec`` coordinates
    when a product with it costs no more than a Kraus step (``d <= 2K``
    with ``K`` Kraus operators), else ``None``.  Column ``j`` is
    ``vec(G(E_j))`` for the j-th matrix unit ``E_j``: the Kraus action of
    ``g.apply_mat``, batched over all units in one product, and neither
    ``channels.matrix_representation`` (the invariant route's builder)
    nor the spectral route's slab-by-slab Hermitian-basis builder."""
    d = g.dim
    if d > 2 * len(g.kraus):
        return None
    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)
    terms = g.stack[:, None] @ units @ g.stack_dagger[:, None]
    return _sum_terms(terms).reshape(d * d, d * d).T


def _power_stack(m: np.ndarray, s: int, height: int | None = None) -> np.ndarray:
    """Room for the powers ``P_1..P_s`` of a step matrix ``P_1 = m``,
    stacked as one ``(s d^2, d^2)`` array whose i-th block of ``d^2`` rows
    is ``P_{i+1}``, with the first ``height`` of them (all ``s`` by
    default) built by :func:`_grow_powers`."""
    n = m.shape[0]
    blocks = np.empty((s * n, n), complex)
    blocks[:n] = m
    _grow_powers(blocks, 1, s if height is None else height)
    return blocks


def _grow_powers(blocks: np.ndarray, built: int, need: int) -> int:
    """Build the powers of a :func:`_power_stack` past the first ``built``
    (a power of two) by doubling, ``P_{h+i} = P_i P_h`` for all ``i <=
    h`` in one product, until at least ``need`` are built; returns how
    many are.  Each product reads only powers built before it, so every
    power has the same bits whatever height the stack stops at."""
    n = blocks.shape[1]
    while built < need:
        np.matmul(blocks[: built * n], blocks[(built - 1) * n : built * n],
                  out=blocks[built * n : 2 * built * n])
        built *= 2
    return built


def _series_pass(
    scheme: ProgramScheme, rho_mat: np.ndarray, tail_tol: float, n_max: int
) -> SeriesPass:
    """The one stepping loop behind every series quantity.

    Steps ``sigma_{n+1} = G(sigma_n)`` from ``sigma_0 = rho``, adding
    ``E0(sigma_n)`` to the terminal sum and recording the scalars
    ``tr E0(sigma_n)`` and ``tr sigma_{n+1}``, until the surviving mass
    drops below ``tail_tol`` or ``n`` reaches ``n_max``.  The mass is
    monotone nonincreasing, which makes it the natural stopping
    functional.  Nothing is validated per step.

    The states go into chunks of ``(count, d^2)`` rows, ``vec(sigma)``
    each; chunks grow 1, 2, 4, ... up to :data:`_CHUNK` steps, so a short
    series overshoots by at most as many steps as it took, and rows past
    the stop are dropped.  ``G`` fills a chunk by one of two kernels.
    With the matrix of :func:`_step_matrix` (``d <= 2K``), the pass
    keeps a :func:`_power_stack` of up to ``s = _stack_height(d)`` powers,
    and each product gives up to ``s`` states, ``sigma_{n+i} = P_i
    sigma_n``, so a chunk costs ``ceil(count / s)`` calls.  The stack is
    built only as high as the chunks reach, ``min(s, count)`` powers,
    doubling as they grow: a pass that stops at once builds none past
    ``P_1``.  It holds at most ``_STACK_ENTRIES`` entries (256 KB) and
    costs at most ``log2 s`` products; at ``s = 1`` this is one product
    per step.  Otherwise ``g.apply_mat`` steps each row.

    One reduction per chunk serves both kernels: the masses are
    ``rows @ vec(I)`` and ``p_n = tr E0(sigma_n) = tr(M0^dag M0 sigma_n)``
    is ``rows @ vec((M0^dag M0)^T)``, both in one product;
    the running time gains ``(n + 2, ...) . p``, and the chunk's states
    are added to ``sum_n sigma_n``, to which ``E0`` is applied once when
    the pass stops.  The values are those of a loop that applies ``G``
    and ``E0`` one step at a time (``tests/test_series_pass.py`` keeps it
    as the reference) up to rounding that stays first order in ``n u``,
    ``u`` the unit roundoff; the test derives the bound."""
    g, d = scheme.g, scheme.dim
    m = _step_matrix(g)
    s = _stack_height(d)
    stack = None if m is None else _power_stack(m, s, 1)
    built = 1
    m0 = scheme.meas.m0
    # Column 0 reads tr sigma, column 1 tr E0(sigma), from vec(sigma).
    readout = np.column_stack(
        [np.eye(d, dtype=complex).reshape(-1), (dagger(m0) @ m0).T.reshape(-1)]
    )
    state = np.asarray(rho_mat, complex).reshape(-1)
    total = state.copy()  # sum_{k <= n} vec(sigma_k)
    ps = array("d", [float((state @ readout[:, 1]).real)])
    time_sum = ps[0]
    masses = array("d")
    n = 0
    size = 1
    while True:
        # Rows past n = n_max are never needed.
        rows = np.empty((max(1, min(size, n_max - n + 1)), d * d), complex)
        if stack is None:
            sigma = state.reshape(d, d)
            for row in rows.reshape(len(rows), d, d):
                row[...] = g.apply_mat(sigma)
                sigma = row
        else:
            built = _grow_powers(stack, built, min(s, len(rows)))
            for b in range(0, len(rows), s):
                out = rows[b : b + s]
                np.dot(stack[: len(out) * d * d], rows[b - 1] if b else state,
                       out=out.reshape(-1))
        scalars = (rows @ readout).real
        mass = scalars[:, 0]
        below = np.flatnonzero(mass < tail_tol)
        stop = int(below[0]) if below.size else None
        if stop is None and n + len(rows) - 1 >= n_max:
            stop = len(rows) - 1
        kept = len(rows) if stop is None else stop
        masses.frombytes(mass[: kept + 1].tobytes())
        if kept:
            p = scalars[:kept, 1]
            ps.frombytes(p.tobytes())
            time_sum += float(np.arange(n + 2, n + 2 + kept) @ p)
            total += rows[:kept].sum(axis=0)
            state = rows[kept - 1]
        n += kept
        if stop is not None:
            reason = "tail_tol" if mass[stop] < tail_tol else "n_max"
            last = state.reshape(d, d).copy()
            return SeriesPass(
                acc=scheme.meas.e0.apply_mat(total.reshape(d, d)),
                last=last, p=ps, mass=masses, time_sum=time_sum, n_used=n,
                stop_reason=reason,
                residual_mass=_real_trace(scheme.meas.e1.apply_mat(last)),
            )
        size = min(2 * size, _CHUNK)


def step_probabilities(prog: QuantumProgram, n_max: int) -> SeriesPass:
    """The pass over steps n = 1..n_max, whatever mass is left: its
    ``steps`` tabulate p_n and the nontermination probability."""
    n_max = require_number(n_max, "n_max", **OPTION_RULES["n_max"])
    return _series_pass(prog, prog.rho0.mat, -math.inf, n_max - 1)


def terminal_state_series(
    prog: QuantumProgram,
    tail_tol: float = DEFAULT_TAIL_TOL,
    n_max: int = DEFAULT_N_MAX,
) -> SeriesPass:
    """The pass behind the truncated terminal state
    ``rho_star = sum_{n=0}^{n_used} E0(G^n(rho0))``, validated here: a
    sum that is not a density operator raises ``ConsistencyError``.

    A residual above ``tail_tol`` is not an error: the series still
    converges, but the program may not terminate almost surely and any
    expectation taken in ``rho_star`` is a lower estimate.
    """
    tail_tol = require_number(tail_tol, "tail_tol", **OPTION_RULES["tail_tol"])
    n_max = require_number(n_max, "n_max", 0, whole=True)
    run = _series_pass(prog, prog.rho0.mat, tail_tol, n_max)
    run.rho_star  # the one validation of the terminal state
    return run
