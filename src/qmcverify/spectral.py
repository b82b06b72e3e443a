"""Closed-form verification through matrix representations.

The survival step ``G`` maps Hermitian operators to Hermitian operators,
so in the orthonormal Hermitian basis ``E_ii``, ``(E_ij + E_ji)/sqrt2``
and ``i(E_ij - E_ji)/sqrt2`` (``i < j``) its matrix ``R = T M T^dag`` is
real, with ``M = sum_s K_s (x) conj(K_s)`` the row-major ``vec`` matrix of
``G``'s Kraus operators ``K_s``.  ``R`` is written slab by slab straight
from the Kraus stack (:func:`_step_coordinates`), never through a complex
d^2 x d^2 ``M``; :func:`qmcverify.channels.matrix_representation` builds
that ``M`` for the invariant route's doubling stage and is not read here.
Every d^2 x d^2 array here is ``R`` or built from it, in float64, and a
Hermitian ``A`` enters as ``coordinates(A) = T vec(A)``, so that ``tr(A
B)`` is the dot product of the coordinates.  Every eigenvalue of ``R`` has
modulus at most one, and unit-modulus eigenvalues are semisimple, so
removing their (rank-one, biorthogonal) spectral components yields a
strictly contracting matrix ``N``.  The halting step ``E0(X) = M0 X
M0^dag`` vanishes on the unit-circle eigenspace, so ``E0 G^n = E0 N^n``
for all ``n``.  It is read in the Heisenberg picture, ``tr(P E0(X)) =
tr(E0*(P) X)`` with ``E0*(P) = M0^dag P M0``: terminal expectations and
the average running time are ``coordinates(E0*(P))`` dotted with
resolvent solves against ``coordinates(rho0)``.

Most steps have no unit spectrum at all, and that is decided without an
eigensolve.  ``G`` is positive, and a positive map has spectral radius
below one iff some ``V > 0`` has ``G(V) < V`` (Perron-Frobenius theory
for positive maps; cited from memory: Evans and Hoegh-Krohn, "Spectral
properties of positive maps on C*-algebras", J. London Math. Soc.
1978).  :func:`no_unit_certificate` looks for the ``V = sum_n G^n(I)``
that exists exactly then: ``v`` solves ``(I - R) v = coordinates(I)``,
and ``V`` and ``D = V - G(V)`` read back from ``v`` and ``v - R v`` by
:func:`from_coordinates`.  If ``D >= eta I`` and ``0 < V <= lam I``
with ``eta > 0``, then ``G(V) = V - D <= V - eta I <= (1 - eta/lam) V``,
so ``G^k(V) <= (1 - eta/lam)^k V`` by positivity; every Hermitian ``X``
lies between ``-cV`` and ``cV`` for some ``c``, so the spectral radius
of ``R`` is at most ``1 - eta/lam``.  Then no eigenvalue is on the unit
circle, ``N = R``, and ``eta/lam`` is a lower bound on the gap ``1 -
max|lambda|``.  ``v`` itself need not be accurate: the check is on the
``V`` that the computed ``v`` stands for, ``T^dag v`` in exact
arithmetic.  When the check fails, the eigenvalues decide as before.
The argument needs ``R`` to be the matrix of a positive map, which
every ``R`` that :func:`_step_coordinates` builds from a Kraus stack is;
for an arbitrary real matrix the check can hold at a radius above ``1 -
eta/lam``.

The slack ``s``.  The check sets ``eta = lambda_min(D^) - s`` and
``lam = lambda_max(V^) + s`` and requires ``lambda_min(V^) - s > 0``,
``D^`` and ``V^`` the computed matrices.  By Weyl's inequality ``s``
suffices once it bounds the spectral norm of ``D^ - D`` and of ``V^ -
V``, each with the error of ``eigvalsh`` added.  To first order in the
unit roundoff ``u = 2^-53``, with ``n = d^2``, ``K`` Kraus operators,
``t = sum_s ||K_s||_F^2 = tr G(I)``, ``tau = max(1, t)`` and ``w = d
max(1, ||v||_max) >= ||v||_2``, every error bounded in the Frobenius
norm, which bounds the 2-norm:

- *R from the Kraus stack.*  Each entry of ``R`` is a sum, over the
  Kraus index and the slots that ``T`` and ``T^dag`` touch, of
  ``K_s[..] conj(K_s[..])`` times two of ``1``, ``+-h``, ``+-ih``, with
  ``h = fl(sqrt(1/2))`` within ``u h`` of ``1/sqrt2``.
  :func:`_step_coordinates` rounds along any path once per complex
  product (at most ``2 sqrt2 u``, counted as 3), ``K - 1`` times in the
  Kraus sum and three times (``h``, product, sum) on each side of
  ``T``: ``|R^ - R| <= (K + 8) u |T| A |T|^T`` entrywise, ``A = sum_s
  |K_s| (x) |K_s|``.  ``|T|`` has 2-norm ``sqrt2`` and ``||A||_F <= t``,
  so ``||(R^ - R) v||_2 <= 2 (K + 8) u t w``.
- *The product ``R^ v``*, ``n`` terms per row: ``|fl(R^ v) - R^ v| <=
  n u |R^| |v|``, of 2-norm at most ``n u ||R||_F w <= n u t w``, since
  ``||R||_F = ||M||_F <= t``.
- *The difference ``v - R^ v``*: ``u ||v - R^ v||_2 <= u (1 + t) w``.
- *The back-map* rounds each entry three times (``h``, product, sum)
  on ``|T|^T |c|``, of norm at most ``sqrt2 ||c||_2``, and ``eigvalsh``
  reads one triangle, which multiplies the Frobenius norm of an error by
  at most ``sqrt2``: ``6 u ||c||_2``, with ``||c||_2 <= (1 + t) w`` for
  ``D`` and ``<= w`` for ``V``.
- *eigvalsh* is backward stable: its eigenvalues are those of ``H +
  F`` with ``||F||_2 <= c(d) u ||H||_2``, ``c(d)`` a modest polynomial
  (Golub and Van Loan, *Matrix Computations*, 8.1), taken as ``d`` as
  in :func:`qmcverify.linalg._check_power_sums`: ``d u (1 + t) w`` for
  ``D`` and ``d u w`` for ``V``.

For ``D`` that is ``u w (2 (K + 8) t + n t + (7 + d)(1 + t)) <= u w tau
(n + 2K + 2d + 30)``, and for ``V`` the smaller ``(6 + d) u w``, so

    s = (d^2 + 2d + 2K + 30) tau d u max(1, ||v||_max)

covers both.  It grows with ``||v||_max``, about ``1 / (1 - max|lambda|)``
for a step near the unit circle, because ``D = v - R v`` is a
difference of that size whose rounding does not shrink with it.  At d =
18 and K = 2, with ``t <= d`` for a trace-nonincreasing step, it is
below ``1.5e-11 max(1, ||v||_max)``.

The same check on d x d matrices.  Any ``V > 0`` with ``D = V - G(V) >=
eta I`` proves the bound, not only ``sum_n G^n(I)``, and
:func:`kraus_certificate` checks a given Hermitian candidate without
``R``: ``D`` comes from one Kraus step (``G.apply_mat``), then the same
two ``eigvalsh``.  The candidate is made exactly Hermitian first
(``(V + V^dag)/2`` rounds the two triangles alike), so the check is on
that array itself and only ``D`` carries rounding.  Its slack ``s``,
with ``t``, ``tau``, ``K`` and ``u`` as above and ``w = d max(1,
||V||_max) >= ||V||_F``, each error bounded entrywise first and then in
the Frobenius norm, to first order:

- *Each product* ``K_s V`` and then ``(K_s V) K_s^dag`` is a batch of
  complex inner products of length ``d``.  The real and the imaginary
  part of one is a real sum of ``2d`` products, in whatever order BLAS
  takes them, so it errs by at most ``2d u`` times the sum of their
  moduli, and the complex result by ``2 sqrt2 d u |x|^T |y|``.  Two
  such products err by ``4 sqrt2 d u |K_s| |V| |K_s|^T``.
- *The Kraus sum* adds ``K - 1`` terms and *the difference* ``V - G(V)``
  one more, ``K u A + u |V|`` with ``A = sum_s |K_s| |V| |K_s|^T``,
  where ``||A||_F <= sum_s ||K_s||_F^2 ||V||_F = t ||V||_F``.
- *eigvalsh* reads one triangle of the computed ``D``, which multiplies
  the Frobenius norm of its error by at most ``sqrt2``, and adds its
  backward error ``d u ||D||_2 <= d u (1 + t) w``.

For ``D`` that is ``u w (sqrt2 ((4 sqrt2 d + K) t + 1) + d (1 + t)) <= u
w tau (10 d + 2K + 2)``; ``V`` is exact and has only ``eigvalsh``'s ``d u
w``, so

    s = (10 d + 2K + 2) tau d u max(1, ||V||_max)

covers both.  No ``n = d^2`` term appears: nothing is d^2 long.

:func:`forward_certificate` tries the forward sum ``V_N = sum_{n<N}
G^n(I)`` for ``N = 1, ..., d``, one Kraus step each.  In exact
arithmetic ``D = I - G^N(I)``, so the check can hold only where
``lambda_max(G^N(I))`` is below ``1 - s``.  ``||G^N(I)||_inf`` bounds
it from above, and the two eigensolves run only once that norm is
below ``1 - 2s``: a gap that a last-bit rounding of a norm that is one
in exact arithmetic cannot open, and that leaves room for the rounding
of ``V_N`` and ``D`` themselves.  A step nilpotent on ``I`` (a counter)
empties by ``N = d``; a step with unit spectrum never passes the norm
bound, so a refusal costs at most ``d`` Kraus steps and no eigensolve.
The d x d path reads the Kraus stack, whose map is positive by
construction, so unlike the ``R`` path it needs no assumption on the
matrix it is given.

At most one factorization per build.  :func:`build_representation` builds ``I
- R`` once and solves it once for two columns, ``[coordinates(I),
coordinates(start)]``: ``v`` for the certificate and ``y0 = (I -
R)^-1 coordinates(rho0)`` for the closed forms, ``start`` being
``rho0`` for a program and ``I`` again for a bare scheme.  The slack
still holds: it bounds the rounding of what is computed from a given
``v``, whatever solve produced it, and each column of a multi-column
solve is rounded on its own, so column 0 has the same bits whatever
column 1 holds; ``eta`` and ``lam`` read the same for a program and its
scheme.  One right-hand side would take LAPACK's one-vector triangular
kernel, whose bits differ, so every solve of a state has this
two-column layout (:func:`_state_columns`): a kept ``y0`` and a fresh
solve of the same start agree bit for bit, and so do the certificate's
build and the eigen path's when ``N = R``.  The expectation then runs no
solve, and the running time one, ``(I - N)^-1 y0``; a certified build
runs no eigensolve, and its ``unit_projector`` is ``None``.  So a
certified ``verify`` factors ``I - R`` once and ``runtime`` twice; they
need the solve for their closed forms anyway.  The termination checks
need no closed form: :func:`decide_unit_circle` tries
:func:`forward_certificate` first and returns a :class:`CertifiedStep`,
which factors nothing and builds ``R`` only when its eigenvalues are
read (``spectrum`` reads them, ``terminate`` does not).  Where the
forward sum is refused, it runs :func:`build_representation` as above,
one factorization.
"""
from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import DensityOperator, Observable, SuperOperator
from .errors import RepresentationError, SingularResolventError
from .linalg import (
    EPS_UNIT,
    OPTION_RULES,
    TOL_PROJ,
    SpectralData,
    dagger,
    max_abs,
    require_number,
    spectral_decompose,
)
from .program import ProgramScheme, QuantumProgram

# An operator has no unit-circle component when ||P_u x|| is at most this
# many times ||x||, for x its coordinates.
UNIT_OVERLAP_RTOL = 1e-9
# Largest imaginary part, relative to max(1, ||C||_max), that the
# Hermitian-basis coordinates C of the unit-circle projector may carry.
# Rounding leaves a few ulps; a projector that does not preserve
# Hermiticity leaves O(||C||).  The step matrix needs no such check:
# M = sum_s K_s (x) conj(K_s) preserves Hermiticity for every Kraus
# family, so Im(T M T^dag) is rounding alone.
HERMITIAN_COORD_TOL = 1e-12


@dataclass(frozen=True)
class NoUnitCertificate:
    """The checked proof of :func:`no_unit_certificate`: ``D >= eta I``
    and ``0 < V <= lam I``, rounding included, so ``G(V) <= (1 -
    eta/lam) V`` and the spectral radius of ``R`` is at most ``1 -
    margin``.  ``terms`` is the ``N`` of the forward sum ``V_N`` that
    :func:`forward_certificate` checked, ``None`` when the candidate was
    the resolvent sum ``V = sum_n G^n(I)``, solved from ``I - R``."""

    eta: float
    lam: float
    terms: int | None = None

    @property
    def margin(self) -> float:
        return self.eta / self.lam


@dataclass(frozen=True, eq=False)
class ProgramRepresentation:
    """Hermitian-basis data of a program scheme, every d^2 x d^2 array in
    float64.  Each field holds what :func:`build_representation`
    computed, and a copy made by ``dataclasses.replace`` keeps them.

    ``g`` is the survival step, which the termination checks apply on
    d x d matrices, ``step_matrix`` its matrix ``R`` and ``m0`` the d x
    d halting operator ``M0``, from which the closed forms read ``E0*``.
    ``unit_projector`` is the spectral projector ``P_u`` onto the
    unit-circle eigenspace, or ``None`` when no eigenvalue is on the unit
    circle, and ``n_filtered`` is ``N = R - R P_u``, ``R`` itself without
    unit spectrum.  ``margin`` is a lower bound on the gap ``1 -
    max{|lambda| : lambda below the unit circle}``; it quantifies the
    conditioning of the ``I - N`` solves.  ``certificate`` is the
    :class:`NoUnitCertificate` that decided the unit circle, with
    ``margin`` the certificate's, or ``None`` when the eigenvalues
    decided, with ``margin`` their gap.

    ``resolvent`` is ``I - N``, the matrix every closed-form solve
    factors, and ``start_solution`` what a certified build kept of its
    one solve: the start's coordinates ``x0`` and ``y0 = (I - N)^-1
    x0`` (module docstring), ``None`` on the eigen path.  The expectation
    of that start runs no solve and its running time one; any other start
    costs one more.
    """

    dim: int
    m0: np.ndarray
    g: SuperOperator
    step_matrix: np.ndarray
    eps_unit: float
    unit_projector: np.ndarray | None
    n_filtered: np.ndarray
    margin: float
    certificate: NoUnitCertificate | None
    resolvent: np.ndarray
    start_solution: tuple[np.ndarray, np.ndarray] | None

    @functools.cached_property
    def spectral(self) -> SpectralData:
        """The eigendata of ``R`` at ``eps_unit``.  A build that the
        certificate decided runs no eigensolve, and they are computed on
        first read."""
        return spectral_decompose(self.step_matrix, self.eps_unit)

    def unit_overlap(self, a: np.ndarray) -> tuple[float, bool]:
        """``||P_u x||`` for ``x = coordinates(a)``, and whether it is
        negligible: at most :data:`UNIT_OVERLAP_RTOL` times ``||x||``.
        For a non-Hermitian ``a`` this reads its Hermitian part."""
        if self.unit_projector is None:
            return 0.0, True
        x = coordinates(a)
        overlap = float(np.linalg.norm(self.unit_projector @ x))
        return overlap, overlap <= UNIT_OVERLAP_RTOL * float(np.linalg.norm(x))


@dataclass(frozen=True, eq=False)
class CertifiedStep:
    """A survival step ``g`` that :func:`forward_certificate` proved has
    spectral radius below one: what the termination checks and the CLI's
    ``terminate`` and ``spectrum`` read of a representation, with no
    d^2 x d^2 array until :attr:`spectral` is read.  No eigenvalue is on
    the unit circle, so no start overlaps it."""

    dim: int
    g: SuperOperator
    eps_unit: float
    certificate: NoUnitCertificate

    @property
    def margin(self) -> float:
        return self.certificate.margin

    @functools.cached_property
    def spectral(self) -> SpectralData:
        """The eigendata of ``R`` at ``eps_unit``, ``R`` built on first
        read, bit for bit :func:`build_representation`'s."""
        return spectral_decompose(_step_coordinates(self.g.stack), self.eps_unit)

    def unit_overlap(self, a: np.ndarray) -> tuple[float, bool]:
        return 0.0, True


@functools.lru_cache(maxsize=16)
def _hermitian_basis(d: int) -> tuple[np.ndarray, ...]:
    """Index arithmetic for the unitary ``T`` from row-major ``vec``
    coordinates to the Hermitian basis of the module docstring.

    Slot ``i*d + j`` holds ``E_ii`` for ``i == j``, the symmetric element
    of the pair for ``i < j`` and the antisymmetric one for ``i > j``.
    Row ``a`` of ``T`` has ``alpha[a]`` in column ``a`` and ``beta[a]`` in
    column ``swap[a]``, the slot of the transposed entry, and nothing
    else.  Returns ``swap``, ``alpha`` and ``beta``, all read-only.
    """
    i, j = np.divmod(np.arange(d * d), d)
    swap = j * d + i
    h = math.sqrt(0.5)
    alpha = np.where(i == j, 1.0, np.where(i < j, h, 1j * h))
    beta = np.where(i == j, 0.0, np.where(i < j, h, -1j * h))
    arrays = (swap, alpha, beta)
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def coordinates(a: np.ndarray) -> np.ndarray:
    """``Re(T vec(a))``: the real coordinates of the Hermitian part of the
    d x d ``a`` in the Hermitian basis."""
    swap, alpha, beta = _hermitian_basis(a.shape[0])
    v = a.reshape(-1)
    return (alpha * v + beta * v[swap]).real


def from_coordinates(c: np.ndarray) -> np.ndarray:
    """``T^dag c``, the inverse of :func:`coordinates`: the Hermitian d x
    d matrix whose coordinates are the real ``c`` of length d^2."""
    d = math.isqrt(c.size)
    swap, alpha, beta = _hermitian_basis(d)
    return (alpha.conj() * c + beta[swap].conj() * c[swap]).reshape(d, d)


def _checked_real(c: np.ndarray, what: str) -> np.ndarray:
    """The Hermitian-basis array ``c`` as float64.

    Raises
    ------
    RepresentationError
        If ``||Im c||_max`` is above :data:`HERMITIAN_COORD_TOL` times
        ``max(1, ||c||_max)``: the operator ``c`` stands for does not
        preserve Hermiticity.
    """
    defect = max_abs(c.imag)
    if defect > HERMITIAN_COORD_TOL * max(1.0, max_abs(c)):
        raise RepresentationError(
            f"{what} has Hermitian-basis coordinates with imaginary part "
            f"{defect:.3e}; it does not preserve Hermiticity"
        )
    return np.ascontiguousarray(c.real)


def _step_coordinates(stack: np.ndarray) -> np.ndarray:
    """``R = T M T^dag`` for ``M = sum_s K_s (x) conj(K_s)``, from the
    Kraus operators stacked as ``(K, d, d)``.

    ``R`` is written one slab of ``d`` rows at a time.  Rows ``i*d + p``
    of ``T M`` read rows ``i*d + p`` and ``p*d + i`` of ``M``: the slices
    ``M4[i]`` and ``M4[:, i]`` of ``M4[i, p, j, q] = M[i*d + p, j*d + q]``.
    Each slice is summed in Kraus order from zero, as the Kraus loop of
    ``matrix_representation`` sums ``M``, and the ``alpha``/``beta``
    products of :func:`_hermitian_basis` follow in the order of the
    whole-matrix formula ``T M T^dag``, so every entry of ``R`` has the
    bits, signed zeros included, that the d^2 x d^2 complex products
    would give; the temporaries are O(d^3).  The imaginary part, rounding
    alone for any Kraus family, is dropped.
    """
    stack = np.asarray(stack)
    stack_conj = stack.conj()
    d = stack.shape[1]
    swap, alpha, beta = _hermitian_basis(d)
    alpha_rows, beta_rows = alpha.reshape(d, d, 1), beta.reshape(d, d, 1)
    alpha_conj, beta_conj = alpha.conj(), beta.conj()
    r = np.empty((d * d, d * d))
    term, m = np.empty((2, 2, d, d, d), dtype=complex)
    c, swapped = m.reshape(2, d, d * d)
    for i in range(d):
        # m[0, p, j, q] = M4[i, p, j, q] and m[1, p, j, q] = M4[p, i, j, q].
        m.fill(0.0)
        for k, k_conj in zip(stack, stack_conj):
            np.multiply(k[i, None, :, None], k_conj[:, None, :], out=term[0])
            np.multiply(k[:, :, None], k_conj[i, None, None, :], out=term[1])
            m += term
        # Rows i*d + p of T M, then of T M T^dag.
        np.multiply(alpha_rows[i], c, out=c)
        np.multiply(beta_rows[i], swapped, out=swapped)
        c += swapped
        # swap is in range; mode="clip" only spares take a buffered copy.
        np.take(c, swap, axis=1, out=swapped, mode="clip")
        c *= alpha_conj
        swapped *= beta_conj
        c += swapped
        r[i * d : (i + 1) * d] = c.real
    return r


@functools.lru_cache(maxsize=16)
def _identity_coordinates(d: int) -> np.ndarray:
    """``coordinates(I)`` on dimension ``d``, read-only."""
    e = coordinates(np.eye(d))
    e.setflags(write=False)
    return e


def _state_columns(x: np.ndarray) -> np.ndarray:
    """The right-hand side of every state solve, ``[coordinates(I), x]``:
    ``x``'s column then takes the same LAPACK kernel, and gets the same
    bits, wherever it is solved (module docstring)."""
    return np.column_stack([_identity_coordinates(math.isqrt(x.size)), x])


def no_unit_certificate(
    r: np.ndarray, kraus_count: int, v: np.ndarray | None = None
) -> NoUnitCertificate | None:
    """A checked proof, from ``R`` alone, that the step has spectral
    radius below one (module docstring), or ``None`` when the check
    fails: a singular solve, a non-finite ``v`` or an eigensolve that
    does not converge, or a minimum that does not clear the slack.
    ``kraus_count`` is the number of Kraus operators ``R`` was built from,
    which the slack's bound on the rounding of ``R`` counts.  ``v`` is
    the computed solution of ``(I - R) v = coordinates(I)`` to check,
    column 0 of :func:`build_representation`'s solve, and is solved here
    when not given.  Any ``v`` gives a sound check; only an accurate one
    lets it hold."""
    n = r.shape[0]
    d = math.isqrt(n)
    e = _identity_coordinates(d)
    try:
        if v is None:
            v = np.linalg.solve(np.eye(n) - r, _state_columns(e))[:, 0]
        if not np.isfinite(v).all():
            return None
        v_min, v_max = np.linalg.eigvalsh(from_coordinates(v))[[0, -1]]
        d_min = np.linalg.eigvalsh(from_coordinates(v - r @ v))[0]
    except np.linalg.LinAlgError:
        return None
    tau = max(1.0, float(e @ r @ e))
    u = 2.0**-53
    slack = (n + 2 * d + 2 * kraus_count + 30) * tau * d * u * max(1.0, max_abs(v))
    eta, lam = float(d_min) - slack, float(v_max) + slack
    if not (eta > 0 and v_min - slack > 0):
        return None
    return NoUnitCertificate(eta, lam)


def _kraus_slack(stack: np.ndarray, v: np.ndarray) -> float:
    """The slack ``s`` of the d x d check for the candidate ``v`` (module
    docstring), from the Kraus operators stacked as ``(K, d, d)``."""
    k, d = stack.shape[:2]
    tau = max(1.0, float(np.vdot(stack, stack).real))
    return (10 * d + 2 * k + 2) * tau * d * 2.0**-53 * max(1.0, max_abs(v))


def kraus_certificate(g: SuperOperator, v: np.ndarray) -> NoUnitCertificate | None:
    """The check of the module docstring on d x d matrices: a proof that
    ``g`` has spectral radius below one from the Hermitian part of the
    candidate ``v``, or ``None`` when a part is not finite, an eigensolve
    does not converge or a minimum does not clear the slack.  ``D = V -
    G(V)`` is one Kraus step; no ``R`` is built."""
    v = (v + dagger(v)) / 2
    if not np.isfinite(v).all():
        return None
    try:
        v_min, v_max = np.linalg.eigvalsh(v)[[0, -1]]
        d_min = np.linalg.eigvalsh(v - g.apply_mat(v))[0]
    except np.linalg.LinAlgError:
        return None
    slack = _kraus_slack(g.stack, v)
    eta, lam = float(d_min) - slack, float(v_max) + slack
    if not (eta > 0 and v_min - slack > 0):
        return None
    return NoUnitCertificate(eta, lam)


def forward_certificate(g: SuperOperator) -> NoUnitCertificate | None:
    """:func:`kraus_certificate` of the first forward sum ``V_N =
    sum_{n<N} G^n(I)``, ``N <= d``, whose ``G^N(I)`` has ``||.||_inf``
    at most ``1 - 2s`` (module docstring), or ``None`` when none has
    or the check refuses it.  It takes at most ``d`` Kraus steps, and
    eigensolves only the one candidate that passes that bound.  The
    certificate's ``terms`` is that ``N``."""
    term = np.eye(g.dim, dtype=complex)
    v = term.copy()
    for terms in range(1, g.dim + 1):
        term = g.apply_mat(term)
        if np.abs(term).sum(axis=1).max() <= 1.0 - 2.0 * _kraus_slack(g.stack, v):
            cert = kraus_certificate(g, v)
            return None if cert is None else dataclasses.replace(cert, terms=terms)
        v += term
    return None


def build_representation(
    scheme: ProgramScheme, eps_unit: float = EPS_UNIT
) -> ProgramRepresentation:
    """Assemble R and the unit-circle-filtered N for a scheme.

    ``I - R`` is solved once for ``[coordinates(I), coordinates(start)]``,
    ``start`` the program's ``rho0`` or, for a bare scheme, ``I``.  When
    :func:`no_unit_certificate` holds on column 0, ``N`` is ``R``,
    nothing is eigensolved and the representation keeps ``I - R`` and
    column 1; otherwise the eigenvalues of ``R`` decide the unit circle,
    with ``eps_unit`` as the window, and the representation keeps ``I -
    N`` and no solve.

    Raises
    ------
    ValidationError
        If ``eps_unit`` is not in [0, 1).
    RepresentationError
        If the certificate fails and the spectral radius of R exceeds ``1
        + eps_unit``, the unit-circle projector does not preserve
        Hermiticity or a unit-modulus eigenvalue cluster is not
        semisimple.  Valid programs (trace-preserving channel, complete
        measurement) trigger none of these unless ``eps_unit`` is below
        the eigensolver's rounding error; otherwise the usual cause is
        corrupted model data.
    """
    eps_unit = require_number(eps_unit, "option eps_unit", **OPTION_RULES["eps_unit"])
    stack = scheme.g.stack
    r = _step_coordinates(stack)
    common = dict(
        dim=scheme.dim, m0=scheme.meas.m0, g=scheme.g, step_matrix=r, eps_unit=eps_unit
    )
    resolvent = np.eye(len(r))
    resolvent -= r
    if isinstance(scheme, QuantumProgram):
        start = coordinates(scheme.rho0.mat)
    else:
        start = _identity_coordinates(scheme.dim)
    try:
        solved = np.linalg.solve(resolvent, _state_columns(start))
    except np.linalg.LinAlgError:
        solved = None
    cert = None if solved is None else no_unit_certificate(r, stack.shape[0], solved[:, 0])
    if cert is not None:
        return ProgramRepresentation(
            **common,
            unit_projector=None,
            n_filtered=r,
            margin=cert.margin,
            certificate=cert,
            resolvent=resolvent,
            start_solution=(start, solved[:, 1]),
        )

    sd = spectral_decompose(r, eps_unit)
    radius = sd.spectral_radius()
    if radius > 1.0 + eps_unit:
        raise RepresentationError(
            f"step representation has spectral radius 1 + {radius - 1.0:.3e}, "
            f"above 1 + eps_unit (eps_unit = {eps_unit:.3e}); either the "
            "survival step expands (the channel is not trace-nonincreasing "
            "on the survival branch) or eps_unit is below the eigensolver's "
            "rounding error"
        )

    r_norm = max(1.0, sd.norm)
    has_unit = bool(np.any(sd.unit_circle_flags))
    if has_unit:
        p_u = _checked_real(sd.unit_projector(), "unit-circle spectral projector")
        idempotency = max_abs(p_u @ p_u - p_u)
        if idempotency > TOL_PROJ:
            raise RepresentationError(
                "unit-circle spectral projector is not idempotent "
                f"(defect {idempotency:.3e}); a unit-modulus "
                "eigenvalue is defective, which valid programs cannot produce"
            )
        r_p_u = r @ p_u
        if max_abs(p_u @ r - r_p_u) > TOL_PROJ * r_norm:
            raise RepresentationError(
                "unit-circle spectral projector does not commute with the "
                "step representation"
            )
        # (R - lam I) P_c with P_c = r_c l_c^dag, in low rank as
        # (R r_c - lam r_c) l_c^dag.
        unit_evals = sd.eigenvalues[sd.unit_circle_flags]
        for cols in sd.unit_clusters():
            lam = unit_evals[cols].mean()
            r_c = sd.right_vectors[:, cols]
            defect = max_abs((r @ r_c - lam * r_c) @ dagger(sd.left_vectors[:, cols]))
            if defect > TOL_PROJ * r_norm:
                raise RepresentationError(
                    f"unit-modulus eigenvalue cluster at {lam:.9g} is not "
                    f"semisimple (nilpotent defect {defect:.3e})"
                )
        n = r - r_p_u
        resolvent = np.eye(len(n)) - n
    else:
        p_u, n = None, r

    rep = ProgramRepresentation(
        **common,
        unit_projector=p_u,
        n_filtered=n,
        margin=sd.gap(),
        certificate=None,
        resolvent=resolvent,
        start_solution=None,
    )
    # The eigendata this build decided on, so that reading rep.spectral
    # does not decompose R again.
    rep.__dict__["spectral"] = sd
    return rep


def decide_unit_circle(
    scheme: ProgramScheme, eps_unit: float = EPS_UNIT
) -> CertifiedStep | ProgramRepresentation:
    """What the termination checks read of ``scheme``: a
    :class:`CertifiedStep` where :func:`forward_certificate` holds, which
    builds no ``R`` and factors nothing, and otherwise
    :func:`build_representation`.

    Raises
    ------
    ValidationError
        If ``eps_unit`` is not in [0, 1).
    RepresentationError
        As :func:`build_representation`, where the forward sum is refused.
    """
    eps_unit = require_number(eps_unit, "option eps_unit", **OPTION_RULES["eps_unit"])
    cert = forward_certificate(scheme.g)
    if cert is None:
        return build_representation(scheme, eps_unit)
    return CertifiedStep(scheme.dim, scheme.g, eps_unit, cert)


def _resolvent_solve(rep: ProgramRepresentation, rhs: np.ndarray) -> np.ndarray:
    if rep.margin <= 0:
        raise SingularResolventError(
            f"I - N is singular (margin {rep.margin:.3e}); filtering failed"
        )
    try:
        return np.linalg.solve(rep.resolvent, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularResolventError(str(exc)) from exc


def _state_resolvent(rep: ProgramRepresentation, rho0: DensityOperator) -> np.ndarray:
    """``(I - N)^-1 coordinates(rho0)``: the build's ``y0`` when ``rho0``
    has its start's coordinates, else column 1 of a fresh solve of
    :func:`_state_columns`, which gives the same bits.  The margin guard
    comes first either way."""
    x = coordinates(rho0.mat)
    kept = rep.start_solution
    if rep.margin > 0 and kept is not None and np.array_equal(kept[0], x):
        return kept[1]
    return _resolvent_solve(rep, _state_columns(x))[:, 1]


def _halting_functional(rep: ProgramRepresentation, p: np.ndarray) -> np.ndarray:
    """``coordinates(E0*(P))`` with ``E0*(P) = M0^dag P M0``: its dot
    product with ``coordinates(X)`` is ``tr(P E0(X))`` for every Hermitian
    ``X``."""
    return coordinates(dagger(rep.m0) @ p @ rep.m0)


def expectation_closed_form(
    rep: ProgramRepresentation, rho0: DensityOperator, p: Observable
) -> float:
    """Terminal expectation ``tr(E0*(P) X)`` with ``coordinates(X) = (I -
    N)^-1 coordinates(rho0)``: read off the build's solve for its own
    start, and from a linear solve, not an inverse, for any other."""
    return float(_halting_functional(rep, p.mat) @ _state_resolvent(rep, rho0))


def average_running_time(rep: ProgramRepresentation, rho0: DensityOperator) -> float:
    """Average number of steps ``tr(E0*(I) X)`` with ``coordinates(X) = (I
    - N)^-2 coordinates(rho0)``: one solve of ``I - N`` against the
    expectation's ``(I - N)^-1 coordinates(rho0)``.

    Returns ``inf`` when the initial state overlaps the unit-circle
    eigenspace (:meth:`ProgramRepresentation.unit_overlap`): the
    termination probability is then below one and the mean genuinely
    diverges (or the quadratic form would undercount).
    """
    if not rep.unit_overlap(rho0.mat)[1]:
        return math.inf
    y = _resolvent_solve(rep, _state_resolvent(rep, rho0))
    return float(_halting_functional(rep, np.eye(rep.dim)) @ y)
