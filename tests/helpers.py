"""Shared builders for the test suite, the lemma diagnostics that only
the tests call, and the references the routes are checked against: the
written-out fixed-point iteration of the invariant route, the spectral
route's representation in row-major vec coordinates and the
Schrödinger-picture closed forms, the exact rational series sum, and the
scalar-loop eigenvalue table the report's array code is checked
against."""

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from qmcverify import (
    DensityOperator,
    Observable,
    ProgramScheme,
    SuperOperator,
    TerminationMeasurement,
    matrix_representation,
)
from qmcverify.linalg import (
    EPS_UNIT,
    SpectralData,
    dagger,
    max_abs,
    psd_split,
    require_square,
    spectral_decompose,
)
from qmcverify.program import DEFAULT_N_MAX, DEFAULT_TAIL_TOL, _series_pass
from qmcverify.spectral import UNIT_OVERLAP_RTOL, _hermitian_basis
from qmcverify.termination import START_RTOL, SUPPORT_RTOL

MODELS_DIR = Path(__file__).parent.parent / "models"

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
M0_COMP = np.diag([1.0, 0.0]).astype(complex)
M1_COMP = np.diag([0.0, 1.0]).astype(complex)
P0 = Observable(np.diag([1.0, 0.0]))
IDENTITY_OBS = Observable(I2)


def vec(mat):
    """Row-major vectorization: ``vec(A)[i*d + j] = A[i, j]``, so that
    ``vdot(vec(A), vec(X)) = tr(A^dag X)``."""
    return np.asarray(mat, dtype=complex).reshape(-1)


def computational_measurement():
    return TerminationMeasurement(M0_COMP, M1_COMP)


def bitflip_channel(p):
    """Flips |0> and |1> with probability 1 - p."""
    return SuperOperator([np.sqrt(p) * I2, np.sqrt(1.0 - p) * X])


def bitflip_scheme(p):
    return ProgramScheme(bitflip_channel(p), computational_measurement())


def bitflip_step_matrix(p):
    """The step matrix of :func:`bitflip_scheme`, written out by hand."""
    m = np.zeros((4, 4))
    m[0, 3] = 1 - p
    m[3, 3] = p
    return m


def bitflip_program(p, alpha, beta):
    rho0 = DensityOperator.from_pure([alpha, beta])
    return bitflip_scheme(p).with_initial_state(rho0)


def m1_zero_program(rho0=None):
    """Everything terminates at the first step: M1 = 0."""
    meas = TerminationMeasurement(I2, np.zeros((2, 2), dtype=complex))
    scheme = ProgramScheme(SuperOperator([I2]), meas)
    if rho0 is None:
        rho0 = DensityOperator(np.diag([0.0, 1.0]))
    return scheme.with_initial_state(rho0)


def m0_zero_program(rho0=None):
    """Nothing ever terminates: M0 = 0, identity channel."""
    meas = TerminationMeasurement(np.zeros((2, 2), dtype=complex), I2)
    scheme = ProgramScheme(SuperOperator([I2]), meas)
    if rho0 is None:
        rho0 = DensityOperator(np.diag([0.5, 0.5]))
    return scheme.with_initial_state(rho0)


def xflip_scheme():
    """Pauli-X channel with the computational termination test; the step
    representation is nilpotent of index two."""
    return ProgramScheme(SuperOperator([X]), computational_measurement())


def block_unitary_scheme(theta=0.7, phi=1.1):
    """d=3 scheme whose step keeps a 2-dimensional subspace rotating
    forever: unit-modulus eigenvalues with a nontrivial projector."""
    d = 3
    u = np.eye(d, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    u[1:, 1:] = np.array([[c, -s], [s, c]]) @ np.diag([1.0, np.exp(1j * phi)])
    m1 = np.diag([0.0, 1.0, 1.0]).astype(complex)
    m0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    return ProgramScheme(SuperOperator([u]), TerminationMeasurement(m0, m1))


def counter_scheme(d):
    """Cyclic shift through the basis, halting on the last state: from
    |0> the run takes exactly d steps, and no start takes longer."""
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    m0 = np.zeros((d, d), dtype=complex)
    m0[-1, -1] = 1.0
    return ProgramScheme(SuperOperator([shift]), TerminationMeasurement(m0, np.eye(d) - m0))


def unitary_scheme(u):
    """``X -> u X u^dag`` with ``M0 = 0``: nothing halts, and every
    eigenvalue of the step is on the unit circle."""
    d = u.shape[0]
    meas = TerminationMeasurement(np.zeros((d, d), dtype=complex), np.eye(d, dtype=complex))
    return ProgramScheme(SuperOperator([u]), meas)


def hadamard_walk_scheme(n):
    """Absorbing Hadamard walk on an n-cycle, d = 2n in coin (x) vertex
    order: ``U = shift (H (x) I_n)``, where coin 0 steps to vertex v - 1
    and coin 1 to v + 1, halting on |coin 0, vertex 0>.  Odd n almost
    terminate; even n keep a never-halting subspace S, and the step has
    dim(S)^2 unit eigenvalues."""
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2)
    up = np.roll(np.eye(n), 1, axis=0)
    shift = np.kron(np.diag([1.0, 0.0]), up.T) + np.kron(np.diag([0.0, 1.0]), up)
    m0 = np.zeros((2 * n, 2 * n), dtype=complex)
    m0[0, 0] = 1.0
    u = (shift @ np.kron(h, np.eye(n))).astype(complex)
    return ProgramScheme(SuperOperator([u]), TerminationMeasurement(m0, np.eye(2 * n) - m0))


def decaying_block_program():
    """d=8, identity channel, M1 = 0.1 I_3 (+) N_5 with N_5 the nilpotent
    shift, M0 = sqrt(I - M1^dag M1), started in |0><0|.  The surviving
    state is 0.01^n |0><0|: it never vanishes exactly, yet its mass falls
    below 1e-9 at step 5, the nilpotent index of the step matrix."""
    m1 = np.zeros((8, 8), dtype=complex)
    m1[:3, :3] = 0.1 * np.eye(3)
    m1[3:, 3:] = np.eye(5, k=-1)
    # I - M1^dag M1 is diagonal, so the entrywise root is the matrix root.
    m0 = np.sqrt(np.eye(8) - m1.conj().T @ m1)
    scheme = ProgramScheme(SuperOperator([np.eye(8)]), TerminationMeasurement(m0, m1))
    rho0 = np.zeros((8, 8))
    rho0[0, 0] = 1.0
    return scheme.with_initial_state(DensityOperator(rho0))


def rotated_chain_program(q, seed=3):
    """d = 3 chain conjugated by a seeded real orthogonal ``Q``: the body
    moves |2> to |1> with probability ``q`` and |1> to |0> with
    probability 0.5, and the loop halts on |0>.  Started in |2>, it runs
    about ``1/q + 2`` steps; every entry is real, so the exact reference
    applies."""
    e = np.eye(3)
    kraus = [
        math.sqrt(1.0 - q) * np.outer(e[2], e[2]), math.sqrt(q) * np.outer(e[1], e[2]),
        math.sqrt(0.5) * np.outer(e[1], e[1]), math.sqrt(0.5) * np.outer(e[0], e[1]),
        np.outer(e[0], e[0]),
    ]
    rotation, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))

    def conj(m):
        return rotation @ m @ rotation.T

    meas = TerminationMeasurement(conj(np.diag([1.0, 0.0, 0.0])), conj(np.diag([0.0, 1.0, 1.0])))
    scheme = ProgramScheme(SuperOperator([conj(k) for k in kraus]), meas)
    return scheme.with_initial_state(DensityOperator(conj(np.diag([0.0, 0.0, 1.0]))))


def reference_termination(rep, a):
    """``(terminates_at, almost_terminates)`` of the runs started in the PSD
    ``a``, by the support search with no early stop: it takes every step
    up to ``d`` unless the support vanishes.  It cuts as
    :mod:`qmcverify.termination` does, the start's eigenvalues at
    ``START_RTOL`` and each step's singular values at ``SUPPORT_RTOL``,
    both relative to ``max(1, the largest)``."""

    def support(m, rtol):
        u, s, _ = np.linalg.svd(m, full_matrices=False)
        return u[:, s > rtol * max(1.0, s[0])]

    v = support(a, START_RTOL)
    n = 0
    while v.shape[1] and n < rep.dim:
        n += 1
        v = support(np.concatenate([k @ v for k in rep.g.kraus], axis=1), SUPPORT_RTOL)
    return (None if v.shape[1] else n), rep.unit_overlap(a)[1]


def count_calls(monkeypatch, *names):
    """Patch the named ``np.linalg`` functions to record ``(name, dtype)``
    of every call, in order."""
    calls = []
    for name in names:
        fn = getattr(np.linalg, name)

        def recording(a, _fn=fn, _name=name):
            calls.append((_name, a.dtype))
            return _fn(a)

        monkeypatch.setattr(np.linalg, name, recording)
    return calls


def oracle_fixed_point(prog, p, tol=1e-13, n_max=10_000_000):
    """Independent recomputation of the least invariant.

    Runs the monotone completion iteration from zero, written out here so
    it shares no code with the verifier it cross-checks, at 10x tighter
    tolerance and 10x more iterations than the verifier defaults.
    """
    m0, m1 = prog.meas.m0, prog.meas.m1
    base = dagger(m0) @ p.mat @ m0
    limit = np.zeros_like(base)
    for _ in range(n_max):
        nxt = base + dagger(m1) @ prog.e.apply_dual_mat(limit) @ m1
        done = float(np.max(np.abs(nxt - limit))) < tol
        limit = nxt
        if done:
            break
    q = prog.e.apply_dual_mat(limit)
    return Observable((q + dagger(q)) / 2)


# Lemma diagnostics.  Each checks one identity of the paper on a built
# object; none is part of a verification route.

# Absolute slack of power_norm_bound_check's bound.
POWER_NORM_SLACK = 1e-9


def halting_matrix(m0):
    """``N0``, the d^2 x d^2 matrix of ``E0 = SuperOperator([M0])``: bit
    for bit ``matrix_representation(meas.e0)`` of a measurement with this
    ``M0``."""
    return matrix_representation(SuperOperator([m0]))


def filtered_power_residual(rep, n):
    """||N0 M^n - N0 N^n||_max in vec coordinates; zero in exact
    arithmetic for all n >= 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    n0 = halting_matrix(rep.m0)
    pm = np.linalg.matrix_power(matrix_representation(rep.g), n)
    pn = np.linalg.matrix_power(vec_matrix(rep.n_filtered), n)
    return max_abs(n0 @ pm - n0 @ pn)


def power_norm_bound_check(rep, alpha, n):
    """Whether ``||M^n alpha|| <= 4 sqrt(d) ||alpha||`` (with
    :data:`POWER_NORM_SLACK`), for ``alpha`` in vec coordinates."""
    a = np.asarray(alpha, dtype=complex).reshape(-1)
    m = matrix_representation(rep.g)
    v = a
    for _ in range(n):
        v = m @ v
    bound = 4.0 * math.sqrt(rep.dim) * float(np.linalg.norm(a)) + POWER_NORM_SLACK
    return bool(np.linalg.norm(v) <= bound)


def completion_expansion_residual(prog, p, cert, n):
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


def check_recursion(prog, rho, tail_tol=DEFAULT_TAIL_TOL, n_max=DEFAULT_N_MAX):
    """Self-consistency residual ||F(rho) - E0(rho) - F(G(rho))||_max,
    with F evaluated by series summation on both sides."""
    lhs = _series_pass(prog, rho.mat, tail_tol, n_max).acc
    g_rho = prog.g.apply_mat(rho.mat)
    tail = _series_pass(prog, g_rho, tail_tol, n_max).acc
    rhs = prog.meas.e0.apply_mat(rho.mat) + tail
    return max_abs(lhs - rhs)


def choi_matrix(e):
    """Choi matrix, obtained by reshuffling the matrix representation.

    Positive semidefiniteness is automatic for maps given in Kraus form;
    this is a diagnostic tying the representation back to complete
    positivity.
    """
    d = e.dim
    rep = matrix_representation(e)
    return rep.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def positive_part_decompose(a):
    """Split an arbitrary square matrix as ``A = B1 - B2 + i B3 - i B4``
    with all four parts PSD, B1/B2 (and B3/B4) having orthogonal supports,
    and ``tr(Bj^2) <= tr(A^dag A)``."""
    arr = require_square(a)
    herm = (arr + dagger(arr)) / 2
    anti = -1j * (arr - dagger(arr)) / 2
    b1, b2 = psd_split(herm)
    b3, b4 = psd_split(anti)
    return b1, b2, b3, b4


# The representation in row-major vec coordinates: one complex
# eigendecomposition of M = matrix_representation(g).  The package keeps
# the unitarily similar real R = T M T^dag instead; this is the reference
# it is checked against.


def hermitian_basis_reference(m):
    """The complex ``T m T^dag`` for a d^2 x d^2 ``m`` by whole-matrix
    products."""
    swap, alpha, beta = _hermitian_basis(math.isqrt(m.shape[0]))
    rows = alpha[:, None] * m + beta[:, None] * m[swap]
    return rows * alpha.conj() + rows[:, swap] * beta.conj()


def real_coordinates_reference(m):
    """The real part of :func:`hermitian_basis_reference`: the formula
    whose bits :func:`qmcverify.spectral._step_coordinates` reproduces
    slab by slab."""
    return np.ascontiguousarray(hermitian_basis_reference(m).real)


def vec_coordinates(c):
    """``T^dag c``: columns of Hermitian-basis coordinates in row-major
    vec coordinates."""
    swap, alpha, beta = _hermitian_basis(math.isqrt(c.shape[0]))
    return alpha.conj()[:, None] * c + beta[swap].conj()[:, None] * c[swap]


def vec_matrix(c):
    """``T^dag c T``: a Hermitian-basis d^2 x d^2 matrix in vec
    coordinates."""
    return vec_coordinates(vec_coordinates(c.conj().T).conj().T)


@dataclass(frozen=True, eq=False)
class VecRepresentation:
    """The fields of a ``ProgramRepresentation`` in vec coordinates, with
    the complex step matrix ``m``; the termination checks run on it as
    they are."""

    dim: int
    m0: np.ndarray
    g: SuperOperator
    m: np.ndarray
    spectral: SpectralData
    unit_projector: np.ndarray
    n_filtered: np.ndarray
    margin: float

    def unit_overlap(self, a):
        x = vec(a)
        overlap = float(np.linalg.norm(self.unit_projector @ x))
        return overlap, overlap <= UNIT_OVERLAP_RTOL * float(np.linalg.norm(x))


def vec_reference(scheme, eps_unit=EPS_UNIT):
    m = matrix_representation(scheme.g)
    sd = spectral_decompose(m, eps_unit)
    p_u = sd.unit_projector()
    nonunit = np.abs(sd.eigenvalues[~sd.unit_circle_flags])
    return VecRepresentation(
        dim=scheme.dim,
        m0=scheme.meas.m0,
        g=scheme.g,
        m=m,
        spectral=sd,
        unit_projector=p_u,
        n_filtered=m - m @ p_u,
        margin=float(1.0 - nonunit.max()) if nonunit.size else 1.0,
    )


def vec_closed_form(ref, rho0, p):
    """``vdot(vec(E0*(P)), (I - N)^-1 vec(rho0))``, complex."""
    y = np.linalg.solve(np.eye(ref.dim**2) - ref.n_filtered, vec(rho0.mat))
    return complex(np.vdot(vec(dagger(ref.m0) @ p.mat @ ref.m0), y))


def vec_running_time(ref, rho0):
    """``vdot(vec(E0*(I)), (I - N)^-2 vec(rho0))``, complex; ``inf`` when
    ``rho0`` overlaps the unit-circle eigenspace."""
    if not ref.unit_overlap(rho0.mat)[1]:
        return math.inf
    resolvent = np.eye(ref.dim**2) - ref.n_filtered
    y = np.linalg.solve(resolvent, np.linalg.solve(resolvent, vec(rho0.mat)))
    return complex(np.vdot(vec(dagger(ref.m0) @ ref.m0), y))


# The spectral closed forms in the Schrödinger picture, on d^2 x d^2
# operators in vec coordinates: |Phi> = sum_j |jj>, (A (x) I)|Phi> =
# vec(A) and N0 the matrix of E0; ``rep`` is a :class:`VecRepresentation`.
# The package evaluates the same numbers as tr(E0*(P) X) on Hermitian-basis
# coordinates.


def schrodinger_closed_form(rep, n0, rho0, p):
    """``<Phi| (P (x) I) N0 (I - N)^-1 (rho0 (x) I) |Phi>``, complex."""
    d = rep.dim
    phi = np.eye(d, dtype=complex).reshape(-1)
    x = np.kron(rho0.mat, np.eye(d)) @ phi
    y = np.linalg.solve(np.eye(rep.dim**2) - rep.n_filtered, x)
    return complex(phi.conj() @ (np.kron(p.mat, np.eye(d)) @ (n0 @ y)))


def schrodinger_running_time(rep, n0, rho0):
    """``<Phi| N0 (I - N)^-2 (rho0 (x) I) |Phi>``, complex."""
    d = rep.dim
    phi = np.eye(d, dtype=complex).reshape(-1)
    resolvent = np.eye(rep.dim**2) - rep.n_filtered
    x = np.kron(rho0.mat, np.eye(d)) @ phi
    y = np.linalg.solve(resolvent, np.linalg.solve(resolvent, x))
    return complex(phi.conj() @ (n0 @ y))


def _exact_entries(mat):
    """The entries of a real-entry matrix as exact ``Fraction`` rows."""
    mat = np.asarray(mat)
    assert not np.any(mat.imag), "the exact reference takes real entries only"
    return [[Fraction(float(x)) for x in row] for row in mat.real]


def exact_series_sum(prog, rhs=None):
    """``X = sum_n G^n(rho0)`` in exact rational arithmetic, as ``d`` rows
    of ``Fraction``: the float entries of ``G``'s Kraus operators and
    ``rho0`` (real entries only) are taken exactly, and ``(I - M) vec(X) =
    vec(rho0)`` is solved by Gaussian elimination, ``M`` the row-major
    ``vec`` matrix of ``G``.  ``rhs``, ``d`` rows of ``Fraction``, takes
    the place of ``rho0`` when given.  A singular ``I - M`` (``G`` with
    the eigenvalue 1) raises ``ZeroDivisionError``."""
    d = prog.dim
    n = d * d
    kraus = [_exact_entries(k) for k in prog.g.kraus]
    rho = _exact_entries(prog.rho0.mat) if rhs is None else rhs
    # [I - M | vec(rho0)], with M[i*d + j, a*d + b] = sum_k K[i][a] K[j][b]
    # for real K.
    rows = [
        [int(r == c) - sum(k[r // d][c // d] * k[r % d][c % d] for k in kraus)
         for c in range(n)] + [rho[r // d][r % d]]
        for r in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col]), None)
        if pivot is None:
            raise ZeroDivisionError(
                f"I - M is singular (column {col} has no pivot): G has the "
                "eigenvalue 1, so the series has no unique exact solve"
            )
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col] / rows[col][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return [[rows[r][n] / rows[r][r] for r in range(i * d, i * d + d)] for i in range(d)]


def _exact_halting_trace(prog, p, x):
    """``tr(P M0 X M0^T)`` for real ``M0`` and ``P`` taken exactly and
    ``X`` given as ``d`` rows of ``Fraction``."""
    d = prog.dim
    m0, pm = _exact_entries(prog.meas.m0), _exact_entries(p)
    # tr(P M0 X M0^T) = sum P[a][b] M0[b][i] X[i][j] M0[a][j]
    return sum(
        pm[a][b] * m0[b][i] * x[i][j] * m0[a][j]
        for a in range(d) for b in range(d) for i in range(d) for j in range(d)
    )


def exact_expectation(prog, p):
    """The whole series ``sum_n tr(P E0(G^n(rho0)))`` in exact rational
    arithmetic: ``tr(P M0 X M0^dag)`` for the ``X`` of
    :func:`exact_series_sum`, with the float entries of ``M0`` and ``P``
    (real entries only) taken exactly, as a ``Fraction``."""
    return _exact_halting_trace(prog, p.mat, exact_series_sum(prog))


def exact_running_time(prog):
    """The average running time ``sum_n (n + 1) tr E0(G^n(rho0))`` of an
    almost-terminating program in exact rational arithmetic, as a
    ``Fraction``: ``tr E0(Z)`` with ``Z = sum_n (n + 1) G^n(rho0)``, which
    solves ``Z - G(Z) = X`` for the ``X`` of :func:`exact_series_sum`.
    It equals ``tr X`` only when ``G + E0`` keeps the trace exactly, which
    rounded Kraus entries need not."""
    z = exact_series_sum(prog, exact_series_sum(prog))
    return _exact_halting_trace(prog, np.eye(prog.dim), z)


def eigenvalue_table_reference(spectral) -> list[dict]:
    """``report.eigenvalue_table`` as a scalar loop: one Python sort key
    per eigenvalue, and each modulus the scalar ``abs`` of a complex128."""
    rows = sorted(
        zip(spectral.eigenvalues, spectral.unit_circle_flags),
        key=lambda row: (-abs(row[0]), -row[0].real, -row[0].imag),
    )
    return [
        {
            "re": float(z.real),
            "im": float(z.imag),
            "modulus": float(abs(z)),
            "unit_circle": bool(unit),
        }
        for z, unit in rows
    ]
