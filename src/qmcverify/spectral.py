"""Closed-form verification through matrix representations.

The survival step ``G`` maps Hermitian operators to Hermitian operators,
so in the orthonormal Hermitian basis ``E_ii``, ``(E_ij + E_ji)/sqrt2``
and ``i(E_ij - E_ji)/sqrt2`` (``i < j``) its matrix ``R = T M T^dag`` is
real, with ``M`` from :func:`qmcverify.channels.matrix_representation`.
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
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import DensityOperator, Observable, SuperOperator, matrix_representation
from .errors import RepresentationError, SingularResolventError
from .linalg import (
    EPS_UNIT,
    TOL_PROJ,
    SpectralData,
    dagger,
    max_abs,
    spectral_decompose,
)
from .program import ProgramScheme

# An operator has no unit-circle component when ||P_u x|| is at most this
# many times ||x||, for x its coordinates.
UNIT_OVERLAP_RTOL = 1e-9
# Largest imaginary part, relative to max(1, ||C||_max), that the
# Hermitian-basis coordinates C of the step matrix or of its unit-circle
# projector may carry.  Rounding leaves a few ulps; a step that does not
# preserve Hermiticity leaves O(||C||).
HERMITIAN_COORD_TOL = 1e-12


def vec(mat: np.ndarray) -> np.ndarray:
    """Row-major vectorization: ``vec(A)[i*d + j] = A[i, j]``, so that
    ``vdot(vec(A), vec(X)) = tr(A^dag X)``."""
    return np.asarray(mat, dtype=complex).reshape(-1)


@dataclass(frozen=True, eq=False)
class ProgramRepresentation:
    """Hermitian-basis data of a program scheme: ``spectral`` decomposes
    ``R``, and ``unit_projector`` and ``n_filtered`` are float64.

    ``g`` is the survival step, which the termination checks apply on
    d x d matrices, and ``m0`` the d x d halting operator ``M0``, from
    which the closed forms read ``E0*``.  ``margin`` is the gap ``1 -
    max{|lambda| : lambda below the unit circle}``; it quantifies the
    conditioning of the ``I - N`` solves.
    """

    dim: int
    dim2: int
    m0: np.ndarray
    g: SuperOperator
    spectral: SpectralData
    unit_projector: np.ndarray
    n_filtered: np.ndarray
    margin: float

    def has_unit_spectrum(self) -> bool:
        return bool(np.any(self.spectral.unit_circle_flags))

    def unit_overlap(self, a: np.ndarray) -> tuple[float, bool]:
        """``||P_u x||`` for ``x = coordinates(a)``, and whether it is
        negligible: at most :data:`UNIT_OVERLAP_RTOL` times ``||x||``.
        For a non-Hermitian ``a`` this reads its Hermitian part."""
        x = coordinates(a)
        overlap = float(np.linalg.norm(self.unit_projector @ x))
        return overlap, overlap <= UNIT_OVERLAP_RTOL * float(np.linalg.norm(x))


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


def _checked_real(c: np.ndarray, what: str) -> np.ndarray:
    """The Hermitian-basis array ``c`` as float64.

    Raises
    ------
    RepresentationError
        If ``c`` has an imaginary part above :data:`HERMITIAN_COORD_TOL`
        times ``max(1, ||c||_max)``: the operator it stands for does not
        preserve Hermiticity.
    """
    defect = max_abs(c.imag)
    if defect > HERMITIAN_COORD_TOL * max(1.0, max_abs(c)):
        raise RepresentationError(
            f"{what} has Hermitian-basis coordinates with imaginary part "
            f"{defect:.3e}; it does not preserve Hermiticity"
        )
    return np.ascontiguousarray(c.real)


def _real_coordinates(m: np.ndarray) -> np.ndarray:
    """``R = T m T^dag`` through :func:`_checked_real`, for a d^2 x d^2
    ``m`` that preserves Hermiticity."""
    swap, alpha, beta = _hermitian_basis(math.isqrt(m.shape[0]))
    rows = alpha[:, None] * m + beta[:, None] * m[swap]
    return _checked_real(
        rows * alpha.conj() + rows[:, swap] * beta.conj(), "step representation"
    )


def build_representation(
    scheme: ProgramScheme, eps_unit: float = EPS_UNIT
) -> ProgramRepresentation:
    """Assemble R and the unit-circle-filtered N for a scheme.

    Raises
    ------
    RepresentationError
        If the step or its unit-circle projector does not preserve
        Hermiticity, the spectral radius of R exceeds ``1 + eps_unit`` or
        a unit-modulus eigenvalue cluster is not semisimple.  Valid
        programs (trace-preserving channel, complete measurement) trigger
        none of these unless ``eps_unit`` is below the eigensolver's
        rounding error; otherwise the usual cause is corrupted model data.
    """
    d = scheme.dim
    r = _real_coordinates(matrix_representation(scheme.g))
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
        if max_abs(p_u @ p_u - p_u) > TOL_PROJ:
            raise RepresentationError(
                "unit-circle spectral projector is not idempotent "
                f"(defect {max_abs(p_u @ p_u - p_u):.3e}); a unit-modulus "
                "eigenvalue is defective, which valid programs cannot produce"
            )
        if max_abs(p_u @ r - r @ p_u) > TOL_PROJ * r_norm:
            raise RepresentationError(
                "unit-circle spectral projector does not commute with the "
                "step representation"
            )
        # Not np.unique, whose first call imports numpy.ma (about 10 ms).
        for cid in sorted(set(sd.cluster_ids[sd.unit_circle_flags].tolist())):
            idx = np.flatnonzero(sd.cluster_ids == cid)
            lam = sd.eigenvalues[idx].mean()
            p_c = sd.cluster_projector(cid)
            defect = max_abs((r - lam * np.eye(d * d)) @ p_c)
            if defect > TOL_PROJ * r_norm:
                raise RepresentationError(
                    f"unit-modulus eigenvalue cluster at {lam:.9g} is not "
                    f"semisimple (nilpotent defect {defect:.3e})"
                )
        n = r - r @ p_u
    else:
        p_u = np.zeros_like(r)
        n = r
    nonunit = np.abs(sd.eigenvalues[~sd.unit_circle_flags])
    margin = float(1.0 - nonunit.max()) if nonunit.size else 1.0

    return ProgramRepresentation(
        dim=d,
        dim2=d * d,
        m0=scheme.meas.m0,
        g=scheme.g,
        spectral=sd,
        unit_projector=p_u,
        n_filtered=n,
        margin=margin,
    )


def _resolvent_solve(rep: ProgramRepresentation, rhs: np.ndarray) -> np.ndarray:
    if rep.margin <= 0:
        raise SingularResolventError(
            f"I - N is singular (margin {rep.margin:.3e}); filtering failed"
        )
    try:
        return np.linalg.solve(np.eye(rep.dim2) - rep.n_filtered, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularResolventError(str(exc)) from exc


def _halting_functional(rep: ProgramRepresentation, p: np.ndarray) -> np.ndarray:
    """``coordinates(E0*(P))`` with ``E0*(P) = M0^dag P M0``: its dot
    product with ``coordinates(X)`` is ``tr(P E0(X))`` for every Hermitian
    ``X``."""
    return coordinates(dagger(rep.m0) @ p @ rep.m0)


def expectation_closed_form(
    rep: ProgramRepresentation, rho0: DensityOperator, p: Observable
) -> float:
    """Terminal expectation ``tr(E0*(P) X)`` with ``coordinates(X) = (I -
    N)^-1 coordinates(rho0)``, evaluated by a linear solve rather than
    explicit inversion."""
    y = _resolvent_solve(rep, coordinates(rho0.mat))
    return float(_halting_functional(rep, p.mat) @ y)


def average_running_time(rep: ProgramRepresentation, rho0: DensityOperator) -> float:
    """Average number of steps ``tr(E0*(I) X)`` with ``coordinates(X) = (I
    - N)^-2 coordinates(rho0)``.

    Returns ``inf`` when the initial state overlaps the unit-circle
    eigenspace (:meth:`ProgramRepresentation.unit_overlap`): the
    termination probability is then below one and the mean genuinely
    diverges (or the quadratic form would undercount).
    """
    if not rep.unit_overlap(rho0.mat)[1]:
        return math.inf
    y = _resolvent_solve(rep, _resolvent_solve(rep, coordinates(rho0.mat)))
    return float(_halting_functional(rep, np.eye(rep.dim)) @ y)
