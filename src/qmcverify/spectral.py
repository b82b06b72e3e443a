"""Closed-form verification through matrix representations.

The survival step ``G`` acts on vectorized operators as a d^2 x d^2 matrix
``M`` from :func:`qmcverify.channels.matrix_representation`.  Every
eigenvalue of ``M`` has modulus at most one, and unit-modulus eigenvalues
are semisimple, so removing their (rank-one, biorthogonal) spectral
components yields a strictly contracting matrix ``N``.  The halting step
``E0(X) = M0 X M0^dag`` vanishes on the unit-circle eigenspace, so
``E0 G^n = E0 N^n`` for all ``n``.  It is read in the Heisenberg
picture, ``tr(P E0(X)) = tr(E0*(P) X)`` with ``E0*(P) = M0^dag P M0``:
terminal expectations and the average running time are the d x d
functional ``X -> tr(E0*(P) X)`` applied to resolvent solves against
``vec(rho0)``, and ``E0`` is never formed as a d^2 x d^2 matrix.

``G`` maps Hermitian operators to Hermitian operators, so in the
orthonormal Hermitian basis ``E_ii``, ``(E_ij + E_ji)/sqrt2`` and
``i(E_ij - E_ji)/sqrt2`` (``i < j``) its matrix ``R = T M T^dag`` is real.
The eigensolve runs on ``R``, in real arithmetic, and its eigenvectors
are mapped back with ``T^dag``; every other array here is in row-major
``vec`` coordinates.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import DensityOperator, Observable, matrix_representation
from .errors import ConsistencyError, RepresentationError, SingularResolventError
from .linalg import (
    EPS_UNIT,
    TOL_PROJ,
    SpectralData,
    dagger,
    max_abs,
    spectral_decompose,
)
from .program import ProgramScheme

IMAG_TOL = 1e-9
# A vector has no unit-circle component when ||P_u x|| is at most this
# many times ||x||.
UNIT_OVERLAP_RTOL = 1e-9
# Largest imaginary part, relative to max(1, ||M||_max), that the real
# coordinates of the step matrix may carry.  Rounding leaves a few ulps;
# a step that does not preserve Hermiticity leaves O(||M||).
HERMITIAN_COORD_TOL = 1e-12


def vec(mat: np.ndarray) -> np.ndarray:
    """Row-major vectorization: ``vec(A)[i*d + j] = A[i, j]``, so that
    ``vdot(vec(A), vec(X)) = tr(A^dag X)``."""
    return np.asarray(mat, dtype=complex).reshape(-1)


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=complex).reshape(d, d)


@dataclass(frozen=True, eq=False)
class ProgramRepresentation:
    """Vectorized-space data of a program scheme.

    ``m0`` is the d x d halting operator ``M0``, from which the closed
    forms read ``E0*``.  ``margin`` is the gap ``1 - max{|lambda| : lambda
    below the unit circle}``; it quantifies the conditioning of the
    ``I - N`` solves.
    """

    dim: int
    dim2: int
    m0: np.ndarray
    m: np.ndarray
    spectral: SpectralData
    unit_projector: np.ndarray
    n_filtered: np.ndarray
    margin: float

    def has_unit_spectrum(self) -> bool:
        return bool(np.any(self.spectral.unit_circle_flags))

    def unit_overlap(self, x: np.ndarray) -> tuple[float, bool]:
        """``||P_u x||``, and whether it is negligible: at most
        :data:`UNIT_OVERLAP_RTOL` times ``||x||``."""
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


def _real_coordinates(m: np.ndarray) -> np.ndarray:
    """``R = T m T^dag`` as a float64 array, for a d^2 x d^2 ``m`` that
    preserves Hermiticity.

    Raises
    ------
    RepresentationError
        If ``R`` has an imaginary part above :data:`HERMITIAN_COORD_TOL`
        times ``max(1, ||m||_max)``: ``m`` does not map Hermitian
        operators to Hermitian operators.
    """
    swap, alpha, beta = _hermitian_basis(math.isqrt(m.shape[0]))
    rows = alpha[:, None] * m + beta[:, None] * m[swap]
    r = rows * alpha.conj() + rows[:, swap] * beta.conj()
    defect = max_abs(r.imag)
    if defect > HERMITIAN_COORD_TOL * max(1.0, max_abs(m)):
        raise RepresentationError(
            "step representation has Hermitian-basis coordinates with "
            f"imaginary part {defect:.3e}; it does not preserve Hermiticity"
        )
    return np.ascontiguousarray(r.real)


def _vec_coordinates(c: np.ndarray) -> np.ndarray:
    """``T^dag c``: columns of Hermitian-basis coordinates back to row-major
    ``vec`` coordinates."""
    swap, alpha, beta = _hermitian_basis(math.isqrt(c.shape[0]))
    return alpha.conj()[:, None] * c + beta[swap].conj()[:, None] * c[swap]


def build_representation(
    scheme: ProgramScheme, eps_unit: float = EPS_UNIT
) -> ProgramRepresentation:
    """Assemble M and the unit-circle-filtered N for a scheme.

    Raises
    ------
    RepresentationError
        If the spectral radius of M exceeds ``1 + eps_unit`` or a
        unit-modulus eigenvalue cluster is not semisimple.  Valid programs
        (trace-preserving channel, complete measurement) cannot trigger
        either; the usual cause is corrupted model data.
    """
    d = scheme.dim
    m = matrix_representation(scheme.g)

    sd = spectral_decompose(_real_coordinates(m), eps_unit)
    sd = dataclasses.replace(
        sd,
        matrix=m,
        right_vectors=_vec_coordinates(sd.right_vectors),
        # Left vectors are all zero unless some eigenvalue is on the unit
        # circle, and zero in every coordinate system.
        left_vectors=(
            _vec_coordinates(sd.left_vectors)
            if sd.unit_circle_flags.any() else sd.left_vectors
        ),
    )
    radius = sd.spectral_radius()
    if radius > 1.0 + eps_unit:
        raise RepresentationError(
            f"step representation has spectral radius {radius:.12g} > 1; "
            "the channel is not trace-nonincreasing on the survival branch"
        )

    m_norm = max(1.0, sd.norm)
    p_u = sd.unit_projector()
    has_unit = bool(np.any(sd.unit_circle_flags))
    if has_unit:
        if max_abs(p_u @ p_u - p_u) > TOL_PROJ:
            raise RepresentationError(
                "unit-circle spectral projector is not idempotent "
                f"(defect {max_abs(p_u @ p_u - p_u):.3e}); a unit-modulus "
                "eigenvalue is defective, which valid programs cannot produce"
            )
        if max_abs(p_u @ m - m @ p_u) > TOL_PROJ * m_norm:
            raise RepresentationError(
                "unit-circle spectral projector does not commute with the "
                "step representation"
            )
        # Not np.unique, whose first call imports numpy.ma (about 10 ms).
        for cid in sorted(set(sd.cluster_ids[sd.unit_circle_flags].tolist())):
            idx = np.flatnonzero(sd.cluster_ids == cid)
            lam = sd.eigenvalues[idx].mean()
            p_c = sd.cluster_projector(cid)
            defect = max_abs((m - lam * np.eye(d * d)) @ p_c)
            if defect > TOL_PROJ * m_norm:
                raise RepresentationError(
                    f"unit-modulus eigenvalue cluster at {lam:.9g} is not "
                    f"semisimple (nilpotent defect {defect:.3e})"
                )

    # Without unit spectrum p_u is zero, and m - m @ p_u would be m.
    n = m - m @ p_u if has_unit else m.copy()
    nonunit = np.abs(sd.eigenvalues[~sd.unit_circle_flags])
    margin = float(1.0 - nonunit.max()) if nonunit.size else 1.0

    return ProgramRepresentation(
        dim=d,
        dim2=d * d,
        m0=scheme.meas.m0,
        m=m,
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


def _real_part(value: complex, what: str) -> float:
    if abs(value.imag) > IMAG_TOL * max(1.0, abs(value)):
        raise ConsistencyError(
            f"{what} came out with imaginary part {value.imag:.3e}"
        )
    return float(value.real)


def _halting_functional(rep: ProgramRepresentation, p: np.ndarray) -> np.ndarray:
    """``vec(E0*(P))`` with ``E0*(P) = M0^dag P M0``: ``vdot`` of it with
    ``vec(X)`` is ``tr(P E0(X))`` for every ``X``."""
    return vec(dagger(rep.m0) @ p @ rep.m0)


def expectation_closed_form(
    rep: ProgramRepresentation, rho0: DensityOperator, p: Observable
) -> float:
    """Terminal expectation ``tr(E0*(P) X)`` with ``vec(X) = (I - N)^-1
    vec(rho0)``, evaluated by a linear solve rather than explicit
    inversion."""
    y = _resolvent_solve(rep, vec(rho0.mat))
    a = _halting_functional(rep, p.mat)
    return _real_part(complex(np.vdot(a, y)), "closed-form expectation")


def average_running_time(rep: ProgramRepresentation, rho0: DensityOperator) -> float:
    """Average number of steps ``tr(E0*(I) X)`` with ``vec(X) = (I - N)^-2
    vec(rho0)``.

    Returns ``inf`` when the initial state overlaps the unit-circle
    eigenspace (:meth:`ProgramRepresentation.unit_overlap`): the
    termination probability is then below one and the mean genuinely
    diverges (or the quadratic form would undercount).
    """
    x = vec(rho0.mat)
    if not rep.unit_overlap(x)[1]:
        return math.inf
    y = _resolvent_solve(rep, _resolvent_solve(rep, x))
    a = _halting_functional(rep, np.eye(rep.dim))
    return _real_part(complex(np.vdot(a, y)), "average running time")
