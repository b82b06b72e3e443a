"""Dense linear algebra used throughout the toolkit.

Everything here operates on plain ``numpy`` arrays of ``complex128``,
except that :func:`spectral_decompose` takes a real matrix as
``float64``, so that it gets a real eigensolve; its eigendata come back
``complex128`` either way.  That function is the one nontrivial piece.
``spectrum`` always runs it; ``verify``, ``runtime`` and ``terminate``
run it only when :func:`qmcverify.spectral.no_unit_certificate` does not
prove that the step has no unit spectrum.  It computes all eigenvalues,
checked as a whole by their power sums against ``tr A`` and ``tr A^2``
(O(n^2)), and eigenvectors only for the eigenvalues on the unit circle,
the one place the spectral route needs a basis: there it eigensolves
the matrix and its adjoint, keeps each
side's columns for the unit clusters, and biorthonormalizes the dual
ones inside each cluster, so that the unit-modulus spectral projector is
``right @ left.conj().T`` without ever touching a Jordan basis.  The
tolerance scale is the RMS singular value ``||A||_F / sqrt(n)``, which
costs O(n^2), not an SVD.
``scipy.linalg.eig(left=True)`` would give both sides from one call, but
importing ``scipy.linalg`` adds about 0.3 s to every CLI start, so numpy
stays the only dependency.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EigensolverError, ValidationError

# Default numerical thresholds.  All are far above double-precision noise
# for the dimensions this toolkit is run at: the benchmark goes up to
# d = 18, so step matrices up to d^2 = 324, whose eigenpair residuals
# and power-sum gaps measured about 1e-15 on random programs.  TOL_EIG
# and TOL_PROJ scale with max(1, SpectralData.norm), the RMS singular
# value ||A||_F / sqrt(n); it never exceeds ||A||_2, so the scaled
# bounds are never looser than with the spectral norm.
TOL_HERM = 1e-9
TOL_EIG = 1e-8
EPS_UNIT = 1e-7
TOL_PROJ = 1e-6
TOL_NUM = 1e-9
TOL_TP = 1e-9
CLUSTER_REL_TOL = 1e-6


def _as_matrix(a, name: str, dtype) -> np.ndarray:
    arr = np.asarray(a, dtype=dtype)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return arr


def require_square(a, name="matrix", dtype=complex) -> np.ndarray:
    """Coerce to a square 2-D array of ``dtype`` and reject non-finite
    entries."""
    arr = _as_matrix(a, name, dtype)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {arr.shape}")
    return arr


# The bounds of each model option, as keyword arguments of
# :func:`require_number`.  At ``eps_unit`` >= 1 the unit-circle window
# ``||lambda| - 1| <= eps_unit`` holds 0, so every eigenvalue would be
# flagged.
OPTION_RULES = {
    "tail_tol": {"low": 0, "strict": True},
    "n_max": {"low": 1, "whole": True},
    "eps_unit": {"low": 0, "below": 1},
    "tol": {"low": 0},
}


def require_number(value, name: str, low, *, strict=False, below=None, whole=False):
    """``value`` as an int if ``whole``, else as a float, once it is a
    finite real number (a bool, which JSON's ``true`` loads as, is not)
    ``>= low`` (``> low`` if ``strict``), ``< below`` if given and whole if
    ``whole``; else :class:`ValidationError` naming ``name``."""
    try:
        ok = (
            isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value)  # OverflowError: an int too large for a float
            and (value > low if strict else value >= low)
            and (below is None or value < below)
            and (not whole or value == int(value))
        )
    except OverflowError:
        ok = False
    if not ok:
        kind, rel = "an integer" if whole else "a finite number", ">" if strict else ">="
        upper = "" if below is None else f" and < {below}"
        raise ValidationError(f"{name} must be {kind} {rel} {low}{upper}, got {value!r}")
    return int(value) if whole else float(value)


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm ||A||_max."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def modulus(z: np.ndarray) -> np.ndarray:
    """``|z|`` entrywise as ``np.hypot(z.real, z.imag)``, bit for bit the
    scalar ``abs`` of each entry.  The vectorized ``np.abs`` of a complex
    array is not: where numpy runs it in SIMD loops it differs in the
    last bit on about a third of random values.  Every eigenvalue modulus
    that decides a flag, a radius or a margin, or that a report prints,
    is this one."""
    return np.hypot(z.real, z.imag)


def herm_defect(a: np.ndarray) -> float:
    """||A - A^dag||_max, zero for Hermitian A."""
    return max_abs(a - dagger(a))


def is_positive_semidefinite(a, tol: float = TOL_NUM) -> bool:
    """Whether ``a`` is Hermitian (within :data:`TOL_HERM`) with minimum
    eigenvalue >= ``-tol * max(1, ||a||)``.

    Raises
    ------
    DimensionMismatchError
        If ``a`` is not square.
    """
    arr = require_square(a)
    return bool(psd_flags(arr[None], tol)[0])


def psd_flags(stack: np.ndarray, tol: float = TOL_NUM) -> np.ndarray:
    """The decision of :func:`is_positive_semidefinite` for each matrix of
    a ``(n, d, d)`` stack, as a boolean array; a matrix with a NaN or Inf
    entry is not positive semidefinite.

    One ``isfinite``, one Hermitian-defect max per matrix and one stacked
    ``eigvalsh`` of the symmetrized stack, which gives each matrix the
    bits of its own call.  Each scale ``max(1, ||a||)`` is read from the
    two ends ``lo <= hi`` of the matrix's ascending eigenvalues:
    ``max |w| = max(-lo, hi)``."""
    if not stack.shape[-1]:
        return np.ones(len(stack), dtype=bool)
    if not np.isfinite(stack).all():
        finite = np.isfinite(stack).all(axis=(1, 2))
        return finite & psd_flags(np.where(finite[:, None, None], stack, 0.0), tol)
    adj = stack.conj().swapaxes(1, 2)
    ok = np.abs(stack - adj).max(axis=(1, 2)) <= TOL_HERM
    w = np.linalg.eigvalsh((stack + adj) / 2)
    lo = w[:, 0]
    return ok & (lo >= -tol * np.maximum(np.maximum(-lo, w[:, -1]), 1.0))


def psd_split(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a Hermitian matrix into positive and negative parts with
    orthogonal supports: ``h = pos - neg``, both PSD."""
    w, v = np.linalg.eigh((h + dagger(h)) / 2)
    pos = (v * np.maximum(w, 0.0)) @ dagger(v)
    neg = (v * np.maximum(-w, 0.0)) @ dagger(v)
    return pos, neg


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigendata of a (generally non-normal) square matrix.

    ``eigenvalues`` are ``np.linalg.eigvals``'s, complex128 even when the
    matrix is real, and ``unit_circle_flags`` marks those within
    ``eps_unit`` of the unit circle.  The ``k`` flagged eigenvalues, in
    the order of ``np.flatnonzero(unit_circle_flags)``, are the only ones
    clustered: ``cluster_ids`` holds one id per flag, and
    ``right_vectors`` and ``left_vectors`` are complex128 ``(n, k)``
    arrays with one column per flag, ``n`` the matrix's order.  The
    columns of a unit cluster (:meth:`unit_clusters`) span its right
    and its dual eigenspace; within a unit cluster whose Gram matrix is
    nonsingular -- those of valid step representations always are -- the
    left columns are rescaled so that ``left[:, i].conj().T @ right[:, j]
    = delta_ij`` inside the cluster.  So each unit cluster's spectral
    projector is ``r_c l_c^dag`` over its columns.

    ``matrix`` is the matrix whose eigendata these are, as passed in
    (``spectral.build_representation`` passes the real Hermitian-basis
    step matrix, and the vectors stay in its coordinates), and ``norm``
    its RMS singular value ``||A||_F / sqrt(n)``: a unitarily invariant
    norm, never above ``||A||_2``, and O(n^2) to compute.
    ``zero_nilpotent_index_bound`` is an upper bound on the largest
    Jordan block size at eigenvalue zero (rank stabilization of powers);
    it costs one SVD per power and is computed on first read only.
    """

    matrix: np.ndarray
    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    left_vectors: np.ndarray
    cluster_ids: np.ndarray
    unit_circle_flags: np.ndarray
    norm: float

    @functools.cached_property
    def zero_nilpotent_index_bound(self) -> int:
        return _nilpotent_index_bound(self.matrix)

    def spectral_radius(self) -> float:
        return float(np.max(modulus(self.eigenvalues))) if self.eigenvalues.size else 0.0

    def gap(self) -> float:
        """``1 - max |lambda|`` over the eigenvalues not flagged
        unit-circle; 1 when every eigenvalue is flagged."""
        nonunit = modulus(self.eigenvalues[~self.unit_circle_flags])
        return float(1.0 - nonunit.max()) if nonunit.size else 1.0

    def unit_clusters(self) -> list[np.ndarray]:
        """The column positions in the vector arrays of each unit
        cluster, in order of cluster id."""
        ids = self.cluster_ids
        return [np.flatnonzero(ids == cid) for cid in range(ids.max(initial=-1) + 1)]

    def unit_projector(self) -> np.ndarray:
        """Spectral projector onto the span of unit-modulus eigenvalue
        clusters (the zero matrix when there are none)."""
        return self.right_vectors @ dagger(self.left_vectors)


def _cluster_eigenvalues(evals: np.ndarray, threshold: float) -> np.ndarray:
    """Group eigenvalues into connected components under
    |lambda_i - lambda_j| <= threshold, numbered 0, 1, ... in order of
    their first index.

    One n x n comparison gives the graph; each round replaces every label
    by the least label among its neighbours and then jumps pointers
    (``label <- label[label]``) to a fixed point, so every label ends at
    the least index of its component.  O(n^2) per round; ``n`` is the
    number of unit flags.
    """
    n = evals.size
    near = modulus(evals[:, None] - evals[None, :]) <= threshold
    labels = np.arange(n)
    while True:
        new = np.where(near, labels[None, :], n).min(axis=1, initial=n)
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, labels):
            break
        labels = new
    # Not np.unique, whose first call imports numpy.ma (about 10 ms).
    first = np.cumsum(labels == np.arange(n)) - 1
    return first[labels]


def _nilpotent_index_bound(a: np.ndarray) -> int:
    """Smallest k with rank(a^k) == rank(a^(k+1)), capped at dim."""
    n = a.shape[0]
    prev_rank = n
    power = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        power = power @ a
        rank = int(np.linalg.matrix_rank(power))
        if rank == prev_rank:
            return k - 1
        prev_rank = rank
    return n


def _check_power_sums(arr: np.ndarray, evals: np.ndarray, norm: float, tol: float) -> None:
    """Check a whole computed spectrum against the matrix without
    eigenvectors: ``sum(lambda) = tr A`` within ``tol`` and
    ``sum(lambda^2) = tr A^2 = sum_ij A_ij A_ji`` within
    ``tol * max(1, norm)``, after the exact conjugate pairing of a real
    matrix's complex eigenvalues.  O(n^2).

    Why these bounds.  ``dgeev`` is backward stable: its eigenvalues are
    read off the diagonal (1x1 and 2x2 blocks) of a Schur form ``T``
    unitarily similar to ``A + E``, with ``||E||_F <= c(n) u ||A||_F``,
    ``u`` the unit roundoff and ``c(n)`` a modest polynomial (Golub & Van
    Loan, *Matrix Computations*, §7.5).  So ``sum(lambda) = tr T =
    tr A + tr E`` and ``sum(lambda^2) = tr T^2 = tr A^2 + 2 tr(A E) +
    tr E^2``, however ill-conditioned the single eigenvalues are (a
    defective zero cluster scatters them by about ``u^(1/k)`` and keeps
    both sums).  With ``||A||_F = sqrt(n) norm`` the two gaps are at most
    ``c(n) u n norm`` and, to first order, ``2 c(n) u n norm^2``; summing
    ``n`` eigenvalues and ``n^2`` products in floating point adds
    ``O(u log(n) n norm^k)``.  At ``n = 324`` (d = 18) and ``c(n) = n``
    that is below ``3e-11 max(1, norm)^k``, over 300 times below
    ``TOL_EIG max(1, norm)^k``: the margin ``TOL_EIG`` keeps over the
    ~1e-15 eigenpair residuals.  One eigenvalue moved by ``delta`` moves
    the first sum by ``delta`` and is refused once ``delta > tol``; the
    residual ``delta ||v||_inf`` of its unit-norm eigenvector needs at
    least as much.  An eigenvalue dropped for a duplicate of another, or
    two distinct eigenvalues moved in opposite directions, which each
    eigenpair's residual can miss, move one of the two sums.
    """
    n = arr.shape[0]
    # LAPACK returns real eigenvalues as float64 when all of them are real,
    # and a complex pair as the head with imag(lambda) > 0 and then its
    # exact conjugate.
    if np.isrealobj(arr) and np.iscomplexobj(evals):
        tail = np.flatnonzero(evals.imag < 0)
        if (
            np.count_nonzero(evals.imag > 0) != tail.size
            or (tail.size > 0 and tail[0] == 0)
            or not np.array_equal(evals[tail], evals[tail - 1].conj())
        ):
            raise EigensolverError(
                n, norm, "an eigenvalue with imag(lambda) < 0 is not the exact "
                "conjugate of the eigenvalue before it"
            )
    gap1 = abs(evals.sum() - arr.trace())
    if gap1 > tol:
        raise EigensolverError(n, norm, f"power sum sum(lambda) off tr A by {gap1:.3e}")
    gap2 = abs(evals @ evals - np.einsum("ij,ji->", arr, arr))
    if gap2 > tol * max(1.0, norm):
        raise EigensolverError(n, norm, f"power sum sum(lambda^2) off tr A^2 by {gap2:.3e}")


def _unit_flags(evals: np.ndarray, eps_unit: float) -> np.ndarray:
    return np.abs(modulus(evals) - 1.0) <= eps_unit


def _lapack(solve, arr: np.ndarray, norm: float):
    """``solve(arr)``, with a LAPACK failure to converge or a non-finite
    entry in any returned array raised as :class:`EigensolverError`.  A
    NaN would pass every ``gap > tol`` check downstream."""
    try:
        out = solve(arr)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(arr.shape[0], norm, str(exc)) from exc
    if not all(np.isfinite(x).all() for x in (out if isinstance(out, tuple) else (out,))):
        raise EigensolverError(arr.shape[0], norm, "non-finite output")
    return out


def _unit_vectors(
    mat: np.ndarray,
    targets: np.ndarray,
    groups: list[np.ndarray],
    threshold: float,
    eps_unit: float,
    norm: float,
    tol: float,
    side: str,
) -> np.ndarray:
    """The ``n x k`` eigenvectors of ``mat`` for the ``k`` unit-circle
    ``targets``, whose clusters are ``groups`` (positions into
    ``targets``).

    One ``np.linalg.eig(mat)``.  A group gets the eigenvectors whose
    eigenvalue is unit-circle itself and within ``threshold`` of one of
    the group's targets, exactly as many as it has targets, in the
    group's columns; all of them are residual-checked in one product.
    """
    n = mat.shape[0]
    mu, vecs = _lapack(np.linalg.eig, mat, norm)
    candidate = _unit_flags(mu, eps_unit)
    out = np.empty((n, targets.size), dtype=complex)
    lam = np.empty(targets.size, dtype=complex)
    for cols in groups:
        near = modulus(mu[:, None] - targets[None, cols]).min(axis=1) <= threshold
        jdx = np.flatnonzero(candidate & near)
        if jdx.size != cols.size:
            raise EigensolverError(
                n, norm, f"{jdx.size} {side} eigenvectors for a unit-circle "
                f"cluster of {cols.size} eigenvalues"
            )
        out[:, cols] = vecs[:, jdx]
        lam[cols] = mu[jdx]
    res = max_abs(mat @ out - out * lam)
    if res > tol:
        raise EigensolverError(n, norm, f"{side} eigenpair residual {res:.3e}")
    return out


def spectral_decompose(a, eps_unit: float = EPS_UNIT) -> SpectralData:
    """Eigen-decompose ``a``: all eigenvalues, and right and dual
    eigenvectors for its unit-circle clusters only.

    ``np.linalg.eigvals`` gives the eigenvalues, checked as a whole
    spectrum by :func:`_check_power_sums`.  When one of them is within
    ``eps_unit`` of the unit circle, ``np.linalg.eig`` runs on ``a`` and
    on its adjoint, and :func:`_unit_vectors` keeps each side's columns
    for the unit clusters.

    Parameters
    ----------
    a : array_like
        Square matrix.  A real one is eigensolved and checked as it is,
        in real arithmetic; anything else as complex128.
    eps_unit : float
        An eigenvalue is flagged unit-circle when ``| |lambda| - 1 | <=
        eps_unit``; it must lie in [0, 1) (:data:`OPTION_RULES`).

    Returns
    -------
    SpectralData

    Raises
    ------
    ValidationError
        If ``a`` has a non-finite entry or ``eps_unit`` is not in [0, 1).
    EigensolverError
        If LAPACK fails to converge or returns a non-finite entry, the
        complex eigenvalues of a real matrix are not in exact conjugate
        pairs, their power sums miss ``tr A`` or ``tr A^2``, a unit-circle
        cluster does not get exactly as many right or adjoint eigenvectors
        as it has eigenvalues, or one of those eigenpairs violates the
        residual bound ``TOL_EIG * max(1, norm)``.
    """
    eps_unit = require_number(eps_unit, "option eps_unit", **OPTION_RULES["eps_unit"])
    arr = require_square(a, dtype=float if np.isrealobj(a) else complex)
    n = arr.shape[0]
    norm = float(np.linalg.norm(arr)) / math.sqrt(n) if n else 0.0
    tol = TOL_EIG * max(1.0, norm)
    evals = _lapack(np.linalg.eigvals, arr, norm)
    _check_power_sums(arr, evals, norm, tol)
    evals = evals.astype(complex, copy=False)
    unit_flags = _unit_flags(evals, eps_unit)

    radius = float(np.max(modulus(evals))) if n else 0.0
    threshold = CLUSTER_REL_TOL * max(1.0, radius)
    unit = evals[unit_flags]
    cluster_ids = _cluster_eigenvalues(unit, threshold)

    # Dual vectors are biorthonormalized inside each unit cluster where its
    # Gram matrix allows it.  A singular Gram means the cluster is
    # defective; unit-circle clusters of valid programs never are, and the
    # projector checks downstream catch the rest.
    right = left = np.zeros((n, 0), dtype=complex)
    n_clusters = cluster_ids.max(initial=-1) + 1
    groups = [np.flatnonzero(cluster_ids == cid) for cid in range(n_clusters)]
    if groups:
        args = (groups, threshold, eps_unit, norm, tol)
        right = _unit_vectors(arr, unit, *args, "right")
        left = _unit_vectors(dagger(arr), unit.conj(), *args, "left")
        for cols in groups:
            gram = dagger(left[:, cols]) @ right[:, cols]
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = np.linalg.cond(gram)
            if np.isfinite(cond) and cond < 1e10:
                left[:, cols] = left[:, cols] @ dagger(np.linalg.inv(gram))

    return SpectralData(
        matrix=arr,
        eigenvalues=evals,
        right_vectors=right,
        left_vectors=left,
        cluster_ids=cluster_ids,
        unit_circle_flags=unit_flags,
        norm=norm,
    )
