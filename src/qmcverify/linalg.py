"""Dense complex linear algebra used throughout the toolkit.

Everything here operates on plain ``numpy`` arrays of ``complex128``.
The one nontrivial piece is :func:`spectral_decompose`.  It eigensolves
the matrix once, and the adjoint only when some eigenvalue lies on the
unit circle: dual eigenvectors are needed only there, biorthonormalized
inside each unit cluster so that the unit-modulus spectral projector is
``sum(right @ left.conj().T)`` without ever touching a Jordan basis.
``scipy.linalg.eig(left=True)`` would give both sides from one call, but
importing ``scipy.linalg`` adds about 0.3 s to every CLI start, so numpy
stays the only dependency.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EigensolverError, ValidationError

# Default numerical thresholds.  All are far above double-precision noise
# for the dimensions this toolkit is run at: the benchmark goes up to
# d = 18, so step matrices up to d^2 = 324, whose eigenpair residuals
# measured about 1e-15 on random programs.
TOL_HERM = 1e-9
TOL_EIG = 1e-8
EPS_UNIT = 1e-7
TOL_PROJ = 1e-6
TOL_NUM = 1e-9
TOL_TP = 1e-9
CLUSTER_REL_TOL = 1e-6


def as_complex_matrix(a, name="matrix") -> np.ndarray:
    """Coerce to a 2-D complex128 array and reject non-finite entries."""
    arr = np.asarray(a, dtype=complex)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.real)) or not np.all(np.isfinite(arr.imag)):
        raise ValidationError(f"{name} contains NaN or Inf entries")
    return arr


def require_square(a, name="matrix") -> np.ndarray:
    arr = as_complex_matrix(a, name)
    if arr.shape[0] != arr.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {arr.shape}")
    return arr


def dagger(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm ||A||_max."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def herm_defect(a: np.ndarray) -> float:
    """||A - A^dag||_max, zero for Hermitian A."""
    return max_abs(a - dagger(a))


def is_hermitian(a, tol: float = TOL_HERM) -> bool:
    return herm_defect(require_square(a)) <= tol


def kron(a, b) -> np.ndarray:
    """Kronecker product with the convention
    ``(a (x) b)[i*rb + k, j*cb + l] = a[i, j] * b[k, l]``."""
    return np.kron(as_complex_matrix(a, "a"), as_complex_matrix(b, "b"))


def is_positive_semidefinite(a, tol: float = TOL_NUM) -> bool:
    """Whether ``a`` is Hermitian (within :data:`TOL_HERM`) with minimum
    eigenvalue >= ``-tol * max(1, ||a||)``.

    Raises
    ------
    DimensionMismatchError
        If ``a`` is not square.
    """
    arr = require_square(a)
    if herm_defect(arr) > TOL_HERM:
        return False
    w = np.linalg.eigvalsh((arr + dagger(arr)) / 2)
    scale = max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)
    return bool(w.min() >= -tol * scale) if w.size else True


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

    ``right_vectors`` and ``left_vectors`` hold one column per eigenvalue,
    paired index-by-index.  Left columns are filled only inside clusters
    that contain a unit-circle eigenvalue; every other left column is
    zero, so :meth:`cluster_projector` is meaningful for unit clusters
    only.  Within a unit cluster whose Gram matrix is nonsingular -- those
    of valid step representations always are -- the left columns are
    rescaled so that ``left[:, i].conj().T @ right[:, j] = delta_ij``
    inside the cluster.  ``matrix`` is the decomposed array itself and
    ``norm`` its spectral norm ``||A||_2``.  ``zero_nilpotent_index_bound``
    is an upper bound on the largest Jordan block size at eigenvalue zero
    (rank stabilization of powers); it costs one SVD per power and is
    computed on first read only.
    """

    dim: int
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
        return float(np.max(np.abs(self.eigenvalues))) if self.eigenvalues.size else 0.0

    def unit_projector(self) -> np.ndarray:
        """Spectral projector onto the span of unit-modulus eigenvalue
        clusters (the zero matrix when there are none)."""
        idx = np.flatnonzero(self.unit_circle_flags)
        if idx.size == 0:
            return np.zeros((self.dim, self.dim), dtype=complex)
        r = self.right_vectors[:, idx]
        l = self.left_vectors[:, idx]
        return r @ dagger(l)

    def cluster_projector(self, cluster_id: int) -> np.ndarray:
        idx = np.flatnonzero(self.cluster_ids == cluster_id)
        r = self.right_vectors[:, idx]
        l = self.left_vectors[:, idx]
        return r @ dagger(l)


def _cluster_eigenvalues(evals: np.ndarray, threshold: float) -> np.ndarray:
    """Group eigenvalues into connected components under
    |lambda_i - lambda_j| <= threshold.  O(n^2); n <= d^2 stays tiny."""
    n = evals.size
    ids = -np.ones(n, dtype=int)
    next_id = 0
    for i in range(n):
        if ids[i] >= 0:
            continue
        stack = [i]
        ids[i] = next_id
        while stack:
            k = stack.pop()
            near = np.flatnonzero(np.abs(evals - evals[k]) <= threshold)
            for j in near:
                if ids[j] < 0:
                    ids[j] = next_id
                    stack.append(j)
        next_id += 1
    return ids


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


def spectral_decompose(a, eps_unit: float = EPS_UNIT) -> SpectralData:
    """Eigen-decompose ``a``, with dual eigenvectors for its unit-circle
    clusters.

    Parameters
    ----------
    a : array_like
        Square complex matrix.
    eps_unit : float
        An eigenvalue is flagged unit-circle when ``| |lambda| - 1 | <=
        eps_unit``.

    Returns
    -------
    SpectralData

    Raises
    ------
    EigensolverError
        If LAPACK fails to converge, an eigenpair violates the residual
        bound, or a unit-circle cluster does not get exactly as many
        adjoint eigenvectors as it has eigenvalues.
    """
    arr = require_square(a)
    n = arr.shape[0]
    norm = float(np.linalg.norm(arr, 2)) if n else 0.0
    tol = TOL_EIG * max(1.0, norm)
    try:
        evals, right = np.linalg.eig(arr)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(n, norm, str(exc)) from exc

    res_right = max_abs(arr @ right - right * evals[None, :])
    if res_right > tol:
        raise EigensolverError(n, norm, f"right eigenpair residual {res_right:.3e}")

    radius = float(np.max(np.abs(evals))) if n else 0.0
    threshold = CLUSTER_REL_TOL * max(1.0, radius)
    cluster_ids = _cluster_eigenvalues(evals, threshold)
    unit_flags = np.abs(np.abs(evals) - 1.0) <= eps_unit

    # Dual vectors only for the unit clusters, biorthonormalized inside each
    # where its Gram matrix allows it.  A singular Gram means the cluster is
    # defective; unit-circle clusters of valid programs never are, and the
    # projector checks downstream catch the rest.
    left = np.zeros_like(right)
    # A set, not np.unique, which imports numpy.ma (about 10 ms) on first use.
    unit_clusters = set(cluster_ids[unit_flags].tolist())
    if unit_clusters:
        try:
            evals_adj, adj = np.linalg.eig(dagger(arr))
        except np.linalg.LinAlgError as exc:
            raise EigensolverError(n, norm, str(exc)) from exc
        mu = evals_adj.conj()
        for cid in unit_clusters:
            idx = np.flatnonzero(cluster_ids == cid)
            jdx = np.flatnonzero(
                np.min(np.abs(mu[:, None] - evals[None, idx]), axis=1) <= threshold
            )
            if jdx.size != idx.size:
                raise EigensolverError(
                    n, norm, f"{jdx.size} adjoint eigenvectors for a unit-circle "
                    f"cluster of {idx.size} eigenvalues"
                )
            lc = adj[:, jdx]
            res_left = max_abs(dagger(lc) @ arr - mu[jdx, None] * dagger(lc))
            if res_left > tol:
                raise EigensolverError(n, norm, f"left eigenpair residual {res_left:.3e}")
            gram = dagger(lc) @ right[:, idx]
            with np.errstate(divide="ignore", invalid="ignore"):
                cond = np.linalg.cond(gram)
            if np.isfinite(cond) and cond < 1e10:
                lc = lc @ dagger(np.linalg.inv(gram))
            left[:, idx] = lc

    return SpectralData(
        dim=n,
        matrix=arr,
        eigenvalues=evals,
        right_vectors=right,
        left_vectors=left,
        cluster_ids=cluster_ids,
        unit_circle_flags=unit_flags,
        norm=norm,
    )
