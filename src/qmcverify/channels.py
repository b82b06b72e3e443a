"""Super-operators in Kraus form, density operators and observables.

A super-operator is stored as its Kraus family ``{E_i}`` with
``sum(E_i^dag E_i) <= I`` (sub-normalized); it acts forward on states as
``rho -> sum(E_i rho E_i^dag)`` and backward on observables as
``M -> sum(E_i^dag M E_i)``.  Equality of super-operators is always decided
through :func:`matrix_representation`, never through the Kraus lists, which
are not unique.

Both actions run on the stacked Kraus array ``(K, d, d)`` and its stacked
conjugate transpose, built once per super-operator on first use: one
batched matmul pair forms every term ``E_i X E_i^dag`` (or
``E_i^dag X E_i``) and the terms are then added in Kraus order.  numpy's
batched matmul runs the same per-matrix product as a 2-D ``@``, and the
sum is written out slice by slice, so the result is bit for bit that of
a Python loop over the Kraus list (one that starts from a zero matrix
could differ only in the sign of an exact zero).  ``np.add.reduce`` over
axis 0 is not used: when the summed terms collapse to one element
(``d = 1``) numpy sums them pairwise, in a different order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .linalg import (
    TOL_HERM,
    TOL_NUM,
    TOL_TP,
    dagger,
    herm_defect,
    is_positive_semidefinite,
    kron,
    max_abs,
    psd_split,
    require_square,
)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, dtype=complex)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SuperOperator:
    """A completely positive, trace-nonincreasing map given by Kraus
    operators on a fixed d-dimensional space.

    Construction validates ``sum(E_i^dag E_i) <= I`` and derives the
    ``trace_preserving`` flag; it is never user-asserted.

    Raises
    ------
    ValidationError
        If the Kraus sum exceeds the identity beyond tolerance; the message
        carries the offending eigenvalue.
    """

    kraus: tuple[np.ndarray, ...]
    trace_preserving: bool = field(init=False)

    def __init__(self, kraus, tol: float = TOL_NUM):
        ops = [require_square(k, f"kraus[{i}]") for i, k in enumerate(kraus)]
        if not ops:
            raise ValidationError("a super-operator needs at least one Kraus operator")
        d = ops[0].shape[0]
        for i, k in enumerate(ops):
            if k.shape != (d, d):
                raise DimensionMismatchError(
                    f"kraus[{i}] has shape {k.shape}, expected ({d}, {d})"
                )
        ksum = sum(dagger(k) @ k for k in ops)
        w = np.linalg.eigvalsh((ksum + dagger(ksum)) / 2)
        if w.max() > 1.0 + tol:
            raise ValidationError(
                "kraus normalization violated: sum(E_i^dag E_i) has eigenvalue "
                f"{w.max():.12g} > 1 (tolerance {tol:g})"
            )
        object.__setattr__(self, "kraus", tuple(_frozen(k) for k in ops))
        object.__setattr__(
            self, "trace_preserving", max_abs(ksum - np.eye(d)) <= TOL_TP
        )

    @property
    def dim(self) -> int:
        return self.kraus[0].shape[0]

    @cached_property
    def stack(self) -> np.ndarray:
        """The Kraus operators stacked as ``(K, d, d)``; read-only, built
        on first use."""
        stack = np.array(self.kraus)
        stack.setflags(write=False)
        return stack

    @cached_property
    def stack_dagger(self) -> np.ndarray:
        """The conjugate transposes of :attr:`stack`, contiguous and
        read-only."""
        stack_dagger = np.ascontiguousarray(self.stack.conj().transpose(0, 2, 1))
        stack_dagger.setflags(write=False)
        return stack_dagger

    def apply_mat(self, mat: np.ndarray) -> np.ndarray:
        """Forward action on a raw matrix, no validation.  The result is a
        new writeable array."""
        return _sum_terms(self.stack @ mat @ self.stack_dagger)

    def apply_dual_mat(self, mat: np.ndarray) -> np.ndarray:
        """Heisenberg-picture action on a raw matrix, no validation.  The
        result is a new writeable array."""
        return _sum_terms(self.stack_dagger @ mat @ self.stack)


def _sum_terms(terms: np.ndarray) -> np.ndarray:
    """Sum a fresh ``(K, d, d)`` array over axis 0 in order, in place."""
    out = terms[0]
    for i in range(1, len(terms)):
        out += terms[i]
    return out


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A partial density operator: positive semidefinite with trace <= 1."""

    mat: np.ndarray

    def __init__(self, mat, tol: float = TOL_NUM):
        arr = require_square(mat, "density operator")
        if not is_positive_semidefinite(arr, tol):
            raise ValidationError("density operator is not positive semidefinite")
        tr = complex(np.trace(arr))
        if abs(tr.imag) > TOL_TP or tr.real > 1.0 + TOL_TP:
            raise ValidationError(f"density operator has trace {tr:.12g}, expected <= 1")
        object.__setattr__(self, "mat", _frozen(arr))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    @classmethod
    def from_pure(cls, state) -> "DensityOperator":
        """|psi><psi| / <psi|psi> for a state vector psi."""
        v = np.asarray(state, dtype=complex).reshape(-1)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValidationError("cannot normalize the zero vector")
        v = v / nrm
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True, eq=False)
class Observable:
    """A Hermitian operator."""

    mat: np.ndarray

    def __init__(self, mat, tol: float = TOL_HERM):
        arr = require_square(mat, "observable")
        if herm_defect(arr) > tol:
            raise ValidationError(
                f"observable is not Hermitian: ||A - A^dag||_max = {herm_defect(arr):.3e}"
            )
        object.__setattr__(self, "mat", _frozen((arr + dagger(arr)) / 2))

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


def _check_dims(a, b, what: str):
    if a.dim != b.dim:
        raise DimensionMismatchError(f"{what}: dimensions {a.dim} and {b.dim} differ")


def apply(e: SuperOperator, rho: DensityOperator) -> DensityOperator:
    """Schroedinger-picture action ``sum(E_i rho E_i^dag)``."""
    _check_dims(e, rho, "apply")
    return DensityOperator(e.apply_mat(rho.mat))


def apply_dual(e: SuperOperator, m: Observable) -> Observable:
    """Heisenberg-picture action ``sum(E_i^dag M E_i)``; Hermitian output
    for Hermitian input."""
    _check_dims(e, m, "apply_dual")
    return Observable(e.apply_dual_mat(m.mat))


def compose(e: SuperOperator, f: SuperOperator) -> SuperOperator:
    """Composition ``e . f`` (first ``f``, then ``e``) as the pairwise
    product Kraus list ``{E_i F_j}``; no simplification is attempted."""
    _check_dims(e, f, "compose")
    return SuperOperator([ek @ fk for ek in e.kraus for fk in f.kraus])


def matrix_representation(e: SuperOperator) -> np.ndarray:
    """The d^2 x d^2 matrix ``sum(E_i (x) conj(E_i))``.

    Acting on row-major vectorized matrices it reproduces the channel:
    ``rep @ vec(A) = vec(e(A))``; see :func:`qmcverify.spectral.vec`.
    """
    d = e.dim
    rep = np.zeros((d * d, d * d), dtype=complex)
    for k in e.kraus:
        rep += kron(k, k.conj())
    return rep


def choi_matrix(e: SuperOperator) -> np.ndarray:
    """Choi matrix, obtained by reshuffling the matrix representation.

    Positive semidefiniteness is automatic for maps given in Kraus form;
    this is exposed purely as a diagnostic tying the representation back
    to complete positivity.
    """
    d = e.dim
    rep = matrix_representation(e)
    return rep.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def positive_part_decompose(a) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split an arbitrary square matrix as ``A = B1 - B2 + i B3 - i B4``
    with all four parts PSD, B1/B2 (and B3/B4) having orthogonal supports,
    and ``tr(Bj^2) <= tr(A^dag A)``."""
    arr = require_square(a)
    herm = (arr + dagger(arr)) / 2
    anti = -1j * (arr - dagger(arr)) / 2
    b1, b2 = psd_split(herm)
    b3, b4 = psd_split(anti)
    return b1, b2, b3, b4


def maximally_entangled_vector(d: int) -> np.ndarray:
    """The unnormalized vector sum_j |jj> in the computational basis."""
    return np.eye(d, dtype=complex).reshape(-1)
