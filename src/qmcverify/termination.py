"""Exact and almost-sure termination of programs and schemes.

Exact termination means ``G^n(rho0) = 0`` for some ``n``, with ``G`` the
survival step.  That depends only on ``supp rho0``, so the search steps
supports, each held as an orthonormal basis ``V``.  With ``K_s`` the
Kraus operators of ``G``, ``supp G(V V^dag)`` is the range of the d x
(K rank) matrix ``[K_1 V, ..., K_K V]``, so each step is one SVD of the
Kraus images of the basis.  Its singular values are amplitudes: a
transition of weight ``w`` shows as ``sqrt(w)``.  The span of the
supports from step ``k`` on shrinks strictly until it is zero, so
termination, if it happens, happens by ``n = d``.
Almost termination means the halting probability
``sum_n tr(E0*(I) G^n(rho0))`` is one.  It holds iff the coordinates of
``rho0`` carry no unit-modulus spectral component of the step matrix,
read against the dual eigenbasis since that matrix is not normal: the
one rule of :meth:`ProgramRepresentation.unit_overlap`, which the running
time reads too.  Exact termination implies it, or the check fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import DensityOperator
from .errors import ConsistencyError
from .spectral import ProgramRepresentation

# A singular value of a support's matrix counts when it exceeds this many
# times max(1, the largest one); see _verdict.
SUPPORT_RTOL = 1e-12


@dataclass(frozen=True)
class TerminationVerdict:
    """Exact termination (a step in ``terminates_at``) without almost
    termination raises :class:`ConsistencyError`."""

    terminates_at: int | None
    almost_terminates: bool
    unit_overlap_norm: float
    nilpotent_check_power: int

    @property
    def terminates(self) -> bool:
        return self.terminates_at is not None

    def __post_init__(self):
        if self.terminates and not self.almost_terminates:
            raise ConsistencyError(
                f"exact termination at step {self.terminates_at} without almost "
                f"termination (unit overlap {self.unit_overlap_norm:.6g})"
            )


def _range(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the range of ``a``: its left singular vectors
    whose singular value exceeds ``SUPPORT_RTOL * max(1, s_max)``; no
    columns when none does."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[:, s > SUPPORT_RTOL * max(1.0, float(s[0]))]


def _verdict(rep: ProgramRepresentation, a: np.ndarray) -> TerminationVerdict:
    """Verdict for the runs started in the PSD ``a``; reads only ``rep``'s
    ``dim``, ``g`` and unit overlap.

    The support of ``a`` is :func:`_range` of ``a`` (its singular values
    are its eigenvalues), and each step's is :func:`_range` of ``[K_1 V,
    ..., K_K V]``.  The cut is relative to ``max(1, s_max)``, not to
    ``s_max`` alone: the images are products with factors of norm at most
    one (``sum_s K_s^dag K_s <= I``), so their rounding floor is about
    ``d u`` (``u = 2.2e-16``; about 4e-15 at d = 18) however small the
    images are.  A cut relative to ``s_max`` alone, numpy's default rank
    rule among them, keeps the ~1e-16 image that rounding leaves of a
    vector a factor kills whenever nothing larger survives.  1e-12 sits
    far above that floor; it reads an amplitude up to 1e-12 (a weight up
    to 1e-24) as absent.
    """
    overlap, almost = rep.unit_overlap(a)
    support = _range(a)
    n = 0
    while support.shape[1] and n < rep.dim:
        n += 1
        support = _range(np.concatenate(rep.g.stack @ support, axis=1))
    return TerminationVerdict(
        terminates_at=None if support.shape[1] else n,
        almost_terminates=almost,
        unit_overlap_norm=overlap,
        nilpotent_check_power=n,
    )


def check_program_termination(
    rep: ProgramRepresentation, rho0: DensityOperator
) -> TerminationVerdict:
    """Termination verdict for the program started in ``rho0``.  The support
    decisions cut singular values at :data:`SUPPORT_RTOL`, relative; the
    unit overlap is decided by :meth:`ProgramRepresentation.unit_overlap`."""
    return _verdict(rep, rho0.mat)


def check_scheme_termination(rep: ProgramRepresentation) -> TerminationVerdict:
    """Termination verdict quantified over all initial states.

    Evaluated on ``I``, which is ``d`` times the maximally mixed state
    ``I/d``: a scheme terminates iff the program started in ``I/d`` does,
    since every state's support lies in that of ``I/d``.
    """
    return _verdict(rep, np.eye(rep.dim))
