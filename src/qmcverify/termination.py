"""Exact and almost-sure termination of programs and schemes.

Exact termination means ``G^n(rho0) = 0`` for some ``n``, with ``G`` the
survival step.  That depends only on ``supp rho0``, so the search steps
support projectors and each zero test is a rank decision on ``G`` of one
projector.  The span of the supports from step ``k`` on shrinks strictly
until it is zero, so termination, if it happens, happens by ``n = d``.
The support is stepped with ``G`` itself, on d x d matrices.
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

ZERO_VECTOR_RTOL = 1e-9


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


def _support(mat: np.ndarray) -> np.ndarray | None:
    """Projector onto the eigenvectors of the PSD ``mat`` whose eigenvalue
    exceeds ``ZERO_VECTOR_RTOL * max(1, lambda_max)``; ``None`` when none
    does."""
    w, v = np.linalg.eigh((mat + mat.conj().T) / 2)
    keep = v[:, w > ZERO_VECTOR_RTOL * max(1.0, float(w[-1]))]
    return keep @ keep.conj().T if keep.shape[1] else None


def _verdict(rep: ProgramRepresentation, a: np.ndarray) -> TerminationVerdict:
    """Verdict for the runs started in the PSD ``a``; reads only ``rep``'s
    ``dim``, ``g`` and unit overlap."""
    overlap, almost = rep.unit_overlap(a)
    support = _support(a)
    n = 0
    while support is not None and n < rep.dim:
        n += 1
        support = _support(rep.g.apply_mat(support))
    return TerminationVerdict(
        terminates_at=n if support is None else None,
        almost_terminates=almost,
        unit_overlap_norm=overlap,
        nilpotent_check_power=n,
    )


def check_program_termination(
    rep: ProgramRepresentation, rho0: DensityOperator
) -> TerminationVerdict:
    """Termination verdict for the program started in ``rho0``.  The support
    decisions cut eigenvalues at :data:`ZERO_VECTOR_RTOL`, relative; the
    unit overlap is decided by :meth:`ProgramRepresentation.unit_overlap`."""
    return _verdict(rep, rho0.mat)


def check_scheme_termination(rep: ProgramRepresentation) -> TerminationVerdict:
    """Termination verdict quantified over all initial states.

    Evaluated on ``I``, which is ``d`` times the maximally mixed state
    ``I/d``: a scheme terminates iff the program started in ``I/d`` does,
    since every state's support lies in that of ``I/d``.
    """
    return _verdict(rep, np.eye(rep.dim))
