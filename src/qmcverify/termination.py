"""Exact and almost-sure termination of programs and schemes.

Exact termination means ``G^n(rho0) = 0`` for some ``n``, with ``G`` the
survival step.  That depends only on ``supp rho0``, so the search steps
supports, each held as an orthonormal basis ``V``.  With ``K_s`` the
Kraus operators of ``G``, ``supp G(V V^dag)`` is the range of the d x
(K rank) matrix ``[K_1 V, ..., K_K V]``, so each step is one SVD of the
Kraus images of the basis.  Its singular values are amplitudes: a
transition of weight ``w`` shows as ``sqrt(w)``.  The span of the
supports from step ``k`` on shrinks strictly until it is zero, so
termination, if it happens, happens by ``n = d``.  The search stops
earlier once two consecutive supports are the whole space: from a
full-rank ``V`` (a unitary), ``[K_1 V, ..., K_K V] = [K_1, ..., K_K]
(I_K (x) V)``, so the next support is ``range [K_1, ..., K_K]`` whatever
``V`` is.  Once that support is full too, it is its own successor, every
later support equals it, and the run never terminates exactly.  (In
exact arithmetic one full support after the start would do, since every
step's support lies in ``range [K_1, ..., K_K]``; but its rank was cut
on ``[K_1 V, ..., K_K V]`` for a narrower ``V``, whose scale can differ.
The second full support is cut on ``[K_1, ..., K_K]`` itself up to
rounding, so the stop reads the numbers every later step would.)  Only
this exact repeat ends the search: a support that merely comes back
close to the one before says nothing, since a nilpotent step can turn a
support by less than any cut and still empty it by step ``d``.
Almost termination means the halting probability
``sum_n tr(E0*(I) G^n(rho0))`` is one.  It holds iff the coordinates of
``rho0`` carry no unit-modulus spectral component of the step matrix,
read against the dual eigenbasis since that matrix is not normal: the
one rule of :meth:`ProgramRepresentation.unit_overlap`, which the running
time reads too.  A :class:`CertifiedStep` has no unit spectrum, so every
start almost terminates there.  Exact termination implies almost
termination, or the check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import DensityOperator
from .errors import ConsistencyError
from .spectral import CertifiedStep, ProgramRepresentation

# A singular value of a step's matrix counts when it exceeds this many
# times max(1, the largest one); see _verdict.
SUPPORT_RTOL = 1e-12
# An eigenvalue of the start counts when it exceeds this many times
# max(1, the largest one); see _verdict.
START_RTOL = 1e-14


@dataclass(frozen=True)
class TerminationVerdict:
    """Exact termination (a step in ``terminates_at``) without almost
    termination raises :class:`ConsistencyError`.

    ``nilpotent_check_power`` counts the support steps taken and
    ``support_stop`` says why they ended: ``"vanished"``, ``"whole_space"``
    (two consecutive supports were the whole space) or ``"dim_steps"``
    (``d`` steps taken).  ``support_kept_min`` and ``support_dropped_max``
    are the smallest singular value any step kept and the largest it
    dropped, each over ``max(1, s_max)`` of its step, so both sit on the
    scale of :data:`SUPPORT_RTOL`; ``None`` when no step kept or dropped
    one."""

    terminates_at: int | None
    almost_terminates: bool
    unit_overlap_norm: float
    nilpotent_check_power: int
    support_stop: str
    support_kept_min: float | None
    support_dropped_max: float | None

    @property
    def terminates(self) -> bool:
        return self.terminates_at is not None

    def __post_init__(self):
        if self.terminates and not self.almost_terminates:
            raise ConsistencyError(
                f"exact termination at step {self.terminates_at} without almost "
                f"termination (unit overlap {self.unit_overlap_norm:.6g})"
            )


def _range(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Candidates for the range of ``a``: its left singular vectors, its
    singular values in descending order, and ``max(1, s_max)``, the scale
    that a cut of them is relative to."""
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u, s, max(1.0, float(s[0]))


def _verdict(rep: CertifiedStep | ProgramRepresentation, a: np.ndarray) -> TerminationVerdict:
    """Verdict for the runs started in the PSD ``a``; reads only ``rep``'s
    ``dim``, ``g`` and unit overlap.

    Each step's support is the part of :func:`_range` of ``[K_1 V, ...,
    K_K V]`` above :data:`SUPPORT_RTOL`.  The cut is relative to
    ``max(1, s_max)``, not to ``s_max`` alone: the images are products
    with factors of norm at most one (``sum_s K_s^dag K_s <= I``), so
    their rounding floor is about ``d u`` (``u = 2.2e-16``; about 4e-15
    at d = 18) however small the images are.  A cut relative to ``s_max``
    alone, numpy's default rank rule among them, keeps the ~1e-16 image
    that rounding leaves of a vector a factor kills whenever nothing
    larger survives.  1e-12 sits far above that floor; it reads an
    amplitude up to 1e-12 (a weight up to 1e-24) as absent.

    The start's support is the part of :func:`_range` of ``a`` above
    :data:`START_RTOL`.  Those singular values are ``a``'s eigenvalues,
    weights rather than amplitudes, and ``a`` itself carries rounding of
    about ``u`` in its weights: a pure state written in a rotated basis
    has null-space weights up to 2.2e-16 (the largest over 6800 rotated
    rank-deficient starts at d = 2 to 18), amplitudes of 1.5e-8.  So the
    start cannot be cut at the steps' amplitude of 1e-12 (a rounding
    direction would count in full from then on); 1e-14 sits 45 times
    above that floor and reads a weight of 1e-13 on a state that never
    halts as present, while a weight below 1e-14 reads as absent.

    The search ends when the support vanishes, when two consecutive
    supports are the whole space (the fixed point of the module
    docstring; ``d`` columns kept is exact, no nearness is read), or
    after ``d`` steps.
    """
    overlap, almost = rep.unit_overlap(a)
    u, w, scale = _range(a)
    support = u[:, w > START_RTOL * scale]
    n, stop = 0, "vanished"
    kept_min, dropped_max = math.inf, -math.inf
    while support.shape[1]:
        if n == rep.dim:
            stop = "dim_steps"
            break
        n += 1
        was_full = support.shape[1] == rep.dim
        u, s, scale = _range(np.concatenate(rep.g.stack @ support, axis=1))
        rank = int(np.count_nonzero(s > SUPPORT_RTOL * scale))
        if rank:
            kept_min = min(kept_min, float(s[rank - 1]) / scale)
        if rank < s.size:
            dropped_max = max(dropped_max, float(s[rank]) / scale)
        support = u[:, :rank]
        if was_full and rank == rep.dim:
            stop = "whole_space"
            break
    return TerminationVerdict(
        terminates_at=None if support.shape[1] else n,
        almost_terminates=almost,
        unit_overlap_norm=overlap,
        nilpotent_check_power=n,
        support_stop=stop,
        support_kept_min=None if kept_min == math.inf else kept_min,
        support_dropped_max=None if dropped_max == -math.inf else dropped_max,
    )


def check_program_termination(
    rep: CertifiedStep | ProgramRepresentation, rho0: DensityOperator
) -> TerminationVerdict:
    """Termination verdict for the program started in ``rho0``.  The support
    decisions cut eigenvalues of ``rho0`` at :data:`START_RTOL` and
    singular values of each step at :data:`SUPPORT_RTOL`, both relative;
    the unit overlap is decided by
    :meth:`ProgramRepresentation.unit_overlap`."""
    return _verdict(rep, rho0.mat)


def check_scheme_termination(rep: CertifiedStep | ProgramRepresentation) -> TerminationVerdict:
    """Termination verdict quantified over all initial states.

    Evaluated on ``I``, which is ``d`` times the maximally mixed state
    ``I/d``: a scheme terminates iff the program started in ``I/d`` does,
    since every state's support lies in that of ``I/d``.
    """
    return _verdict(rep, np.eye(rep.dim))
