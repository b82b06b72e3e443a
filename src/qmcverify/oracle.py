"""Brute-force oracles: direct evaluation of the defining series.

These deliberately reuse nothing from the invariant or spectral modules;
they ground the expected values of every derived test and the three-way
agreement suite.  :func:`oracle_expectation` makes a single pass over the
series and keeps its one result, the :class:`~qmcverify.program.SeriesPass`:
the terminal state, the step table, the residual mass and the running
time all come from it.  The step table is built from the pass's scalars
on first read only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channels import Observable
from .linalg import dagger
from .program import (
    DEFAULT_N_MAX,
    DEFAULT_TAIL_TOL,
    QuantumProgram,
    SeriesPass,
    terminal_state_series,
)


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Series values of one pass.  ``residual_mass`` is
    ``run.residual_mass``; ``stop_reason`` says whether the surviving
    mass fell below ``tail_tol`` (``"tail_tol"``) or the pass ran into
    ``n_max`` (``"n_max"``)."""

    expectation_series: float
    running_time_series: float
    residual_mass: float
    stop_reason: str
    n_used: int
    run: SeriesPass = field(repr=False)

    @property
    def p_table(self) -> SeriesPass:
        """The pass itself; its ``steps`` are built on first read."""
        return self.run


def oracle_expectation(
    prog: QuantumProgram,
    p: Observable,
    tail_tol: float = DEFAULT_TAIL_TOL,
    n_max: int = DEFAULT_N_MAX,
) -> OracleResult:
    """Series evaluation of the terminal expectation and running time.

    The running time is the pass's ``time_sum`` when the surviving mass
    fell below ``tail_tol``, and infinite (``math.inf``) when the pass
    ran into ``n_max``: the cut-off tail ``sum_{n > N} n p_n`` has no
    bound then, however little mass is left.
    """
    run = terminal_state_series(prog, tail_tol, n_max)
    expectation = float(np.trace(p.mat @ run.rho_star.mat).real)
    running_time = run.time_sum if run.stop_reason == "tail_tol" else math.inf
    return OracleResult(
        expectation_series=expectation,
        running_time_series=running_time,
        residual_mass=run.residual_mass,
        stop_reason=run.stop_reason,
        n_used=run.n_used,
        run=run,
    )


def oracle_fixed_point(
    prog: QuantumProgram,
    p: Observable,
    tol: float = 1e-13,
    n_max: int = 10_000_000,
) -> Observable:
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
