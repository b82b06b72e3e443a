"""The brute-force oracle: direct evaluation of the defining series.

It deliberately reuses nothing from the invariant or spectral modules;
it grounds the expected values of every derived test and the three-way
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
