"""Brute-force oracles: direct evaluation of the defining series.

These deliberately reuse nothing from the invariant or spectral modules;
they ground the expected values of every derived test and the three-way
agreement suite.  :func:`oracle_expectation` makes a single pass over the
series: the terminal state, the step table and the running time all come
from the same stepping loop, which keeps only scalars per step.  The step
table is built from those scalars on first read only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .channels import Observable
from .linalg import dagger
from .program import (
    DEFAULT_N_MAX,
    DEFAULT_TAIL_TOL,
    QuantumProgram,
    SeriesPass,
    StepTrace,
    terminal_series_pass,
)


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Series values of one pass.  ``residual_mass`` is
    ``p_table.residual_mass``; ``stop_reason`` says whether the surviving
    mass fell below ``tail_tol`` (``"tail_tol"``) or the pass ran into
    ``n_max`` (``"n_max"``)."""

    expectation_series: float
    running_time_series: float
    residual_mass: float
    stop_reason: str
    n_used: int
    run: SeriesPass = field(repr=False)

    @cached_property
    def p_table(self) -> StepTrace:
        """One record per term of the sum, ``n_used + 1`` in all; built on
        first read."""
        return self.run.step_trace()


def oracle_expectation(
    prog: QuantumProgram,
    p: Observable,
    tail_tol: float = DEFAULT_TAIL_TOL,
    n_max: int = DEFAULT_N_MAX,
) -> OracleResult:
    """Series evaluation of the terminal expectation and running time.

    The running time partial sum is flagged infinite (returned as
    ``math.inf``) when the leftover nontermination mass exceeds
    ``sqrt(tail_tol)``, i.e. when the series demonstrably failed to
    exhaust the probability mass.
    """
    run = terminal_series_pass(prog, tail_tol, n_max)
    series = run.series()
    expectation = float(np.trace(p.mat @ series.rho_star.mat).real)
    if series.residual > math.sqrt(tail_tol):
        running_time = math.inf
    else:
        running_time = sum(n * p_n for n, p_n in enumerate(run.p, start=1))
    return OracleResult(
        expectation_series=expectation,
        running_time_series=running_time,
        residual_mass=run.residual_mass,
        stop_reason=run.stop_reason,
        n_used=series.n_used,
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
