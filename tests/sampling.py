"""Random instance generation for the test suites and the golden
records (``tests/regen_goldens.py``).

All generators take an explicit ``numpy.random.Generator`` so that golden
records and test suites are reproducible from a seed alone.  They import
no verification route, so the programs behind the golden records do not
depend on the routes they check (``tests/test_independence.py``).
"""

from __future__ import annotations

import numpy as np

from qmcverify.channels import DensityOperator, Observable, SuperOperator, matrix_representation
from qmcverify.program import ProgramScheme, QuantumProgram, TerminationMeasurement

# random_contracting_program redraws until the step matrix has spectral
# radius at most RADIUS_CAP, and gives up after MAX_TRIES draws.
RADIUS_CAP = 0.95
MAX_TRIES = 200


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, d, d))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel(d: int, rng: np.random.Generator, n_kraus: int = 2) -> SuperOperator:
    """Haar-style trace-preserving channel: a random isometry from d to
    n_kraus*d dimensions, sliced into Kraus blocks."""
    q, _ = np.linalg.qr(_ginibre(rng, n_kraus * d, d))
    return SuperOperator([q[i * d : (i + 1) * d, :] for i in range(n_kraus)])


def random_measurement(d: int, rng: np.random.Generator) -> TerminationMeasurement:
    """Random complete two-outcome measurement with both effects strictly
    inside (0, I), so neither branch is degenerate."""
    g = _ginibre(rng, d, d)
    h = g @ g.conj().T
    w, v = np.linalg.eigh(h)
    top = rng.uniform(0.3, 0.95)
    w = w * (top / w.max())
    m1 = random_unitary(d, rng) @ (v * np.sqrt(w)) @ v.conj().T
    m0 = random_unitary(d, rng) @ (v * np.sqrt(1.0 - w)) @ v.conj().T
    return TerminationMeasurement(m0, m1)


def random_density(d: int, rng: np.random.Generator, pure: bool = False) -> DensityOperator:
    if pure:
        return DensityOperator.from_pure(_ginibre(rng, d, 1))
    g = _ginibre(rng, d, d)
    rho = g @ g.conj().T
    return DensityOperator(rho / np.trace(rho).real)


def random_observable(d: int, rng: np.random.Generator, psd: bool = False) -> Observable:
    g = _ginibre(rng, d, d)
    if psd:
        return Observable(g @ g.conj().T / d)
    return Observable((g + g.conj().T) / 2)


def random_scheme(d: int, rng: np.random.Generator, n_kraus: int = 2) -> ProgramScheme:
    return ProgramScheme(random_channel(d, rng, n_kraus), random_measurement(d, rng))


def random_program(d: int, rng: np.random.Generator, n_kraus: int = 2) -> QuantumProgram:
    return random_scheme(d, rng, n_kraus).with_initial_state(random_density(d, rng))


def random_contracting_program(d: int, rng: np.random.Generator) -> QuantumProgram:
    """Random program whose step matrix has spectral radius at most
    :data:`RADIUS_CAP`; such programs terminate almost surely from every
    initial state and their series converge quickly.  The radius is read
    from the eigenvalues of the step matrix alone, so the programs behind
    the golden records do not depend on the spectral route."""
    for _ in range(MAX_TRIES):
        prog = random_program(d, rng)
        if np.abs(np.linalg.eigvals(matrix_representation(prog.g))).max() <= RADIUS_CAP:
            return prog
    raise RuntimeError(
        f"no program with spectral radius <= {RADIUS_CAP} in {MAX_TRIES} draws"
    )
