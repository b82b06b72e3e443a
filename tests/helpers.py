"""Shared builders for the test suite."""

from pathlib import Path

import numpy as np

from qmcverify import (
    DensityOperator,
    Observable,
    ProgramScheme,
    SuperOperator,
    TerminationMeasurement,
)

MODELS_DIR = Path(__file__).parent.parent / "models"

X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)
I2 = np.eye(2, dtype=complex)
M0_COMP = np.diag([1.0, 0.0]).astype(complex)
M1_COMP = np.diag([0.0, 1.0]).astype(complex)
P0 = Observable(np.diag([1.0, 0.0]))
IDENTITY_OBS = Observable(I2)


def computational_measurement():
    return TerminationMeasurement(M0_COMP, M1_COMP)


def bitflip_channel(p):
    """Flips |0> and |1> with probability 1 - p."""
    return SuperOperator([np.sqrt(p) * I2, np.sqrt(1.0 - p) * X])


def bitflip_scheme(p):
    return ProgramScheme(bitflip_channel(p), computational_measurement())


def bitflip_step_matrix(p):
    """The step matrix of :func:`bitflip_scheme`, written out by hand."""
    m = np.zeros((4, 4))
    m[0, 3] = 1 - p
    m[3, 3] = p
    return m


def bitflip_program(p, alpha, beta):
    rho0 = DensityOperator.from_pure([alpha, beta])
    return bitflip_scheme(p).with_initial_state(rho0)


def m1_zero_program(rho0=None):
    """Everything terminates at the first step: M1 = 0."""
    meas = TerminationMeasurement(I2, np.zeros((2, 2), dtype=complex))
    scheme = ProgramScheme(SuperOperator([I2]), meas)
    if rho0 is None:
        rho0 = DensityOperator(np.diag([0.0, 1.0]))
    return scheme.with_initial_state(rho0)


def m0_zero_program(rho0=None):
    """Nothing ever terminates: M0 = 0, identity channel."""
    meas = TerminationMeasurement(np.zeros((2, 2), dtype=complex), I2)
    scheme = ProgramScheme(SuperOperator([I2]), meas)
    if rho0 is None:
        rho0 = DensityOperator(np.diag([0.5, 0.5]))
    return scheme.with_initial_state(rho0)


def xflip_scheme():
    """Pauli-X channel with the computational termination test; the step
    representation is nilpotent of index two."""
    return ProgramScheme(SuperOperator([X]), computational_measurement())


def block_unitary_scheme(theta=0.7, phi=1.1):
    """d=3 scheme whose step keeps a 2-dimensional subspace rotating
    forever: unit-modulus eigenvalues with a nontrivial projector."""
    d = 3
    u = np.eye(d, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    u[1:, 1:] = np.array([[c, -s], [s, c]]) @ np.diag([1.0, np.exp(1j * phi)])
    m1 = np.diag([0.0, 1.0, 1.0]).astype(complex)
    m0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    return ProgramScheme(SuperOperator([u]), TerminationMeasurement(m0, m1))


def counter_scheme(d):
    """Cyclic shift through the basis, halting on the last state: from
    |0> the run takes exactly d steps, and no start takes longer."""
    shift = np.roll(np.eye(d, dtype=complex), 1, axis=0)
    m0 = np.zeros((d, d), dtype=complex)
    m0[-1, -1] = 1.0
    return ProgramScheme(SuperOperator([shift]), TerminationMeasurement(m0, np.eye(d) - m0))


def decaying_block_program():
    """d=8, identity channel, M1 = 0.1 I_3 (+) N_5 with N_5 the nilpotent
    shift, M0 = sqrt(I - M1^dag M1), started in |0><0|.  The surviving
    state is 0.01^n |0><0|: it never vanishes exactly, yet its mass falls
    below 1e-9 at step 5, the nilpotent index of the step matrix."""
    m1 = np.zeros((8, 8), dtype=complex)
    m1[:3, :3] = 0.1 * np.eye(3)
    m1[3:, 3:] = np.eye(5, k=-1)
    # I - M1^dag M1 is diagonal, so the entrywise root is the matrix root.
    m0 = np.sqrt(np.eye(8) - m1.conj().T @ m1)
    scheme = ProgramScheme(SuperOperator([np.eye(8)]), TerminationMeasurement(m0, m1))
    rho0 = np.zeros((8, 8))
    rho0[0, 0] = 1.0
    return scheme.with_initial_state(DensityOperator(rho0))
