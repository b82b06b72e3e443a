import numpy as np
import pytest

from qmcverify import (
    DensityOperator,
    Observable,
    SuperOperator,
    ValidationError,
    compose,
    is_positive_semidefinite,
    matrix_representation,
)
from qmcverify.linalg import max_abs

from helpers import I2, bitflip_channel, choi_matrix, positive_part_decompose
from sampling import random_channel, random_density, random_observable, random_unitary


def _kraus_loop(e, mat, dual):
    """The written-out per-Kraus sum, added in Kraus order from zero."""
    out = np.zeros((e.dim, e.dim), dtype=complex)
    for k in e.kraus:
        out += k.conj().T @ mat @ k if dual else k @ mat @ k.conj().T
    return out


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("n_kraus", [1, 2, 5])
def test_stacked_kernel_is_bit_identical_to_kraus_loop(d, n_kraus, rng):
    e = random_channel(d, rng, n_kraus)
    for _ in range(10):
        for mat in (random_density(d, rng).mat, random_observable(d, rng).mat):
            assert not mat.flags.writeable
            for dual, act in ((False, e.apply_mat), (True, e.apply_dual_mat)):
                out = act(mat)
                assert np.array_equal(out, _kraus_loop(e, mat, dual))
                # callers accumulate into the result in place
                assert out.flags.writeable
                assert not np.shares_memory(out, mat)
                assert not np.shares_memory(out, e.stack)
                assert not np.shares_memory(out, e.stack_dagger)


def test_apply_identity_channel(rng):
    e = SuperOperator([I2])
    rho = random_density(2, rng)
    assert max_abs(DensityOperator(e.apply_mat(rho.mat)).mat - rho.mat) <= 1e-12


def test_apply_bitflip_on_ground_state():
    e = bitflip_channel(0.75)
    rho = DensityOperator(np.diag([1.0, 0.0]))
    out = DensityOperator(e.apply_mat(rho.mat))
    assert np.allclose(out.mat, np.diag([0.75, 0.25]), atol=1e-12)


def test_apply_lowering_channel():
    lower = np.zeros((2, 2), dtype=complex)
    lower[0, 1] = 1.0
    out = SuperOperator([lower]).apply_mat(np.diag([0.0, 1.0]).astype(complex))
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-15)


def test_dual_identity_channel(rng):
    m = random_observable(2, rng)
    assert max_abs(Observable(SuperOperator([I2]).apply_dual_mat(m.mat)).mat - m.mat) <= 1e-12


@pytest.mark.parametrize("p,k", [(0.3, 0.5), (0.8, 2.0)])
def test_dual_bitflip_closed_form(p, k):
    n = Observable(np.diag([1.0, k]))
    out = Observable(bitflip_channel(p).apply_dual_mat(n.mat))
    expected = np.diag([p + (1 - p) * k, p * k + (1 - p)])
    assert np.allclose(out.mat, expected, atol=1e-12)


def test_dual_of_trace_preserving_is_unital(rng):
    for d in (2, 3):
        e = random_channel(d, rng)
        out = e.apply_dual_mat(np.eye(d, dtype=complex))
        assert max_abs(out - np.eye(d)) <= 1e-9


def test_dual_monotone(rng):
    for _ in range(10):
        e = random_channel(2, rng)
        x = random_observable(2, rng, psd=True)
        y = Observable(x.mat + random_observable(2, rng, psd=True).mat)
        gap = e.apply_dual_mat(y.mat) - e.apply_dual_mat(x.mat)
        assert is_positive_semidefinite(gap, tol=1e-9)


def test_duality_trace_identity(rng):
    for d in (2, 3):
        for _ in range(10):
            e = random_channel(d, rng)
            rho = random_density(d, rng)
            m = random_observable(d, rng)
            lhs = np.trace(m.mat @ e.apply_mat(rho.mat))
            rhs = np.trace(e.apply_dual_mat(m.mat) @ rho.mat)
            assert abs(lhs - rhs) <= 1e-9


def test_compose_with_identity(rng):
    e = random_channel(2, rng)
    assert max_abs(
        matrix_representation(compose(SuperOperator([I2]), e)) - matrix_representation(e)
    ) <= 1e-12


def test_compose_bitflip_with_survival_branch(rng):
    p = 0.6
    e = bitflip_channel(p)
    e1 = SuperOperator([np.diag([0.0, 1.0]).astype(complex)])
    g = compose(e, e1)
    expected = [np.sqrt(p) * np.diag([0.0, 1.0]), np.sqrt(1 - p) * np.array([[0.0, 1.0], [0.0, 0.0]])]
    assert max_abs(
        matrix_representation(g) - matrix_representation(SuperOperator(expected))
    ) <= 1e-12
    rho = random_density(2, rng)
    assert max_abs(g.apply_mat(rho.mat) - e.apply_mat(e1.apply_mat(rho.mat))) <= 1e-12


def test_compose_with_zero_channel(rng):
    zero = SuperOperator([np.zeros((2, 2))])
    e = random_channel(2, rng)
    assert max_abs(matrix_representation(compose(e, zero))) == 0.0


def test_representation_identity_channel():
    assert np.array_equal(matrix_representation(SuperOperator([I2])), np.eye(4))


def test_representation_entangled_vector_identity(rng):
    # vec(e(A)) = rep @ vec(A) for arbitrary A, not just states
    for d in (2, 3):
        e = random_channel(d, rng)
        rep = matrix_representation(e)
        phi = np.eye(d, dtype=complex).reshape(-1)
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        lhs = np.kron(e.apply_mat(a), np.eye(d)) @ phi
        rhs = rep @ (np.kron(a, np.eye(d)) @ phi)
        assert np.linalg.norm(lhs - rhs) <= 1e-9


def test_representation_invariant_under_kraus_remix(rng):
    for _ in range(5):
        e = random_channel(2, rng, n_kraus=3)
        u = random_unitary(3, rng)
        remixed = SuperOperator(
            [sum(u[j, i] * e.kraus[i] for i in range(3)) for j in range(3)]
        )
        assert max_abs(matrix_representation(e) - matrix_representation(remixed)) <= 1e-9


def test_kraus_normalization_rejected():
    with pytest.raises(ValidationError, match="eigenvalue"):
        SuperOperator([1.2 * I2])


def test_subnormalized_channel_accepted():
    e = SuperOperator([0.5 * I2])
    assert not e.trace_preserving


def test_density_operator_validation():
    with pytest.raises(ValidationError):
        DensityOperator(np.diag([1.0, -0.2]))
    with pytest.raises(ValidationError):
        DensityOperator(np.diag([0.9, 0.9]))


def test_observable_must_be_hermitian():
    with pytest.raises(ValidationError):
        Observable(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_choi_matrix_is_psd(rng):
    for d in (2, 3):
        c = choi_matrix(random_channel(d, rng))
        assert is_positive_semidefinite(c, tol=1e-9)


def test_positive_part_decompose_hermitian_psd():
    a = np.diag([0.5, 2.0]).astype(complex)
    b1, b2, b3, b4 = positive_part_decompose(a)
    assert np.allclose(b1, a, atol=1e-12)
    for b in (b2, b3, b4):
        assert max_abs(b) <= 1e-12


def test_positive_part_decompose_antihermitian():
    b1, b2, b3, b4 = positive_part_decompose(1j * np.eye(2))
    assert max_abs(b1) <= 1e-12 and max_abs(b2) <= 1e-12 and max_abs(b4) <= 1e-12
    assert np.allclose(b3, np.eye(2), atol=1e-12)


def test_positive_part_decompose_spectral_split():
    b1, b2, b3, b4 = positive_part_decompose(np.diag([1.0, -2.0]))
    assert np.allclose(b1, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(b2, np.diag([0.0, 2.0]), atol=1e-12)
    assert max_abs(b3) <= 1e-12 and max_abs(b4) <= 1e-12


def test_positive_part_decompose_random(rng):
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b1, b2, b3, b4 = positive_part_decompose(a)
        assert max_abs(a - (b1 - b2 + 1j * b3 - 1j * b4)) <= 1e-10
        bound = np.trace(a.conj().T @ a).real + 1e-9
        for b in (b1, b2, b3, b4):
            assert is_positive_semidefinite(b, tol=1e-9)
            assert np.trace(b @ b).real <= bound
