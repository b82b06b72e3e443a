"""The chunked series pass against the per-step loop it replaced.

``_reference_pass`` is that loop, kept as the specification: one ``G``
step, one ``E0`` term, two traces and one addition per step, with the
running time summed by ``sum()`` at the end.  It steps ``G`` with the
kernel the pass chose: the step matrix of ``_step_matrix`` when
``d <= 2K``, ``g.apply_mat`` otherwise.  The chunked pass batches
everything but the ``G`` step and must give the same bits for every
output, on both kernels.
"""

import math
import tracemalloc

import numpy as np
import pytest

from qmcverify import DensityOperator, load_model, step_probabilities, terminal_state_series
from qmcverify.program import _real_trace, _series_pass, _step_matrix
from qmcverify.sampling import random_density, random_scheme

from helpers import MODELS_DIR


def _step(g):
    """``G`` one step at a time, by the kernel the pass chooses for it."""
    m = _step_matrix(g)
    if m is None:
        return g.apply_mat
    return lambda sigma: np.dot(m, sigma.reshape(-1)).reshape(sigma.shape)


def _reference_pass(scheme, rho_mat, tail_tol, n_max):
    e0, step = scheme.meas.e0, _step(scheme.g)
    sigma = rho_mat
    acc = e0.apply_mat(sigma)
    ps = [_real_trace(acc)]
    masses = []
    n = 0
    while True:
        nxt = step(sigma)
        mass = _real_trace(nxt)
        masses.append(mass)
        if mass < tail_tol or n >= n_max:
            time_sum = sum(k * p_k for k, p_k in enumerate(ps, start=1))
            return acc, sigma, ps, masses, time_sum, n
        n += 1
        sigma = nxt
        term = e0.apply_mat(sigma)
        ps.append(_real_trace(term))
        acc += term


def _assert_bit_identical(scheme, rho_mat, tail_tol, n_max, run=None):
    """``run`` defaults to the private pass; the public entry points pass
    their own result."""
    acc, last, p, mass, time_sum, n_used = _reference_pass(scheme, rho_mat, tail_tol, n_max)
    if run is None:
        run = _series_pass(scheme, rho_mat, tail_tol, n_max)
    assert np.array_equal(run.acc, acc)
    assert np.array_equal(run.last, last)
    assert run.p.tolist() == p
    assert run.mass.tolist() == mass
    assert math.copysign(1, run.time_sum) == math.copysign(1, time_sum)
    assert run.time_sum == time_sum
    assert run.n_used == n_used
    assert run.stop_reason == ("tail_tol" if mass[-1] < tail_tol else "n_max")
    return run


# 255 = 1 + 2 + ... + 128 ends a chunk, 256 and 257 fall just past it, and
# 511 ends the first full 256-step chunk.
N_MAX = (0, 1, 2, 255, 256, 257, 511)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 9, 16, 18])
def test_chunked_pass_is_bit_identical_to_the_step_loop(d):
    # d = 1, 2, 3 take the matrix kernel where n_kraus >= d / 2; d = 8 and
    # up always take the Kraus kernel.
    rng = np.random.default_rng(1000 + d)
    for n_kraus in (1, 2, 3):
        scheme = random_scheme(d, rng, n_kraus)
        assert (_step_matrix(scheme.g) is not None) == (d <= 2 * n_kraus)
        rho = random_density(d, rng).mat
        for n_max in N_MAX:
            for tail_tol in (1e-12, -math.inf):
                _assert_bit_identical(scheme, rho, tail_tol, n_max)


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.model")), ids=lambda p: p.stem)
def test_chunked_pass_is_bit_identical_on_committed_models(path):
    model = load_model(path)
    scheme = model.to_scheme()
    states = [np.eye(scheme.dim, dtype=complex) / scheme.dim]
    if model.rho0 is not None:
        states.append(DensityOperator(model.rho0).mat)
    for rho in states:
        for n_max in N_MAX + (1000,):
            for tail_tol in (1e-12, -math.inf):
                _assert_bit_identical(scheme, rho, tail_tol, n_max)


def test_public_entry_points_are_bit_identical_to_the_step_loop():
    progs = [load_model(path).to_program() for path in sorted(MODELS_DIR.glob("*.model"))
             if load_model(path).rho0 is not None]
    rng = np.random.default_rng(2024)
    progs += [random_scheme(d, rng).with_initial_state(random_density(d, rng)) for d in (2, 3, 8)]
    for prog in progs:
        rho = prog.rho0.mat
        for n_max in N_MAX + (1000,):
            run = terminal_state_series(prog, 1e-12, n_max)
            _assert_bit_identical(prog, rho, 1e-12, n_max, run)
            assert np.array_equal(run.rho_star.mat, run.acc)
            _assert_bit_identical(prog, rho, -math.inf, n_max, step_probabilities(prog, n_max + 1))


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_kernel_choice_follows_d_at_most_twice_the_kraus_count(d):
    rng = np.random.default_rng(d)
    for n_kraus in (1, 2, 3):
        g = random_scheme(d, rng, n_kraus).g
        assert len(g.kraus) == n_kraus
        m = _step_matrix(g)
        if d <= 2 * n_kraus:
            assert m.shape == (d * d, d * d) and m.dtype == complex
        else:
            assert m is None


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_step_matrix_columns_are_apply_mat_of_the_matrix_units(d):
    rng = np.random.default_rng(50 + d)
    g = random_scheme(d, rng, (d + 1) // 2 + 1).g
    m = _step_matrix(g)
    for j in range(d * d):
        unit = np.zeros((d, d), complex)
        unit.flat[j] = 1
        assert np.array_equal(m[:, j], g.apply_mat(unit).reshape(-1))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_one_matrix_step_agrees_with_apply_mat_within_rounding(d):
    # Both sides round the same sum over k, a, b of
    # E_k[i, a] sigma[a, b] conj(E_k[j, b]): the Kraus step in two length-d
    # products and a K-term sum, the matrix step in its one-product columns
    # and a length-d^2 product.  The gap is at most
    # 2 (d^2 + 2d + K + 4) eps times the same sum of absolute values.
    rng = np.random.default_rng(80 + d)
    for n_kraus in range((d + 1) // 2, (d + 1) // 2 + 3):
        g = random_scheme(d, rng, n_kraus).g
        m = _step_matrix(g)
        for _ in range(5):
            sigma = random_density(d, rng).mat
            got = np.dot(m, sigma.reshape(-1)).reshape(d, d)
            want = g.apply_mat(sigma)
            scale = sum(abs(k) @ abs(sigma) @ abs(k).T for k in g.kraus)
            bound = 2 * (d * d + 2 * d + n_kraus + 4) * np.finfo(float).eps * scale
            assert np.all(abs(got - want) <= bound)


@pytest.mark.parametrize("name", ["bitflip_p1", "unitary_m0zero"])
def test_non_terminating_models_stop_on_n_max(name):
    prog = load_model(MODELS_DIR / f"{name}.model").to_program()
    run = _assert_bit_identical(prog, prog.rho0.mat, 1e-12, 1000)
    assert run.stop_reason == "n_max" and run.n_used == 1000


def test_pass_stops_on_tail_tol_within_n_max():
    prog = load_model(MODELS_DIR / "bitflip_p05.model").to_program()
    run = _assert_bit_identical(prog, prog.rho0.mat, 1e-12, 10**6)
    assert run.stop_reason == "tail_tol" and run.n_used < 100


def test_per_step_scalars_cost_two_doubles_per_step():
    # unitary_m0zero never halts, so the pass runs to n_max and keeps two
    # scalars per step: 16 bytes as C doubles, 64 as Python float lists.
    # The bound leaves half again for the arrays' growth and the chunks.
    prog = load_model(MODELS_DIR / "unitary_m0zero.model").to_program()
    n_max = 10**5
    tracemalloc.start()
    try:
        run = _series_pass(prog, prog.rho0.mat, 1e-12, n_max)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.n_used == n_max and len(run.p) == len(run.mass) == n_max + 1
    assert (run.p.typecode, run.mass.typecode) == ("d", "d")
    assert peak < 24 * n_max
