"""The chunked series pass against the per-step loop it replaced.

``_reference_pass`` is that loop, kept as the specification: one ``G``
step, one ``E0`` term, two traces and one addition per step, with the
running time summed by ``sum()`` at the end.  It steps ``G`` with the
kernel the pass chose: the step matrix ``M`` of ``_step_matrix`` when
``d <= 2K``, ``g.apply_mat`` otherwise.  The pass must stop at the same
step for the same reason, and agree on every value within the bound
that ``_assert_agrees`` derives.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qmcverify import (
    DensityOperator,
    Observable,
    load_model,
    step_probabilities,
    terminal_state_series,
)
from qmcverify.linalg import max_abs
from qmcverify import program
from qmcverify.program import (
    _CHUNK,
    _STACK_ENTRIES,
    _grow_powers,
    _power_stack,
    _real_trace,
    _series_pass,
    _stack_height,
    _step_matrix,
)

from helpers import MODELS_DIR, P0, Z, bitflip_program, counter_scheme, exact_expectation
from sampling import random_density, random_scheme

U = np.finfo(float).eps / 2  # unit roundoff


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


def _assert_agrees(scheme, rho_mat, tail_tol, n_max, run=None):
    """The pass against the reference loop.  ``run`` defaults to the
    private pass; the public entry points pass their own result.

    ``n_used``, ``stop_reason`` and the lengths of ``p`` and ``mass`` must
    be equal.  The values must agree within a first-order bound, derived
    here with ``u`` the unit roundoff, ``n = n_used``, ``||.||_1`` the trace
    norm, ``|X|_1`` the sum of ``|X_ij|`` and ``g = (d^2 + 2) u``, which
    bounds the rounding of a complex inner product of length up to ``d^2``
    relative to the sum of the products' moduli.

    - For every ``d x d`` matrix ``X``: ``max|X_ij| <= ||X||_1 <= |X|_1
      <= d ||X||_1``.  Each ``sigma_k`` is PSD with ``||sigma_k||_1 =
      tr sigma_k <= 1``.
    - ``G``, ``E0`` and, for every ``N``, ``sum_{i <= N} E0 G^i`` are
      completely positive and trace-nonincreasing (the last because
      ``sum_{i <= N} G*^i(E0*(I)) = I - G*^(N+1)(I)``), so none of them
      raises the trace norm of any matrix.
    - Column ``j`` of ``M^i`` is ``vec G^i(E_j)``, so its entries' moduli
      sum to at most ``d``.  A computed product ``M^i x`` therefore errs by
      at most ``g d |x|_1 <= g d^2 ||x||_1``, and a computed product of
      two powers errs, as a map, by at most ``g d^3`` in trace norm.

    States.  The reference takes ``k`` rounded products to reach
    ``sigma_k``, each error then carried by powers of ``G``: at most
    ``k g d^2``.  The pass builds ``P_{2h} .. P_{h+1}`` from ``P_h`` and
    ``P_1 .. P_h``, so ``P_i`` errs by at most ``(i - 1) g d^3``, and a
    state ``i`` steps past a block's base errs by that plus one product
    and the base's own error: at most ``k g d^3`` for ``sigma_k``.  So
    ``||delta sigma_k||_1 <= k g (d^3 + d^2)``.  The Kraus kernel runs
    the reference's own operations, so its states are equal.

    Sums over steps.  Through ``sum E0 G^i`` the reference's step errors
    add up to at most ``n g d^2``.  The pass's block bases carry errors of
    at most ``s g d^3`` per block of ``s`` steps, ``n g d^3`` in all, for
    stack height ``s``; the state ``i`` steps into a block carries its own
    ``i g d^3``, on average at most ``(s/2) g d^3`` per step.  So
    ``sum_k ||E0(delta sigma_k)||_1`` and
    ``sum_k |delta p_k|`` are at most ``S = n g (d^2 + d^3 (1 + s/2))``.

    - ``last``: ``n g (d^3 + d^2)``.
    - ``mass[k] = tr sigma_{k+1}``: the state's bound at ``k + 1`` plus
      ``g`` for each side's sum of ``d`` diagonal entries of modulus sum
      at most 1.
    - ``p[k] = tr E0(sigma_k)``: the state's bound at ``k``
      (``|tr E0(X)| <= ||X||_1``) plus ``5 g d``: the reference's two
      length-``d`` products and trace reach ``3 g |sigma|_1``, the pass's
      ``vec((M0^dag M0)^T) . vec(sigma)``, with ``|(M0^dag M0)_ab| <= 1``
      rounded once, ``2 g |sigma|_1``.
    - ``acc``: ``S``, plus the reference's ``E0`` roundings
      (``2 g d`` per step) and ordered sum (``(n + 1) u``, the terms'
      traces summing to at most 1), plus the pass's sum of states
      (``(n + 1) u d T``, ``T = sum_k tr sigma_k``) and its one ``E0``
      (``2 g d T``).
    - ``time_sum = sum_k (k + 1) p_k``: ``n + 1`` times the summed ``p``
      errors, ``S + 5 (n + 1) g d``, plus each side's ordered sum
      (``(n + 2) u W`` with ``W = time_sum``).

    Every bound is first order in ``u``; the terms left out are of the
    order of these bounds squared.
    """
    acc, last, p, mass, time_sum, n_used = _reference_pass(scheme, rho_mat, tail_tol, n_max)
    if run is None:
        run = _series_pass(scheme, rho_mat, tail_tol, n_max)
    assert run.n_used == n_used
    assert run.stop_reason == ("tail_tol" if mass[-1] < tail_tol else "n_max")
    assert len(run.p) == len(p) == n_used + 1
    assert len(run.mass) == len(mass) == n_used + 1

    d, n = scheme.dim, n_used
    g, state, steps = _rounding(scheme, n)
    if _step_matrix(scheme.g) is None:
        # The Kraus kernel takes the reference's own steps.
        assert np.array_equal(run.last, last)
    assert max_abs(run.last - last) <= n * state
    assert max(abs(a - b) for a, b in zip(run.mass, mass)) <= (n + 1) * state + 2 * g
    assert max(abs(a - b) for a, b in zip(run.p, p)) <= n * state + 5 * g * d
    assert max_abs(run.acc - acc) <= _acc_bound(scheme, n, 1 + sum(mass[:-1]))
    assert abs(run.time_sum - time_sum) <= (
        (n + 1) * (steps + 5 * (n + 1) * g * d) + 2 * (n + 2) * U * time_sum
    )
    return run


def _rounding(scheme, n):
    """``(g, state, steps)`` of :func:`_assert_agrees` for ``n`` steps:
    ``g``, the per-step state bound and ``S``; the last two are 0 on the
    Kraus kernel, which takes the reference's own steps."""
    d = scheme.dim
    g = (d * d + 2) * U
    if _step_matrix(scheme.g) is None:
        return g, 0.0, 0.0
    return g, g * (d**3 + d * d), n * g * (d * d + d**3 * (1 + _stack_height(d) / 2))


def _acc_bound(scheme, n, total_mass):
    """The bound on ``max|delta acc|`` that :func:`_assert_agrees` derives
    for ``n`` steps, ``total_mass`` the ``T = sum_k tr sigma_k``."""
    d = scheme.dim
    g, _, steps = _rounding(scheme, n)
    return (
        steps + 2 * (n + 1) * g * d + (n + 1) * U
        + (n + 1) * U * d * total_mass + 2 * g * d * total_mass
    )


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
                _assert_agrees(scheme, rho, tail_tol, n_max)


@pytest.mark.parametrize("d", [4, 5, 6, 7])
def test_stacked_powers_agree_with_the_step_loop(d):
    # K = ceil(d / 2) takes the matrix kernel with a stack of 64 down to 4
    # powers, so chunks of 256 steps take several blocks.
    rng = np.random.default_rng(2000 + d)
    scheme = random_scheme(d, rng, (d + 1) // 2)
    assert _stack_height(d) < _CHUNK and _step_matrix(scheme.g) is not None
    rho = random_density(d, rng).mat
    for n_max in N_MAX + (1000,):
        _assert_agrees(scheme, rho, -math.inf, n_max)


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
                _assert_agrees(scheme, rho, tail_tol, n_max)


def test_public_entry_points_are_bit_identical_to_the_step_loop():
    progs = [load_model(path).to_program() for path in sorted(MODELS_DIR.glob("*.model"))
             if load_model(path).rho0 is not None]
    rng = np.random.default_rng(2024)
    progs += [random_scheme(d, rng).with_initial_state(random_density(d, rng)) for d in (2, 3, 8)]
    for prog in progs:
        rho = prog.rho0.mat
        for n_max in N_MAX + (1000,):
            run = terminal_state_series(prog, 1e-12, n_max)
            _assert_agrees(prog, rho, 1e-12, n_max, run)
            assert np.array_equal(run.rho_star.mat, run.acc)
            _assert_agrees(prog, rho, -math.inf, n_max, step_probabilities(prog, n_max + 1))


def _exact_cases():
    """Bitflips from |1> at p = 0.5 and at the gaps 1 - p of the
    near-unit benchmark, read by ``P0`` and the non-PSD ``Z``; the d = 4
    counter from each basis state, read by its halting projector."""
    for gap in (0.5, 1e-2, 6e-3, 3.5e-3):
        prog = bitflip_program(1 - gap, 0, 1)
        yield prog, P0
        yield prog, Observable(Z)
    scheme = counter_scheme(4)
    for k in range(4):
        yield scheme.with_initial_state(DensityOperator(np.diag(np.eye(4)[k]))), \
            Observable(scheme.meas.m0)


@pytest.mark.parametrize("prog, p", list(_exact_cases()))
def test_series_value_is_within_its_tail_and_rounding_of_the_exact_value(prog, p):
    # The cut tail sum_{n > N} E0(sigma_n) is PSD with trace at most the
    # surviving mass tr sigma_{N+1}, so it moves tr(P rho_star) by at most
    # ||P||_op times that mass (itself computed within the mass bound of
    # _assert_agrees).  The rounding of acc is at most _acc_bound per
    # entry, so |P|_1 times it moves the value, and the trace's own
    # length-d products add g |P|_1 max|acc|.  _acc_bound counts both the
    # pass's and the reference's roundings; the reference's k g d^2 per
    # state covers the rounding of the step matrix's entries (one product
    # and K - 1 = 1 addition each on the bitflip), and the counter's
    # 0/1 entries round nothing.
    run = terminal_state_series(prog)
    value = float(np.trace(p.mat @ run.acc).real)
    n = run.n_used
    g, state, _ = _rounding(prog, n)
    tail = np.linalg.norm(p.mat, 2) * (run.mass[-1] + (n + 1) * state + 2 * g)
    entries = abs(p.mat).sum()
    bound = tail + entries * (_acc_bound(prog, n, 1 + sum(run.mass[:-1])) + g * max_abs(run.acc))
    assert abs(Fraction(value) - exact_expectation(prog, p)) <= Fraction(bound)


def test_exact_reference_names_a_singular_system():
    # At p = 1 the bitflip never flips: |1> never halts, so G has the
    # eigenvalue 1 and I - M has no inverse.
    with pytest.raises(ZeroDivisionError, match="I - M is singular"):
        exact_expectation(bitflip_program(1.0, 0.6, 0.8), P0)


def test_power_stack_height_rule_and_build():
    # The largest power of two up to _CHUNK whose s d^4 entries fit the
    # budget, and 1 where not even one d^2 x d^2 power fits.
    assert _stack_height(1) == _stack_height(2) == _CHUNK == 256
    assert [_stack_height(d) for d in range(10, 40)] == [1] * 30
    for d in range(1, 40):
        s = _stack_height(d)
        assert s & (s - 1) == 0 and 1 <= s <= _CHUNK
        assert s * d**4 <= _STACK_ENTRIES or s == 1
        assert s == _CHUNK or 2 * s * d**4 > _STACK_ENTRIES
    # The stack built once holds P_1..P_s, s blocks of d^2 rows within
    # the budget.  P_i errs by at most (i - 1) g d^3 per entry, and so
    # does matrix_power, by the argument of _assert_agrees.
    rng = np.random.default_rng(7)
    for d in (2, 3, 4, 8, 9):
        m = _step_matrix(random_scheme(d, rng, d).g)
        s = _stack_height(d)
        stack = _power_stack(m, s)
        assert stack.shape == (s * d * d, d * d)
        assert stack.size <= _STACK_ENTRIES
        g = (d * d + 2) * U
        for i in range(1, s + 1):
            block = stack[(i - 1) * d * d : i * d * d]
            assert max_abs(block - np.linalg.matrix_power(m, i)) <= 2 * (i - 1) * g * d**3


def test_power_stack_grown_in_steps_has_the_bits_of_one_build():
    rng = np.random.default_rng(8)
    for d in (1, 2, 3, 4):
        m = _step_matrix(random_scheme(d, rng, d).g)
        s = _stack_height(d)
        full = _power_stack(m, s)
        stack, built = _power_stack(m, s, 1), 1
        for need in (1, 2, 3, 8, 5, s):
            built = _grow_powers(stack, built, min(s, need))
            assert built >= min(s, need) and built & (built - 1) == 0
            height = built * d * d
            assert stack[:height].tobytes() == full[:height].tobytes()
        assert built == s


@pytest.mark.parametrize("name, height", [("m1zero", 1), ("bitflip_p05", 32)])
def test_series_pass_builds_its_stack_only_as_high_as_its_chunks(name, height, monkeypatch):
    # m1zero stops at n = 0, in its first chunk of one step; bitflip_p05
    # stops at n = 40, in the chunk of 32 steps, below the height of 256.
    grow, heights = program._grow_powers, []

    def recording(blocks, built, need):
        heights.append(grow(blocks, built, need))
        return heights[-1]

    monkeypatch.setattr(program, "_grow_powers", recording)
    prog = load_model(MODELS_DIR / f"{name}.model").validated.scheme
    terminal_state_series(prog)
    assert max(heights) == height < _stack_height(prog.dim)


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


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6, 7, 8])
def test_step_matrix_columns_are_apply_mat_of_the_matrix_units(d):
    # The batched product runs the same Kraus action and in-order sum
    # over k as apply_mat, so every column is bit-identical.
    rng = np.random.default_rng(50 + d)
    for n_kraus in range((d + 1) // 2, (d + 1) // 2 + 3):
        g = random_scheme(d, rng, n_kraus).g
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
    run = _assert_agrees(prog, prog.rho0.mat, 1e-12, 1000)
    assert run.stop_reason == "n_max" and run.n_used == 1000


def test_pass_stops_on_tail_tol_within_n_max():
    prog = load_model(MODELS_DIR / "bitflip_p05.model").to_program()
    run = _assert_agrees(prog, prog.rho0.mat, 1e-12, 10**6)
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
