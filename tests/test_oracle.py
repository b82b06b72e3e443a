import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

import qmcverify
from qmcverify import load_model, oracle_expectation, step_probabilities
from qmcverify.model import ModelOptions

from helpers import MODELS_DIR, P0, bitflip_program, m1_zero_program, oracle_fixed_point
from regen_goldens import GOLDEN_PATH, golden_records
from sampling import random_contracting_program, random_observable


def test_oracle_bitflip_reference_values():
    prog = bitflip_program(0.5, 0.0, 1.0)
    result = oracle_expectation(prog, P0, tail_tol=1e-12)
    assert result.expectation_series == pytest.approx(1.0, abs=1e-8)
    assert result.running_time_series == pytest.approx(3.0, abs=1e-6)


def test_oracle_single_step_when_m1_zero():
    prog = m1_zero_program()
    result = oracle_expectation(prog, P0, tail_tol=1e-12)
    assert result.n_used == 0
    expected = np.trace(
        P0.mat @ prog.meas.m0 @ prog.rho0.mat @ prog.meas.m0.conj().T
    ).real
    assert result.expectation_series == pytest.approx(expected, abs=1e-12)


def test_oracle_flags_divergent_running_time():
    prog = bitflip_program(1.0, 0.6, 0.8)
    result = oracle_expectation(prog, P0, tail_tol=1e-10, n_max=300)
    assert result.running_time_series == math.inf
    assert result.expectation_series == pytest.approx(0.36, abs=1e-10)


def test_oracle_expectation_within_spectral_range(rng):
    for _ in range(5):
        prog = random_contracting_program(2, rng)
        p = random_observable(2, rng, psd=True)
        result = oracle_expectation(prog, p, tail_tol=1e-12)
        w = np.linalg.eigvalsh(p.mat)
        trace_star = sum(rec.p for rec in result.p_table.steps)
        assert w.min() * trace_star - 1e-9 <= result.expectation_series
        assert result.expectation_series <= w.max() * trace_star + 1e-9


def test_oracle_self_consistency_under_refinement(rng):
    for _ in range(5):
        prog = random_contracting_program(2, rng)
        p = random_observable(2, rng, psd=True)
        coarse = oracle_expectation(prog, p, tail_tol=1e-10, n_max=10**5)
        fine = oracle_expectation(prog, p, tail_tol=5e-11, n_max=2 * 10**5)
        assert abs(coarse.expectation_series - fine.expectation_series) <= 1e-7


def test_fixed_point_oracle_bitflip_values():
    q = oracle_fixed_point(bitflip_program(0.5, 0.6, 0.8), P0)
    assert q.mat[1, 1].real == pytest.approx(1.0, abs=1e-10)
    q = oracle_fixed_point(bitflip_program(1.0, 0.6, 0.8), P0)
    assert q.mat[1, 1].real == pytest.approx(0.0, abs=1e-12)


def test_fixed_point_oracle_m1_zero():
    prog = m1_zero_program()
    q = oracle_fixed_point(prog, P0)
    expected = prog.e.apply_dual_mat(prog.meas.m0.conj().T @ P0.mat @ prog.meas.m0)
    assert np.allclose(q.mat, expected, atol=1e-12)


def test_fixed_point_oracle_agrees_with_verifier(rng):
    from qmcverify import least_fixed_point_q

    for _ in range(5):
        prog = random_contracting_program(2, rng)
        p = random_observable(2, rng, psd=True)
        via_oracle = oracle_fixed_point(prog, p)
        via_verifier = least_fixed_point_q(prog, p).q
        assert np.max(np.abs(via_oracle.mat - via_verifier.mat)) <= 1e-9


def test_committed_goldens_match_deep_recomputation():
    committed = json.loads(GOLDEN_PATH.read_text())
    assert committed["format"] == "qmc-goldens/1"
    # regenerate from scratch at double truncation depth
    fresh = golden_records(tail_tol=0.5e-12)
    assert len(fresh["records"]) == len(committed["records"])
    for got, want in zip(fresh["records"], committed["records"]):
        assert got["seed"] == want["seed"]
        assert got["model_hash"] == want["model_hash"]
        assert got["values"]["expectation_series"] == pytest.approx(
            want["values"]["expectation_series"], abs=1e-7
        )
        assert got["values"]["running_time_series"] == pytest.approx(
            want["values"]["running_time_series"], abs=1e-6
        )
        for a, b in zip(got["values"]["p_first"], want["values"]["p_first"]):
            assert a == pytest.approx(b, abs=1e-9)


def test_oracle_near_unit_bitflip_from_one():
    # from |1> every run halts in |0>; the first flip comes after a
    # geometric number of steps, so the mean time is 1 + 1/(1-p)
    p = 0.999
    tol = ModelOptions().tol
    result = oracle_expectation(bitflip_program(p, 0.0, 1.0), P0)
    assert result.expectation_series == pytest.approx(1.0, abs=tol)
    assert result.running_time_series == pytest.approx(1.0 + 1.0 / (1.0 - p), abs=tol)


def test_oracle_step_table_has_one_record_per_term(rng):
    for prog in (bitflip_program(0.5, 0.6, 0.8), m1_zero_program()) + tuple(
        random_contracting_program(2, rng) for _ in range(3)
    ):
        result = oracle_expectation(prog, P0)
        steps = result.p_table.steps
        assert len(steps) == result.n_used + 1
        assert [rec.n for rec in steps] == list(range(1, result.n_used + 2))


def test_oracle_builds_the_step_table_on_first_read(monkeypatch, rng):
    import qmcverify.program as program

    built = []
    record = program.StepRecord

    def counting_record(**fields):
        built.append(fields["n"])
        return record(**fields)

    monkeypatch.setattr(program, "StepRecord", counting_record)
    progs = [bitflip_program(0.5, 0.6, 0.8), bitflip_program(1.0, 0.6, 0.8), m1_zero_program()]
    for prog in progs + [random_contracting_program(2, rng) for _ in range(3)]:
        result = oracle_expectation(prog, P0, n_max=300)
        assert built == []
        table = result.p_table
        assert built == []
        steps = table.steps
        assert built == list(range(1, result.n_used + 2))
        assert table.steps is steps
        assert result.p_table is table
        assert result.residual_mass == table.residual_mass
        want = step_probabilities(prog, result.n_used + 1)
        assert table.steps == want.steps
        assert table.residual_mass == want.residual_mass
        built.clear()


@pytest.mark.parametrize(
    "name, n_max", [("bitflip_p1", None), ("bitflip_p05", 3), ("bitflip_p05", 1000)]
)
def test_running_time_diverges_exactly_when_the_printed_residual_is_large(name, n_max):
    model = load_model(MODELS_DIR / f"{name}.model")
    tail_tol = model.options.tail_tol
    result = oracle_expectation(
        model.to_program(), P0, tail_tol, n_max or model.options.n_max
    )
    diverges = result.residual_mass > math.sqrt(tail_tol)
    assert diverges == (name == "bitflip_p1" or n_max == 3)
    assert diverges == (result.stop_reason == "n_max")
    assert (result.running_time_series == math.inf) == diverges
    assert result.residual_mass == result.run.residual_mass


@pytest.mark.parametrize("seed", [3, 7])
def test_running_time_is_finite_exactly_after_a_tail_tol_stop_on_random_programs(seed):
    prog = random_contracting_program(2, np.random.default_rng(seed))
    seen = set()
    for tail_tol, n_max in ((1e-12, 10**6), (1e-12, 5), (1e-12, 2), (1e-4, 10**6)):
        result = oracle_expectation(prog, P0, tail_tol, n_max)
        finite = result.stop_reason == "tail_tol"
        assert (result.running_time_series < math.inf) == finite
        if finite:
            assert result.running_time_series == result.run.time_sum
        seen.add(finite)
    assert seen == {True, False}


def test_running_time_after_an_n_max_cut_is_infinite_however_little_mass_is_left():
    # Five steps leave 7.5e-7 of mass, below sqrt(tail_tol), yet the
    # partial sum 1.0704371... misses the full 1.0704425... by 5.3e-6.
    prog = random_contracting_program(2, np.random.default_rng(7))
    full = oracle_expectation(prog, P0, 1e-12)
    cut = oracle_expectation(prog, P0, 1e-12, 5)
    assert full.stop_reason == "tail_tol"
    assert cut.stop_reason == "n_max" and cut.residual_mass < math.sqrt(1e-12)
    assert full.running_time_series - cut.run.time_sum > ModelOptions().tol
    assert cut.running_time_series == math.inf


def test_oracle_stop_reason():
    assert oracle_expectation(bitflip_program(0.5, 0.6, 0.8), P0).stop_reason == "tail_tol"
    result = oracle_expectation(bitflip_program(1.0, 0.6, 0.8), P0, n_max=300)
    assert result.stop_reason == "n_max" and result.n_used == 300


@pytest.mark.parametrize("module", ["oracle", "program"])
def test_series_route_imports_nothing_from_other_routes(module):
    source = Path(qmcverify.__file__).with_name(f"{module}.py").read_text()
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert not imported & {"invariant", "spectral"}
