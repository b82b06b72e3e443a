import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmcverify import (
    EigensolverError,
    ProgramScheme,
    cli,
    least_fixed_point_q,
    program,
    termination,
)
from qmcverify.cli import main
from qmcverify.model import Model, dumps, load_model, save_model

from helpers import (
    MODELS_DIR,
    P0,
    bitflip_program,
    count_calls,
    counter_scheme,
    exact_expectation,
    exact_running_time,
)
from sampling import random_contracting_program, random_observable, random_program


def model(name):
    return str(MODELS_DIR / name)


def test_verify_all_methods_agree(capsys):
    code = main(["verify", model("bitflip_p05.model"), "-o", "P0", "--method", "all"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("1.0e-06") >= 3
    for method in ("series", "invariant", "spectral"):
        assert method in out
    assert "OK" in out


def test_verify_spectral_on_stuck_program_warns_but_succeeds(capsys):
    code = main(["verify", model("bitflip_p1.model"), "-o", "P0", "--method", "spectral"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.36" in out
    assert "not almost-terminating" in out
    assert "series expectations are lower estimates" in out


def assert_says_series_cannot_finish(err):
    assert "spectral check finds the program not almost-terminating" in err
    assert "unit overlap 0.64" in err
    assert "series method cannot use up the mass that survives" in err
    assert "QV3" not in err


def test_verify_series_on_stuck_program_exits_4(capsys):
    code = main(["verify", model("bitflip_p1.model"), "-o", "P0", "--method", "series"])
    err = capsys.readouterr().err
    assert code == 4
    assert_says_series_cannot_finish(err)


def test_verify_warns_that_a_cut_series_of_a_general_observable_has_no_bound(tmp_path, capsys):
    # d=3: |2> never halts, |1> flips to the halting |0> with rate 1 - p.
    # With o = -|0><0| the partial sums fall toward the limit -1/2, so the
    # cut series lies above it: it is no lower estimate.
    p = 0.9
    flip = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    path = tmp_path / "stuck3.model"
    save_model(
        Model(dim=3, kraus=[np.sqrt(p) * np.eye(3), np.sqrt(1 - p) * flip],
              m0=np.diag([1.0, 0, 0]), m1=np.diag([0, 1.0, 1.0]), rho0=np.diag([0, 0.5, 0.5]),
              observables={"negP0": np.diag([-1.0, 0, 0]), "P0": np.diag([1.0, 0, 0])}),
        path,
    )
    out_json = tmp_path / "r.json"
    argv = ["verify", str(path), "--n-max", "50", "--json-out", str(out_json)]
    assert main(argv + ["-o", "negP0"]) == 4
    out = capsys.readouterr().out
    assert "series expectations are truncated and their error is unbounded" in out
    assert "lower estimates" not in out
    values = {m["method"]: m["value"] for m in json.loads(out_json.read_text())["methods"]}
    assert values["spectral"] == pytest.approx(-0.5, abs=1e-9)
    assert values["series"] > values["spectral"] + 1e-3
    assert main(argv + ["-o", "P0"]) == 4
    out = capsys.readouterr().out
    assert "series expectations are lower estimates" in out
    assert "unbounded" not in out


def test_verify_exit_3_when_tolerance_is_absurd(capsys):
    code = main(
        ["verify", model("bitflip_p05.model"), "-o", "P0", "--method", "all", "--tol", "1e-18"]
    )
    assert code == 3
    assert "disagree" in capsys.readouterr().err


def strict_json(text):
    def reject(constant):
        raise ValueError(f"bare {constant} is not JSON")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "target, fault",
    [
        ("expectation_closed_form", lambda *args: math.nan),
        ("certified_expectation", lambda *args, **kwargs: (math.nan, {})),
    ],
    ids=["spectral", "invariant"],
)
def test_verify_a_nan_value_disagrees(target, fault, tmp_path, monkeypatch, capsys):
    # A NaN delta loses every comparison, so a max over the pairs would
    # keep or drop it by their order; it must disagree in any position.
    monkeypatch.setattr(cli, target, fault)
    out = tmp_path / "r.json"
    argv = ["verify", model("bitflip_p05.model"), "-o", "P0", "--method", "all"]
    assert main(argv + ["--json-out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "max pairwise delta nan" in captured.out and "DISAGREE" in captured.out
    assert "methods disagree by nan" in captured.err
    agreement = strict_json(out.read_text())["agreement"]
    assert agreement["max_delta"] == "nan" and agreement["ok"] is False


@pytest.mark.parametrize("method", ["series", "invariant", "spectral"])
def test_verify_single_method_has_no_agreement(method, tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["verify", model("bitflip_p05.model"), "-o", "P0", "--method", method]
    assert main(argv + ["--tol", "0", "--json-out", str(out)]) == 0
    assert "agreement:" not in capsys.readouterr().out
    assert "agreement" not in json.loads(out.read_text())


@pytest.mark.parametrize("shift", [0.0, 1e-3])
def test_verify_refusal_comes_before_disagreement(shift, monkeypatch, capsys):
    # The routes agree exactly on bitflip_p1; the shifted spectral value
    # makes them disagree, and the series refusal still decides.
    closed_form = cli.expectation_closed_form
    monkeypatch.setattr(
        cli, "expectation_closed_form", lambda *args: closed_form(*args) + shift
    )
    argv = ["verify", model("bitflip_p1.model"), "-o", "P0", "--method", "all", "--tol", "0"]
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert ("DISAGREE" in captured.out) == (shift > 0)
    assert_says_series_cannot_finish(captured.err)
    assert "disagree by" not in captured.err


def test_verify_malformed_model_exits_2(tmp_path, capsys):
    bad = load_model(model("bitflip_p05.model"))
    bad.kraus[0] = 1.2 * np.eye(2, dtype=complex)
    path = tmp_path / "bad.model"
    path.write_text(dumps(bad))
    code = main(["verify", str(path), "-o", "P0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "eigenvalue" in err


def test_verify_missing_file_exits_2(capsys):
    assert main(["verify", "nope.model", "-o", "P0"]) == 2


def test_numerical_failure_exits_5(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise EigensolverError(4, 1.0, "did not converge")

    monkeypatch.setattr("qmcverify.cli.build_representation", fail)
    code = main(["verify", model("bitflip_p05.model"), "-o", "P0"])
    assert code == 5
    assert "eigensolver failed" in capsys.readouterr().err
    capsys.readouterr()


def test_invariant_numerical_fault_exits_5(monkeypatch, capsys):
    # A NaN in the step's matrix reaches the doubling stage's increments:
    # a fault of the fixed-point iteration, not bad input.
    from qmcverify import invariant

    representation = invariant.matrix_representation

    def faulty(g):
        m = representation(g)
        m[0, 0] = np.nan
        return m

    monkeypatch.setattr(invariant, "matrix_representation", faulty)
    assert main(["verify", model("bitflip_p05.model"), "-o", "P0", "--method", "invariant"]) == 5
    assert "fixed-point iteration produced an increment with NaN" in capsys.readouterr().err


def _seed3_model(tmp_path, rho0_scale=1.0):
    """A d = 3 random program, which the series runs on its step matrix."""
    rng = np.random.default_rng(3)
    prog = random_contracting_program(3, rng)
    p = random_observable(3, rng, psd=True)
    path = tmp_path / "seed3.model"
    save_model(Model(dim=3, kraus=[np.array(k) for k in prog.e.kraus], m0=np.array(prog.meas.m0),
                     m1=np.array(prog.meas.m1), rho0=rho0_scale * np.array(prog.rho0.mat),
                     observables={"P": p.mat}), path)
    return str(path)


@pytest.mark.parametrize("delta, code", [(1e-6, 5), (1e-8, 0)])
def test_series_terminal_state_fault_is_numerical_not_bad_input(
    delta, code, monkeypatch, tmp_path, capsys
):
    # Scaling one entry of the series' step matrix by 1 + delta pushes the
    # terminal sum's trace above one at 1e-6: a fault of the series route,
    # which exits 5; at 1e-8 the sum still passes its check.
    path = _seed3_model(tmp_path)
    step_matrix = program._step_matrix

    def faulty(g):
        m = step_matrix(g)
        m[0, 0] *= 1 + delta
        return m

    monkeypatch.setattr(program, "_step_matrix", faulty)
    for method in ("all", "series"):
        assert main(["verify", path, "-o", "P", "--method", method]) == code
        err = capsys.readouterr().err
        assert ("series terminal state: density operator has trace" in err) == (code == 5)


def test_initial_state_with_a_bad_trace_is_still_bad_input(tmp_path, capsys):
    assert main(["verify", _seed3_model(tmp_path, rho0_scale=1.01), "-o", "P"]) == 2
    assert "trace" in capsys.readouterr().err


def _one_nan_eigenvalue(eigvals):
    def patched(a):
        w = eigvals(a).copy()
        w[0] = np.nan
        return w

    return patched


def _nan_eigenvectors(eig):
    def patched(a):
        w, v = eig(a)
        return w, np.full_like(v, np.nan)

    return patched


@pytest.mark.parametrize(
    "command", [["verify", "-o", "P0"], ["terminate"], ["spectrum"]], ids=lambda c: c[0]
)
@pytest.mark.parametrize(
    "fault, name",
    [
        ("eigvals", "bitflip_p05"),
        ("eigvals", "bitflip_p1"),
        ("eigvals", "unitary_m0zero"),
        ("eig", "bitflip_p1"),
        ("eig", "unitary_m0zero"),
    ],
)
def test_non_finite_eigensolver_output_exits_5(fault, name, command, monkeypatch, capsys):
    # A NaN passes every `gap > tol` check, so it must be refused where the
    # eigensolver returns it.  eig runs only with unit spectrum, which
    # bitflip_p05 lacks.  Its step is certified to have none, so verify and
    # terminate run no eigensolve on it; spectrum, which always does, runs
    # on it in their place.
    patch = {"eigvals": _one_nan_eigenvalue, "eig": _nan_eigenvectors}[fault]
    monkeypatch.setattr(np.linalg, fault, patch(getattr(np.linalg, fault)))
    argv = [command[0], model(f"{name}.model"), *command[1:]]
    if name == "bitflip_p05":
        if command[0] != "spectrum":
            assert main(argv) == 0
        argv = ["spectrum", model(f"{name}.model")]
    assert main(argv) == 5
    assert "non-finite output" in capsys.readouterr().err


def test_radius_guard_names_eps_unit(capsys):
    # The diagonal unitary has spectral radius 1 up to rounding; with
    # eps_unit = 0 the guard fires on that rounding and must say so.
    for command in ("spectrum", "terminate"):
        code = main([command, model("unitary_m0zero.model"), "--eps-unit", "0"])
        err = capsys.readouterr().err
        assert code == 5
        assert "eps_unit" in err and "rounding" in err


def test_runtime_bitflip(capsys):
    code = main(["runtime", model("bitflip_p05.model")])
    out = capsys.readouterr().out
    assert code == 0
    assert "3" in out.split("spectral")[1].split()[0]


def test_runtime_routes_agree_on_a_step_that_loses_a_little_trace(tmp_path, capsys):
    # bitflip at p = 0.99 from |1>, sqrt(0.99) written with 9 digits: the
    # step loses 2.1e-10 of trace (under TOL_TP) and runs about 101 steps.
    # Both routes sum (n + 1) p_n; the state sum tr Y would read 2.1e-6
    # more, past the tolerance of 1e-6.
    doc = json.loads(Path(model("bitflip_p05.model")).read_text())
    a, b, z = [0.994987437, 0.0], [0.1, 0.0], [0.0, 0.0]
    doc["kraus"] = [[[a, z], [z, a]], [[z, b], [b, z]]]
    path, out = tmp_path / "defect.model", tmp_path / "runtime.json"
    path.write_text(json.dumps(doc))
    assert main(["runtime", str(path), "--json-out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["agreement"]["max_delta"] < 1e-8
    assert [round(row["value"]) for row in report["methods"]] == [101, 101]


def test_runtime_m1_zero(capsys):
    code = main(["runtime", model("m1zero.model")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.split("spectral")[1].split()[0] == "1"


def test_runtime_stuck_program_reports_infinite(capsys):
    code = main(["runtime", model("bitflip_p1.model")])
    out = capsys.readouterr().out
    assert code == 0
    assert "inf" in out
    assert "unit_overlap=0.64" in out


def test_runtime_finite_against_infinite_disagrees(tmp_path, capsys):
    # Three steps leave mass 0.125 behind, so the series running time is
    # inf while the spectral one is 3: that pair is apart by inf.
    out = tmp_path / "runtime.json"
    code = main(["runtime", model("bitflip_p05.model"), "--n-max", "3", "--json-out", str(out)])
    captured = capsys.readouterr()
    assert code == 3
    assert "max pairwise delta inf" in captured.out and "DISAGREE" in captured.out
    assert "running times disagree by inf" in captured.err
    agreement = json.loads(out.read_text())["agreement"]
    assert agreement == {
        "max_delta": "inf", "ok": False, "pairs": {"spectral/series": "inf"}, "tolerance": 1e-6,
    }


def test_runtime_cut_by_n_max_with_little_mass_left_disagrees(tmp_path, capsys):
    # Five steps leave under 1e-6 of mass, but the series cannot bound the
    # running time it cut off, so it reports inf against the spectral value.
    prog = random_contracting_program(2, np.random.default_rng(7))
    path = tmp_path / "seed7.model"
    save_model(Model(dim=2, kraus=[np.array(k) for k in prog.e.kraus], m0=np.array(prog.meas.m0),
                     m1=np.array(prog.meas.m1), rho0=np.array(prog.rho0.mat), observables={}), path)
    assert main(["runtime", str(path)]) == 0
    assert main(["runtime", str(path), "--n-max", "5"]) == 3
    assert "running times disagree by inf" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["bitflip_p1.model", "unitary_m0zero.model"])
def test_runtime_two_infinite_values_stay_unpaired(name, tmp_path, capsys):
    out = tmp_path / "runtime.json"
    assert main(["runtime", model(name), "--json-out", str(out)]) == 0
    assert "max pairwise delta 0 " in capsys.readouterr().out
    assert json.loads(out.read_text())["agreement"]["pairs"] == {}


def test_terminate_xflip_scheme(capsys):
    code = main(["terminate", model("xflip_scheme.model"), "--scope", "scheme"])
    out = capsys.readouterr().out
    assert code == 0
    assert "yes at step 2" in out


def test_terminate_bitflip_scheme_almost_only(capsys):
    code = main(["terminate", model("bitflip_p05.model"), "--scope", "scheme"])
    out = capsys.readouterr().out
    assert code == 0
    assert "terminates:        no" in out
    assert "almost terminates: yes" in out


def test_terminate_stuck_scheme_not_almost(capsys):
    code = main(["terminate", model("bitflip_p1.model"), "--scope", "scheme"])
    out = capsys.readouterr().out
    assert code == 0
    assert "almost terminates: no" in out


@pytest.mark.parametrize(
    "name, scope, block, lines",
    [
        ("counter", "program",
         {"support_stop": "vanished", "nilpotent_check_power": 6, "terminates_at": 6},
         ["support search:    vanished at step 6", "largest dropped:   0\n"]),
        ("random", "scheme",
         {"support_stop": "whole_space", "nilpotent_check_power": 1,
          "support_dropped_max": None},
         ["support search:    whole_space at step 1", "largest dropped:   none\n"]),
    ],
)
def test_terminate_reports_how_the_support_search_ended(
    name, scope, block, lines, tmp_path, capsys
):
    out = tmp_path / "t.json"
    argv = ["terminate", _program_model(name, tmp_path), "--scope", scope,
            "--json-out", str(out)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    termination_block = json.loads(out.read_text())["termination"]
    assert termination_block.items() >= block.items()
    assert 0.0 < termination_block["support_kept_min"] <= 1.0
    assert f"smallest kept:     {termination_block['support_kept_min']:.6g}\n" in text
    for line in lines:
        assert line in text


def test_spectrum_ordering_and_flags(capsys):
    code = main(["spectrum", model("bitflip_p05.model")])
    out = capsys.readouterr().out
    assert code == 0
    lines = [l for l in out.splitlines() if "|lambda|" in l]
    moduli = [float(l.split("|lambda| =")[1].split()[0]) for l in lines]
    assert moduli == sorted(moduli, reverse=True)
    assert "unit-circle" not in out


def test_spectrum_stuck_bitflip_single_unit_flag(capsys):
    code = main(["spectrum", model("bitflip_p1.model")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("unit-circle") == 1
    assert "semisimple_unit_part=True" in out


EIGENVALUE_TABLE_CASES = [
    # The table sorts the decided flags with their eigenvalues instead of
    # deciding the unit circle again: here 0.99999999 is flagged and 1 is
    # not, which no eps_unit rule would give.
    (
        [0.5, 1.0, -0.99999999, 0.5j],
        [False, False, True, True],
        [(1.0, 0.0, False), (-0.99999999, 0.0, True), (0.5, 0.0, False), (0.0, 0.5, True)],
    ),
    # Ties in modulus: descending real part, then descending imaginary
    # part, so a conjugate pair lists its upper member first.  The literal
    # -1j is complex(-0.0, -1.0).
    (
        [-1j, -1.0, 0.25 - 0.5j, 1j, 1.0, 0.25 + 0.5j],
        [True, True, False, True, True, False],
        [(1.0, 0.0, True), (0.0, 1.0, True), (-0.0, -1.0, True), (-1.0, 0.0, True),
         (0.25, 0.5, False), (0.25, -0.5, False)],
    ),
    # Signed zeros tie with unsigned ones, keep their order and their sign.
    (
        [complex(0.0, -0.0), complex(-0.0, 0.0), complex(0.5, -0.0),
         complex(-0.0, -0.0), complex(0.5, 0.0)],
        [False] * 5,
        [(0.5, -0.0, False), (0.5, 0.0, False), (0.0, -0.0, False),
         (-0.0, 0.0, False), (-0.0, -0.0, False)],
    ),
]


def test_eigenvalue_table_reports_the_spectral_layers_flags():
    from types import SimpleNamespace

    from qmcverify.report import eigenvalue_table

    for eigenvalues, flags, expected in EIGENVALUE_TABLE_CASES:
        spectral = SimpleNamespace(
            eigenvalues=np.array(eigenvalues, dtype=complex),
            unit_circle_flags=np.array(flags),
        )
        rows = eigenvalue_table(spectral)
        assert [(repr(r["re"]), repr(r["im"]), r["unit_circle"]) for r in rows] == [
            (repr(re), repr(im), unit) for re, im, unit in expected
        ]


def test_spectrum_reports_scheme_termination_without_rank_of_powers(
    monkeypatch, tmp_path, capsys
):
    calls = []
    matrix_rank = np.linalg.matrix_rank

    def counting_rank(*args, **kwargs):
        calls.append(1)
        return matrix_rank(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "matrix_rank", counting_rank)
    scheme = counter_scheme(6)
    path = tmp_path / "counter.model"
    save_model(
        Model(dim=6, kraus=list(scheme.e.kraus), m0=scheme.meas.m0, m1=scheme.meas.m1,
              rho0=None, observables={}),
        path,
    )
    code = main(["spectrum", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "scheme_terminates_at=6" in out
    assert calls == []


def _program_model(name, tmp_path) -> str:
    """The counter program from |0> (d = 6) or a seeded random one (d = 4),
    each with one observable ``P = M0^dag M0``."""
    if name == "counter":
        scheme = counter_scheme(6)
        kraus, m0, m1 = list(scheme.e.kraus), scheme.meas.m0, scheme.meas.m1
        rho0 = np.diag([1.0] + [0.0] * 5).astype(complex)
    else:
        prog = random_contracting_program(4, np.random.default_rng(7))
        kraus, m0, m1, rho0 = list(prog.e.kraus), prog.meas.m0, prog.meas.m1, prog.rho0.mat
    path = tmp_path / f"{name}.model"
    observables = {"P": m0.conj().T @ m0}
    save_model(
        Model(dim=m0.shape[0], kraus=kraus, m0=m0, m1=m1, rho0=rho0, observables=observables),
        path,
    )
    return str(path)


@pytest.mark.parametrize("name", ["counter", "random"])
def test_only_terminate_and_spectrum_run_the_exact_termination_search(
    name, monkeypatch, tmp_path, capsys
):
    path = _program_model(name, tmp_path)
    calls = []
    support = termination._range

    def counting_range(mat):
        calls.append(1)
        return support(mat)

    monkeypatch.setattr(termination, "_range", counting_range)
    for argv, searches in (
        (["verify", path, "-o", "P"], False),
        (["runtime", path], False),
        (["terminate", path], True),
        (["terminate", path, "--scope", "scheme"], True),
        (["spectrum", path], True),
    ):
        calls.clear()
        assert main(argv) == 0
        assert bool(calls) == searches, argv
    capsys.readouterr()


def test_verify_invariant_alone_is_sound_on_stuck_program(capsys):
    # the least invariant satisfies Q-termination even here, so no exit 4
    code = main(["verify", model("bitflip_p1.model"), "-o", "P0", "--method", "invariant"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0.36" in out
    assert "qv3=True" in out


def test_spectrum_unitary_model_all_unit(capsys):
    code = main(["spectrum", model("unitary_m0zero.model")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("unit-circle") == 4
    assert "semisimple_unit_part=True" in out


def test_simulate_table(capsys):
    code = main(["simulate", model("bitflip_p05.model"), "--steps", "4"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(rows) == 4
    assert rows[1].split("\t")[1] == "0.5"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "-o", "P0"],
        ["verify", "-o", "Z"],
        ["runtime"],
        ["terminate", "--scope", "program"],
        ["terminate", "--scope", "scheme"],
        ["spectrum"],
        ["simulate"],
    ],
    ids=[
        "verify-P0",
        "verify-Z",
        "runtime",
        "terminate-program",
        "terminate-scheme",
        "spectrum",
        "simulate",
    ],
)
def test_json_report_is_deterministic(argv, tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    command, *rest = argv
    for out in (a, b):
        assert main([command, model("bitflip_p05.model"), *rest, "--json-out", str(out)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["command"] == command
    if command == "verify":
        assert {m["method"] for m in doc["methods"]} == {"series", "invariant", "spectral"}
    for m in doc.get("methods", []):
        assert "tolerance" in m and "value" in m


def test_json_report_serializes_infinity_as_string(tmp_path, capsys):
    out = tmp_path / "runtime.json"
    main(["runtime", model("bitflip_p1.model"), "--json-out", str(out)])
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert all(m["value"] == "inf" for m in doc["methods"])


def test_option_overrides_change_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    main(
        [
            "verify", model("bitflip_p05.model"), "-o", "P0",
            "--method", "series", "--tail-tol", "1e-6", "--json-out", str(out),
        ]
    )
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["options"]["tail_tol"] == 1e-6


def test_regen_goldens_round_trip(tmp_path):
    # The regeneration is a test script, not a subcommand; run it as the
    # README does, from the checkout's root with src/ on the path.
    out = tmp_path / "g.json"
    root = Path(__file__).parent.parent
    done = subprocess.run(
        [sys.executable, "tests/regen_goldens.py", str(out)],
        cwd=root,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"wrote 6 golden records to {out}\n"
    assert out.read_bytes() == (root / "tests" / "goldens" / "oracle_goldens.json").read_bytes()


def test_verify_general_observable_on_terminating_program(tmp_path, capsys):
    out = tmp_path / "z.json"
    code = main(["verify", model("bitflip_p05.model"), "-o", "Z", "--json-out", str(out)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    assert {m["method"] for m in doc["methods"]} == {"series", "invariant", "spectral"}
    for m in doc["methods"]:
        assert m["value"] == pytest.approx(1.0, abs=1e-6)
    inv = next(m for m in doc["methods"] if m["method"] == "invariant")["diagnostics"]
    assert inv["converged"] and inv["qv2"] and inv["qv3"]


def test_verify_general_observable_on_stuck_program_exits_4(tmp_path, capsys):
    out = tmp_path / "z.json"
    code = main(["verify", model("bitflip_p1.model"), "-o", "Z", "--json-out", str(out)])
    assert_says_series_cannot_finish(capsys.readouterr().err)
    assert code == 4
    doc = json.loads(out.read_text())
    for m in doc["methods"]:
        assert m["value"] == pytest.approx(0.36, abs=1e-6)


def test_n_max_caps_fixed_point_iteration(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        [
            "verify", model("bitflip_p05.model"), "-o", "P0", "--method", "invariant",
            "--n-max", "3", "--json-out", str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    (inv,) = json.loads(out.read_text())["methods"]
    # uncapped, the invariant route takes 7 iterations here
    assert inv["diagnostics"]["iterations"] == 3
    assert not inv["diagnostics"]["converged"]
    assert inv["diagnostics"]["stop_reason"] == "n_max"


def test_option_overrides_leave_the_model_unchanged(monkeypatch):
    from qmcverify import cli

    loaded = load_model(model("bitflip_p05.model"))
    monkeypatch.setattr(cli, "load_model", lambda path: loaded)
    args = cli.build_parser().parse_args(
        ["verify", model("bitflip_p05.model"), "-o", "P0", "--n-max", "10"]
    )
    _, opts = cli._load(args)
    assert opts.n_max == 10
    assert loaded.options.n_max == 1_000_000


# The model options each subcommand reads, and so takes overrides for.
OVERRIDES = {
    "verify": {"--tail-tol", "--n-max", "--eps-unit", "--tol"},
    "runtime": {"--tail-tol", "--n-max", "--eps-unit", "--tol"},
    "terminate": {"--eps-unit"},
    "spectrum": {"--eps-unit"},
    "simulate": set(),
}
OVERRIDE_VALUES = {"--tail-tol": "1e-10", "--n-max": "10", "--eps-unit": "1e-9", "--tol": "1e-3"}


@pytest.mark.parametrize("command", sorted(OVERRIDES))
def test_each_subcommand_takes_only_the_overrides_it_reads(command, capsys):
    extra = ["-o", "P0"] if command == "verify" else []
    for flag, value in OVERRIDE_VALUES.items():
        argv = [command, model("bitflip_p05.model"), *extra, flag, value]
        if flag in OVERRIDES[command]:
            _, opts = cli._load(cli.build_parser().parse_args(argv))
            assert getattr(opts, flag[2:].replace("-", "_")) == float(value)
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag,value,option",
    [
        ("--n-max", "0", "n_max"),
        ("--n-max", "-3", "n_max"),
        ("--n-max", "2.5", "n_max"),
        ("--n-max", "nan", "n_max"),
        ("--n-max", "1e400", "n_max"),
        ("--tol", "-1", "tol"),
        ("--tol", "nan", "tol"),
        ("--tol", "inf", "tol"),
        ("--eps-unit", "-1", "eps_unit"),
        ("--eps-unit", "nan", "eps_unit"),
        ("--eps-unit", "1", "eps_unit"),
        ("--tail-tol", "nan", "tail_tol"),
        ("--tail-tol", "0", "tail_tol"),
        ("--tail-tol", "-1e-12", "tail_tol"),
    ],
)
def test_bad_option_override_exits_2(flag, value, option, capsys):
    code = main(["verify", model("bitflip_p05.model"), "-o", "P0", f"{flag}={value}"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"option {option} " in err


@pytest.mark.parametrize("value", ["1", "2", "1e300"])
@pytest.mark.parametrize("command", ["verify", "runtime", "terminate", "spectrum"])
def test_eps_unit_of_one_or_more_exits_2(command, value, capsys):
    # The window ||lambda| - 1| <= eps_unit would hold 0 and flag every
    # eigenvalue unit-circle.
    extra = ["-o", "P0"] if command == "verify" else []
    code = main([command, model("bitflip_p05.model"), *extra, "--eps-unit", value])
    assert code == 2
    assert "option eps_unit must be a finite number >= 0 and < 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "options,option",
    [
        ({"n_max": 0}, "n_max"),
        ({"n_max": 2.5}, "n_max"),
        ({"tail_tol": 0.0}, "tail_tol"),
        ({"tol": -1.0}, "tol"),
        ({"eps_unit": "1e-7"}, "eps_unit"),
        ({"eps_unit": 1}, "eps_unit"),
    ],
)
def test_bad_option_in_model_file_exits_2(options, option, tmp_path, capsys):
    doc = json.loads(Path(model("bitflip_p05.model")).read_text())
    doc["options"].update(options)
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc))
    code = main(["verify", str(path), "-o", "P0"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"option {option} " in err


@pytest.mark.parametrize(
    "field,raw",
    [
        ("dim", '"two"'),
        ("dim", "null"),
        ("dim", "[2]"),
        ("dim", "1e400"),
        ("dim", "2.5"),
        ("dim", '"2"'),
        ("dim", "true"),
        ("observables", "[1, 2]"),
        ("options", "5"),
    ],
)
def test_malformed_model_field_exits_2(field, raw, tmp_path, capsys):
    # raw is JSON text, so that 1e400 reaches the loader as written
    doc = json.loads(Path(model("bitflip_p05.model")).read_text())
    doc[field] = "<raw>"
    path = tmp_path / "bad.model"
    path.write_text(json.dumps(doc).replace('"<raw>"', raw))
    code = main(["verify", str(path), "-o", "P0"])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{field} must be " in err


# An integer too large for a float.
_HUGE_INT = "1" + "0" * 400


def _bad_input_argv(case, tmp_path):
    """``runtime`` argv that hits one kind of bad input, or ``terminate``
    with a ``--json-out`` that is a directory."""
    if case == "json_out_is_a_directory":
        return ["terminate", model("m1zero.model"), "--json-out", str(tmp_path)]
    if case == "model_is_a_directory":
        return ["runtime", str(tmp_path)]
    path = tmp_path / "bad.model"
    text = Path(model("bitflip_p05.model")).read_text()
    if case == "not_utf8":
        path.write_bytes(text.encode().replace(b'"P0"', b'"P\xe9"'))
    elif case == "deep_nesting":
        path.write_text("[" * 100_000)
    else:
        doc = json.loads(text)
        if case == "dim":
            doc["dim"] = "<raw>"
        else:
            doc["options"]["tol" if case == "integer_of_5000_digits" else case] = "<raw>"
        raw = "1" * 5000 if case == "integer_of_5000_digits" else _HUGE_INT
        path.write_text(json.dumps(doc).replace('"<raw>"', raw))
    return ["runtime", str(path)]


@pytest.mark.parametrize(
    "case",
    [
        "tol",
        "tail_tol",
        "n_max",
        "dim",
        "integer_of_5000_digits",
        "deep_nesting",
        "not_utf8",
        "model_is_a_directory",
        "json_out_is_a_directory",
    ],
)
def test_bad_input_exits_2_with_one_error_line(case, tmp_path, capsys):
    code = main(_bad_input_argv(case, tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


def test_verify_invariant_certifies_near_unit_bitflip(tmp_path, capsys):
    # stay with p = 0.99999, flip with 1 - p: from |1> everything halts in |0>
    near = load_model(model("bitflip_p05.model"))
    p = 0.99999
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    near.kraus = [np.sqrt(p) * np.eye(2, dtype=complex), np.sqrt(1 - p) * x]
    path = tmp_path / "near.model"
    path.write_text(dumps(near))
    out = tmp_path / "r.json"
    code = main(
        ["verify", str(path), "-o", "P0", "--method", "invariant", "--json-out", str(out)]
    )
    capsys.readouterr()
    assert code == 0
    (inv,) = json.loads(out.read_text())["methods"]
    diag = inv["diagnostics"]
    assert diag["converged"] and diag["stop_reason"] == "bound"
    assert diag["error_bound"] < 1e-12
    assert diag["qv3"] and "qv3_limit" not in diag
    assert diag["iterations"] < 300
    assert inv["value"] == pytest.approx(1.0, abs=1e-11)
    assert diag["qv1_value"] == inv["value"]


@pytest.mark.parametrize("steps", ["0", "-2", "2.5", "nan", "1e400"])
def test_simulate_rejects_nonpositive_steps(steps, capsys):
    # The rule, not argparse, refuses a count that is not whole too.
    code = main(["simulate", model("bitflip_p05.model"), "--steps", steps])
    err = capsys.readouterr().err
    assert code == 2
    assert "--steps" in err
    assert "n_max" not in err
    assert err.startswith("error: option --steps must be an integer >= 1, got "), err


def test_simulate_reads_a_whole_float_steps_as_its_integer(capsys):
    assert main(["simulate", model("bitflip_p05.model"), "--steps", "4"]) == 0
    want = capsys.readouterr().out
    assert main(["simulate", model("bitflip_p05.model"), "--steps", "4e0"]) == 0
    assert capsys.readouterr().out == want


def _run(argv, tmp_path, capsys):
    """``(exit code, stdout, report bytes)`` of one CLI call."""
    out = tmp_path / "report.json"
    out.unlink(missing_ok=True)
    code = main([*argv, "--json-out", str(out)])
    return code, capsys.readouterr().out, out.read_bytes()


def test_n_max_flag_reads_1e6_as_the_model_file_does(tmp_path, capsys):
    # "n_max": 1e6 in a model file loads as 1000000, and so does the flag.
    argv = ["verify", model("bitflip_p05.model"), "-o", "P0"]
    whole = _run([*argv, "--n-max", "1000000"], tmp_path, capsys)
    assert whole[0] == 0
    assert _run([*argv, "--n-max", "1e6"], tmp_path, capsys) == whole


@pytest.mark.parametrize(
    "flag,option,text",
    [("--tol", "tol", "1"), ("--eps-unit", "eps_unit", "0"), ("--n-max", "n_max", "500.0")],
)
def test_a_flag_and_the_model_file_give_the_same_option(flag, option, text, tmp_path, capsys):
    # The same number gives the same option, and so the same report
    # bytes, whether a flag or the model file gives it.
    doc = json.loads(Path(model("bitflip_p05.model")).read_text())
    doc["options"][option] = "<raw>"
    path = tmp_path / "same.model"
    path.write_text(json.dumps(doc).replace('"<raw>"', text))
    from_file = _run(["runtime", str(path)], tmp_path, capsys)
    from_flag = _run(["runtime", model("bitflip_p05.model"), flag, text], tmp_path, capsys)
    file_doc, flag_doc = (json.loads(run[2]) for run in (from_file, from_flag))
    assert json.dumps(file_doc["options"]) == json.dumps(flag_doc["options"])


def test_repeated_main_calls_share_the_parser_but_not_options(monkeypatch, tmp_path, capsys):
    from qmcverify import cli

    first, second = tmp_path / "first.json", tmp_path / "second.json"
    argv = ["verify", model("bitflip_p05.model"), "-o", "P0", "--method", "invariant"]
    assert main(argv + ["--n-max", "10", "--tol", "1e-3", "--json-out", str(first)]) == 0

    def no_new_parser():
        raise AssertionError("main() built a second parser")

    monkeypatch.setattr(cli, "build_parser", no_new_parser)
    assert main(argv + ["--json-out", str(second)]) == 0
    capsys.readouterr()
    assert json.loads(first.read_text())["options"]["n_max"] == 10
    defaults = load_model(model("bitflip_p05.model")).options.to_dict()
    report = json.loads(second.read_text())
    assert report["options"] == defaults
    assert report["methods"][0]["diagnostics"]["converged"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "bitflip_p05.model", "-o", "Z"],
        ["runtime", "bitflip_p05.model"],
        ["terminate", "bitflip_p05.model"],
        ["terminate", "bitflip_p05.model", "--scope", "scheme"],
        ["terminate", "xflip_scheme.model", "--scope", "scheme"],
    ],
)
def test_one_validated_construction_per_call(argv, monkeypatch, capsys):
    built = []
    check = ProgramScheme.__post_init__

    def spy(self):
        built.append(type(self).__name__)
        check(self)

    monkeypatch.setattr(ProgramScheme, "__post_init__", spy)
    assert main([argv[0], model(argv[1]), *argv[2:]]) == 0
    capsys.readouterr()
    assert built == ["ProgramScheme"]


def _bitflip_from_one_model(gap, tmp_path) -> str:
    """Bitflip with ``1 - p = gap`` started in |1>, with the observable
    ``P0``."""
    prog = bitflip_program(1.0 - gap, 0.0, 1.0)
    path = tmp_path / "bitflip.model"
    save_model(
        Model(dim=2, kraus=list(prog.e.kraus), m0=prog.meas.m0, m1=prog.meas.m1,
              rho0=prog.rho0.mat, observables={"P0": P0.mat}),
        path,
    )
    return str(path)


@pytest.mark.parametrize("gap", [1e-7, 1e-8, 1e-10, 1e-13])
def test_near_unit_bitflip_almost_terminates(gap, tmp_path, capsys):
    # Every eigenvalue of the step, 1 - gap among them, lies inside the unit
    # circle; the default eps_unit = 1e-7 window used to flag 1 - gap and
    # read the program as never halting.
    assert main(["terminate", _bitflip_from_one_model(gap, tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "almost terminates: yes" in out
    assert "decided by certificate" in out


@pytest.mark.parametrize("gap", [1e-7, 1e-8])
def test_near_unit_bitflip_spectral_values_match_the_exact_series(gap, tmp_path, capsys):
    path = _bitflip_from_one_model(gap, tmp_path)
    out = tmp_path / "verify.json"
    argv = ["verify", path, "-o", "P0", "--method", "spectral", "--json-out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    (row,) = json.loads(out.read_text())["methods"]
    prog = load_model(path).to_program()
    assert abs(row["value"] - exact_expectation(prog, P0)) <= 1e-6
    rep = cli.build_representation(prog)
    time = cli.average_running_time(rep, prog.rho0)
    exact = exact_running_time(prog)
    assert math.isfinite(time)
    assert abs(time - exact) <= 1e-6 * exact


def test_eps_unit_half_no_longer_flags_the_bitflip_eigenvalue(tmp_path, capsys):
    # bitflip_p05's step has eigenvalues 0.5 and 0; at eps_unit = 0.5 the
    # window ||lambda| - 1| <= 0.5 holds 0.5, but the certificate proves a
    # radius of at most 0.5 first.
    path = model("bitflip_p05.model")
    assert main(["verify", path, "-o", "P0", "--eps-unit", "0.5"]) == 0
    values = []
    for extra in ([], ["--eps-unit", "0.5"]):
        out = tmp_path / "runtime.json"
        assert main(["runtime", path, *extra, "--json-out", str(out)]) == 0
        methods = json.loads(out.read_text())["methods"]
        values.append(next(m["value"] for m in methods if m["method"] == "spectral"))
    capsys.readouterr()
    assert values[1] == values[0] == pytest.approx(3.0, abs=1e-12)


@pytest.mark.parametrize("name, by", [("bitflip_p05", "certificate"), ("bitflip_p1", "eigenvalues")])
def test_reports_say_what_decided_the_unit_circle(name, by, tmp_path, capsys):
    commands = [["verify", "-o", "P0"], ["runtime"], ["terminate"]]
    for command in commands:
        docs = []
        for run in range(2):
            out = tmp_path / f"{run}.json"
            main([command[0], model(f"{name}.model"), *command[1:], "--json-out", str(out)])
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]
        doc = json.loads(docs[0])
        if command[0] == "terminate":
            decision = doc["termination"]
        else:
            decision = next(m for m in doc["methods"] if m["method"] == "spectral")["diagnostics"]
        assert decision["unit_decided_by"] == by
        keys = ("certificate_candidate", "certificate_eta", "certificate_lambda")
        assert {key in decision for key in keys} == {by == "certificate"}
        if by == "certificate" and command[0] != "terminate":
            assert decision["certificate_candidate"] == "resolvent sum"
            assert decision["margin"] == decision["certificate_eta"] / decision["certificate_lambda"]
        if by == "certificate" and command[0] == "terminate":
            assert decision["certificate_candidate"] == "forward sum, N = 1"
        assert (doc["eigenvalues"] == []) == (by == "certificate")
    out = capsys.readouterr().out
    assert f"unit circle:       decided by {by}" in out
    if by == "certificate":
        assert "decided by certificate (forward sum, N = 1; eta " in out
        assert "certificate_candidate=resolvent sum" in out


def _certified_models(tmp_path) -> list[str]:
    """``bitflip_p05``, the d = 6 counter and a seeded random d = 6
    program, each with one observable ``P = M0^dag M0``."""
    prog = random_program(6, np.random.default_rng(6))
    m0 = prog.meas.m0
    path = tmp_path / "random6.model"
    save_model(
        Model(dim=6, kraus=list(prog.e.kraus), m0=m0, m1=prog.meas.m1, rho0=prog.rho0.mat,
              observables={"P": m0.conj().T @ m0}),
        path,
    )
    return [model("bitflip_p05.model"), _program_model("counter", tmp_path), str(path)]


def test_each_command_factors_i_minus_r_as_often_as_it_must(monkeypatch, tmp_path, capsys):
    # One solve serves the certificate and the start state; only the
    # running time's second resolvent adds one.  The forward certificate
    # decides terminate and spectrum on d x d matrices, with no solve.
    solve, shapes = np.linalg.solve, []

    def counting(a, b):
        shapes.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    for path in _certified_models(tmp_path):
        observable = "P0" if "bitflip" in path else "P"
        n = load_model(path).dim ** 2
        for argv, solves in (
            (["verify", path, "-o", observable], 1),
            (["runtime", path], 2),
            (["terminate", path], 0),
            (["terminate", path, "--scope", "scheme"], 0),
            (["spectrum", path], 0),
        ):
            shapes.clear()
            assert main(argv) == 0
            assert shapes == [(n, n)] * solves, argv
    capsys.readouterr()


def test_certificate_reads_the_same_in_both_terminate_scopes(tmp_path, capsys):
    for path in _certified_models(tmp_path):
        blocks = []
        for scope in ("program", "scheme"):
            out = tmp_path / f"{scope}.json"
            assert main(["terminate", path, "--scope", scope, "--json-out", str(out)]) == 0
            blocks.append(json.loads(out.read_text())["termination"])
        for key in ("certificate_candidate", "certificate_eta", "certificate_lambda"):
            assert blocks[0][key] == blocks[1][key], (path, key)
        assert blocks[0]["certificate_candidate"].startswith("forward sum, N = ")
    capsys.readouterr()


@pytest.mark.parametrize("gap", [0.01, 0.006, 0.0035, 1e-13])
def test_fixed_point_eigensolves_once_per_32_doubled_increments(gap, monkeypatch):
    # The near-unit bitflips from |1> (d = 2): the linear stage takes one
    # step, and the doubling stage checks its increments 32 at a time.
    # Add the observable's own check and the linear step's.
    prog = bitflip_program(1.0 - gap, 0.0, 1.0)
    calls = count_calls(monkeypatch, "eigvalsh")
    cert = least_fixed_point_q(prog, P0)
    increments = cert.iterations - 1
    assert cert.stop_reason == "bound" and increments > 10
    assert len(calls) == 2 + math.ceil(increments / 32)
