import json
import math
from pathlib import Path

import numpy as np
import pytest

from qmcverify import EigensolverError, ProgramScheme, cli, termination
from qmcverify.cli import main
from qmcverify.model import Model, dumps, load_model, save_model
from qmcverify.sampling import random_contracting_program

from helpers import MODELS_DIR, counter_scheme


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
    # bitflip_p05 lacks.
    patch = {"eigvals": _one_nan_eigenvalue, "eig": _nan_eigenvectors}[fault]
    monkeypatch.setattr(np.linalg, fault, patch(getattr(np.linalg, fault)))
    assert main([command[0], model(f"{name}.model"), *command[1:]]) == 5
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


def test_eigenvalue_table_reports_the_spectral_layers_flags():
    # The table sorts the decided flags with their eigenvalues instead of
    # deciding the unit circle again: here 0.99999999 is flagged and 1 is
    # not, which no eps_unit rule would give.
    from types import SimpleNamespace

    from qmcverify.report import eigenvalue_table

    spectral = SimpleNamespace(
        eigenvalues=np.array([0.5, 1.0, -0.99999999, 0.5j]),
        unit_circle_flags=np.array([False, False, True, True]),
    )
    rows = eigenvalue_table(spectral)
    assert [(r["re"], r["im"], r["unit_circle"]) for r in rows] == [
        (1.0, 0.0, False),
        (-0.99999999, 0.0, True),
        (0.5, 0.0, False),
        (0.0, 0.5, True),
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
    support = termination._support

    def counting_support(mat):
        calls.append(1)
        return support(mat)

    monkeypatch.setattr(termination, "_support", counting_support)
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


def test_regen_goldens_round_trip(tmp_path, capsys):
    out = tmp_path / "g.json"
    code = main(["regen-goldens", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    fresh = json.loads(out.read_text())
    committed = json.loads(
        (Path(__file__).parent / "goldens" / "oracle_goldens.json").read_text()
    )
    assert fresh == committed


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


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_simulate_rejects_nonpositive_steps(steps, capsys):
    code = main(["simulate", model("bitflip_p05.model"), "--steps", steps])
    err = capsys.readouterr().err
    assert code == 2
    assert "--steps" in err
    assert "n_max" not in err


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
