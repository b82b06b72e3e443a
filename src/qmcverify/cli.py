"""Command-line interface.

Subcommands: verify, runtime, terminate, spectrum, simulate,
regen-goldens.  Exit codes: 0 success (all requested methods agree within
tolerance), 2 model validation failure (bad model data or option value)
or missing model file, 3 method disagreement beyond tolerance, 4
non-almost-terminating program when a requested method requires
Q-termination (QV3), 5 numerical failure (an eigensolve, a structural
check of the step representation, a resolvent solve or an internal
consistency check).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channels import Observable
from .errors import QmcError, ValidationError
from .invariant import check_conditions, expectation_via_invariant, least_fixed_point_q
from .linalg import is_positive_semidefinite, max_abs, psd_split
from .model import Model, ModelOptions, load_model, model_hash
from .oracle import oracle_expectation
from .program import step_probabilities
from .report import VerificationReport, eigenvalue_table, simulation_table
from .sampling import random_contracting_program, random_observable
from .spectral import average_running_time, build_representation, expectation_closed_form
from .termination import check_program_termination, check_scheme_termination

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DISAGREEMENT = 3
EXIT_NONTERMINATION = 4
EXIT_NUMERICAL = 5

GOLDEN_SEEDS = (101, 102, 103, 104, 105, 106)


def _add_common(sub: argparse.ArgumentParser):
    sub.add_argument("model", help="path to a model file")
    sub.add_argument("--json-out", metavar="PATH", help="write the machine-readable report here")
    sub.add_argument("--tail-tol", type=float, help="override the model's tail_tol")
    sub.add_argument("--n-max", type=int, help="override the model's n_max")
    sub.add_argument("--eps-unit", type=float, help="override the model's eps_unit")
    sub.add_argument("--tol", type=float, help="override the model's agreement tolerance")


def _load(args) -> tuple[Model, ModelOptions]:
    model = load_model(args.model)
    overrides = {
        name: value
        for name in ("tail_tol", "n_max", "eps_unit", "tol")
        if (value := getattr(args, name, None)) is not None
    }
    return model, dataclasses.replace(model.options, **overrides)


def _new_report(command: str, args, model: Model, opts: ModelOptions) -> VerificationReport:
    return VerificationReport(
        command=command,
        model_path=args.model,
        model_hash=model_hash(model),
        options=opts.to_dict(),
    )


def _emit(report: VerificationReport, args) -> None:
    sys.stdout.write(report.render_text())
    if args.json_out:
        Path(args.json_out).write_text(report.to_json())


# How the diagnostics of the positive parts of a general observable combine.
_COMBINE_PARTS = {
    "iterations": sum,
    "converged": all,
    "qv1": all,
    "qv1_value": sum,
    "qv2": all,
    "qv2_residual": max,
    "qv3": all,
    "qv3_limit": max,
}


def _invariant_method(prog, p: Observable, rep, n_max: int) -> tuple[float, dict]:
    """Terminal expectation by the least invariant, with its diagnostics.

    A positive observable gets one certificate.  Any other Hermitian one
    is split into positive parts ``p = pos - neg``; each part gets its own
    certificate, the reported value is the difference, and the parts'
    diagnostics combine as in :data:`_COMBINE_PARTS` (``qv1_value`` is the
    difference too).
    """
    if is_positive_semidefinite(p.mat):
        parts = [(1.0, p)]
    else:
        parts = [
            (sign, Observable(part))
            for sign, part in zip((1.0, -1.0), psd_split(p.mat))
            if max_abs(part) > 0.0
        ]
    values, diags = [], []
    for sign, part in parts:
        cert = least_fixed_point_q(prog, part, n_max=n_max)
        cond = check_conditions(prog, part, cert, rep=rep)
        values.append(sign * expectation_via_invariant(prog, part, cert))
        diags.append(
            {
                "iterations": cert.iterations,
                "converged": cert.converged,
                "qv1": cond.qv1,
                "qv1_value": sign * cond.qv1_value,
                "qv2": cond.qv2,
                "qv2_residual": cond.qv2_residual,
                "qv3": cond.qv3,
                "qv3_limit": cond.qv3_limit,
            }
        )
    if len(parts) == 1:
        return values[0], diags[0]
    combined = {key: how(d[key] for d in diags) for key, how in _COMBINE_PARTS.items()}
    return sum(values), combined


def cmd_verify(args) -> int:
    model, opts = _load(args)
    prog = model.to_program()
    p = model.observable(args.observable)
    rep = build_representation(prog, eps_unit=opts.eps_unit)
    verdict = check_program_termination(rep, prog.rho0)

    report = _new_report("verify", args, model, opts)
    report.observable = args.observable
    report.eigenvalues = eigenvalue_table(rep.spectral, opts.eps_unit)

    selected = (
        ["series", "invariant", "spectral"] if args.method == "all" else [args.method]
    )
    qv3_failed = False
    for method in selected:
        if method == "series":
            result = oracle_expectation(prog, p, opts.tail_tol, opts.n_max)
            report.add_method(
                "series",
                result.expectation_series,
                opts.tol,
                n_used=result.n_used,
                residual=result.p_table.residual_mass,
            )
        elif method == "invariant":
            value, diagnostics = _invariant_method(prog, p, rep, opts.n_max)
            qv3_failed = qv3_failed or not diagnostics["qv3"]
            report.add_method("invariant", value, opts.tol, **diagnostics)
        elif method == "spectral":
            report.add_method(
                "spectral",
                expectation_closed_form(rep, prog.rho0, p),
                opts.tol,
                margin=rep.margin,
                unit_overlap=verdict.unit_overlap_norm,
            )

    max_delta = report.compute_agreement(opts.tol) if len(selected) > 1 else 0.0
    if not verdict.almost_terminates:
        report.warnings.append(
            "program is not almost-terminating for this initial state "
            f"(unit overlap {verdict.unit_overlap_norm:.6g}); "
            "series expectations are lower estimates"
        )
    _emit(report, args)

    if not verdict.almost_terminates and ("series" in selected or qv3_failed):
        print(
            "error: Q-termination (QV3) fails for this program; the requested "
            "method set requires it",
            file=sys.stderr,
        )
        return EXIT_NONTERMINATION
    if len(selected) > 1 and max_delta > opts.tol:
        print(
            f"error: methods disagree by {max_delta:.6g} > tolerance {opts.tol:.6g}",
            file=sys.stderr,
        )
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_runtime(args) -> int:
    model, opts = _load(args)
    prog = model.to_program()
    rep = build_representation(prog, eps_unit=opts.eps_unit)
    verdict = check_program_termination(rep, prog.rho0)

    report = _new_report("runtime", args, model, opts)
    report.eigenvalues = eigenvalue_table(rep.spectral, opts.eps_unit)
    spectral_time = average_running_time(rep, prog.rho0)
    report.add_method(
        "spectral",
        spectral_time,
        opts.tol,
        margin=rep.margin,
        unit_overlap=verdict.unit_overlap_norm,
    )
    series = oracle_expectation(
        prog, Observable(np.eye(prog.dim)), opts.tail_tol, opts.n_max
    )
    report.add_method(
        "series",
        series.running_time_series,
        opts.tol,
        n_used=series.n_used,
        residual=series.p_table.residual_mass,
    )
    max_delta = report.compute_agreement(opts.tol)
    if not verdict.almost_terminates:
        report.warnings.append(
            "program is not almost-terminating; the average running time "
            f"diverges (unit overlap {verdict.unit_overlap_norm:.6g})"
        )
    _emit(report, args)
    if max_delta > opts.tol:
        print(
            f"error: running times disagree by {max_delta:.6g} > tolerance {opts.tol:.6g}",
            file=sys.stderr,
        )
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_terminate(args) -> int:
    model, opts = _load(args)
    if args.scope == "program":
        prog = model.to_program()
        rep = build_representation(prog, eps_unit=opts.eps_unit)
        verdict = check_program_termination(rep, prog.rho0)
    else:
        scheme = model.to_scheme()
        rep = build_representation(scheme, eps_unit=opts.eps_unit)
        verdict = check_scheme_termination(rep)

    report = _new_report("terminate", args, model, opts)
    report.eigenvalues = eigenvalue_table(rep.spectral, opts.eps_unit)
    report.termination = {
        "scope": args.scope,
        "terminates": verdict.terminates,
        "terminates_at": verdict.terminates_at,
        "almost_terminates": verdict.almost_terminates,
        "unit_overlap_norm": verdict.unit_overlap_norm,
        "nilpotent_check_power": verdict.nilpotent_check_power,
    }
    _emit(report, args)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    model, opts = _load(args)
    scheme = model.to_scheme()
    rep = build_representation(scheme, eps_unit=opts.eps_unit)
    report = _new_report("spectrum", args, model, opts)
    report.eigenvalues = eigenvalue_table(rep.spectral, opts.eps_unit)
    report.add_method(
        "spectral",
        rep.spectral.spectral_radius(),
        opts.eps_unit,
        margin=rep.margin,
        unit_eigenvalues=int(np.count_nonzero(rep.spectral.unit_circle_flags)),
        zero_nilpotent_index_bound=rep.spectral.zero_nilpotent_index_bound,
        semisimple_unit_part=True,
    )
    _emit(report, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    model, opts = _load(args)
    prog = model.to_program()
    trace = step_probabilities(prog, args.steps)
    sys.stdout.write(simulation_table(trace))
    if args.json_out:
        report = _new_report("simulate", args, model, opts)
        doc = report.to_dict()
        doc["steps"] = [
            {"n": rec.n, "p": rec.p, "p_nontermination": rec.p_nontermination}
            for rec in trace.steps
        ]
        doc["residual_mass"] = trace.residual_mass
        Path(args.json_out).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def golden_records(tail_tol: float = 1e-12) -> dict:
    """Recompute the golden oracle records from their seeds."""
    records = []
    for seed in GOLDEN_SEEDS:
        rng = np.random.default_rng(seed)
        prog = random_contracting_program(2, rng)
        p = random_observable(2, rng, psd=True)
        model = Model(
            dim=2,
            kraus=[np.array(k) for k in prog.e.kraus],
            m0=np.array(prog.meas.m0),
            m1=np.array(prog.meas.m1),
            rho0=np.array(prog.rho0.mat),
            observables={"P": p.mat},
        )
        result = oracle_expectation(prog, p, tail_tol=tail_tol)
        records.append(
            {
                "seed": seed,
                "dim": 2,
                "model_hash": model_hash(model),
                "tolerances": {"tail_tol": tail_tol},
                "values": {
                    "expectation_series": result.expectation_series,
                    "running_time_series": result.running_time_series,
                    "residual_mass": result.p_table.residual_mass,
                    "n_used": result.n_used,
                    "p_first": [rec.p for rec in result.p_table.steps[:8]],
                },
            }
        )
    return {"format": "qmc-goldens/1", "records": records}


def cmd_regen_goldens(args) -> int:
    doc = golden_records()
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(doc['records'])} golden records to {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmcverify",
        description="verify terminal-state expectations, running time and "
        "termination of quantum Markov chain programs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("verify", help="terminal expectation of an observable")
    _add_common(sub)
    sub.add_argument("--observable", "-o", required=True, help="observable name from the model")
    sub.add_argument(
        "--method",
        choices=("series", "invariant", "spectral", "all"),
        default="all",
    )
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("runtime", help="average running time")
    _add_common(sub)
    sub.set_defaults(func=cmd_runtime)

    sub = subs.add_parser("terminate", help="termination analysis")
    _add_common(sub)
    sub.add_argument("--scope", choices=("program", "scheme"), default="program")
    sub.set_defaults(func=cmd_terminate)

    sub = subs.add_parser("spectrum", help="eigenvalues of the step representation")
    _add_common(sub)
    sub.set_defaults(func=cmd_spectrum)

    sub = subs.add_parser("simulate", help="step probability table")
    _add_common(sub)
    sub.add_argument("--steps", type=int, default=20)
    sub.set_defaults(func=cmd_simulate)

    sub = subs.add_parser("regen-goldens", help="regenerate the committed golden records")
    sub.add_argument("--out", default="tests/goldens/oracle_goldens.json")
    sub.set_defaults(func=cmd_regen_goldens)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
