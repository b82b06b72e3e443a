"""Command-line interface.

Subcommands: verify, runtime, terminate, spectrum, simulate.  Exit
codes: 0 success, 2 model validation failure (bad model data or option
value) or a model file or ``--json-out`` path that cannot be read or
written (any ``OSError``), 3 method disagreement, 4 a ``verify`` that
asked for the series of a program that is not almost-terminating (the
series still runs and its row is reported), 5 numerical failure (an
eigensolve, a structural check of the step representation, a resolvent
solve, the series' terminal state failing its density-operator check,
or an internal consistency check).

``verify`` and ``runtime`` decide by one rule over one row per route:
4 when ``verify`` was asked for the series of a program that the
spectral check finds not almost-terminating (its unit overlap is
nonzero), so the series cannot use up the mass that survives; else 3
when two values are apart by more than the tolerance (a finite value
and an infinite one are apart by ``inf``, and a NaN value disagrees
with any other); else 0.  Both decide almost termination only, by the
unit overlap; only ``terminate`` and ``spectrum`` run the exact search.

Only ``spectrum`` always eigensolves the step matrix.  ``verify``,
``runtime`` and ``terminate`` first try to prove, by a checked
certificate, that the step has no unit spectrum; where it holds they run
no eigensolve and report no eigenvalues, and their margin is the
certificate's lower bound on the gap.  Where it fails, the eigenvalues
decide, as ``spectrum``'s do.  The spectral row and the termination
block say which (``unit_decided_by``).  The check runs on d x d matrices
through the Kraus stack; only its candidate differs.  ``verify`` and
``runtime`` check ``V = sum_n G^n(I)``, read from the one solve of ``I -
R`` that their closed forms need.  ``terminate`` and ``spectrum`` need no
solve, so they first check the forward sum ``sum_{n<N} G^n(I)``, ``N <=
d``: where it holds ``terminate`` builds no step matrix and
``spectrum`` builds it for its eigenvalues alone, and neither factors
anything.  Where it is refused, both build as ``verify`` does.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .channels import Observable
from .errors import QmcError, ValidationError
from .invariant import certified_expectation
from .linalg import is_positive_semidefinite, require_number
from .model import Model, ModelOptions, load_model, model_hash
from .oracle import oracle_expectation
from .program import QuantumProgram, step_probabilities
from .report import VerificationReport, eigenvalue_table, simulation_table
from .spectral import (
    average_running_time,
    build_representation,
    decide_unit_circle,
    expectation_closed_form,
)
from .termination import check_program_termination, check_scheme_termination

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DISAGREEMENT = 3
EXIT_NONTERMINATION = 4
EXIT_NUMERICAL = 5


# The override flag of each model option, and what its help names.
_OVERRIDES = {
    "--tail-tol": "tail_tol",
    "--n-max": "n_max",
    "--eps-unit": "eps_unit",
    "--tol": "agreement tolerance",
}


def number(text: str) -> int | float:
    """A flag's number, read as the model file reads one: an integer
    literal as an exact int, anything else as a float.  Its bounds, and
    whether it must be whole, are the rule's (:func:`require_number`)."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _add_common(sub: argparse.ArgumentParser, *overrides: str):
    """The model path, ``--json-out`` and the override flags of the model
    options that the subcommand reads."""
    sub.add_argument("model", help="path to a model file")
    sub.add_argument("--json-out", metavar="PATH", help="write the machine-readable report here")
    for flag in overrides:
        sub.add_argument(flag, type=number, help=f"override the model's {_OVERRIDES[flag]}")


def _load(args) -> tuple[Model, ModelOptions]:
    model = load_model(args.model)
    overrides = {
        name: value
        for name in (field.name for field in dataclasses.fields(ModelOptions))
        if (value := getattr(args, name, None)) is not None
    }
    return model, dataclasses.replace(model.options, **overrides)


def _program(model: Model) -> QuantumProgram:
    """The program that loading validated.  For a model without ``rho0``,
    ``to_program`` raises the error that says so."""
    built = model.validated.scheme
    return built if isinstance(built, QuantumProgram) else model.to_program()


def _observable(model: Model, name: str) -> Observable:
    """The observable that loading validated.  For a name the model lacks,
    ``Model.observable`` raises the error that lists the names it has."""
    found = model.validated.observables.get(name)
    return found if found is not None else model.observable(name)


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


def _series_row(result, value) -> tuple:
    diagnostics = {
        "n_used": result.n_used,
        "residual": result.residual_mass,
        "stop_reason": result.stop_reason,
    }
    return "series", value, diagnostics


def _unit_decision(rep) -> dict:
    """What decided the unit circle: ``unit_decided_by`` is
    ``"certificate"``, with the certificate's ``eta`` and ``lambda`` and
    the candidate they were checked on, or ``"eigenvalues"``.  ``terminate``
    checks a forward sum ``V_N`` and ``verify`` and ``runtime`` the
    resolvent sum, so one step can read different ``eta`` and ``lambda``
    in the two."""
    cert = rep.certificate
    if cert is None:
        return {"unit_decided_by": "eigenvalues"}
    return {
        "unit_decided_by": "certificate",
        "certificate_candidate": (
            "resolvent sum" if cert.terms is None else f"forward sum, N = {cert.terms}"
        ),
        "certificate_eta": cert.eta,
        "certificate_lambda": cert.lam,
    }


def _spectral_row(rep, overlap, value) -> tuple:
    diagnostics = {"margin": rep.margin, "unit_overlap": overlap, **_unit_decision(rep)}
    return "spectral", value, diagnostics


def _decided_eigenvalues(rep) -> list[dict]:
    """The eigenvalue table when the eigenvalues decided the unit circle;
    empty when the certificate did, since then none were computed."""
    return [] if rep.certificate else eigenvalue_table(rep.spectral)


def _decide(report, args, tol, rows, what, warning=None, refusal=None) -> int:
    """The one decision of ``verify`` and ``runtime``: add each route's
    ``(method, value, diagnostics)`` row, the agreement block when there
    is more than one, and the warning; emit the report; exit 4 on a
    refusal, else 3 when the routes disagree, else 0."""
    for method, value, diagnostics in rows:
        report.add_method(method, value, tol, **diagnostics)
    if len(rows) > 1:
        report.compute_agreement(tol)
    if warning:
        report.warnings.append(warning)
    _emit(report, args)
    if refusal:
        print(f"error: {refusal}", file=sys.stderr)
        return EXIT_NONTERMINATION
    if report.agreement and not report.agreement["ok"]:
        max_delta = float(report.agreement["max_delta"])
        print(
            f"error: {what} disagree by {max_delta:.6g} > tolerance {tol:.6g}",
            file=sys.stderr,
        )
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_verify(args) -> int:
    model, opts = _load(args)
    prog = _program(model)
    p = _observable(model, args.observable)
    rep = build_representation(prog, eps_unit=opts.eps_unit)
    overlap, almost = rep.unit_overlap(prog.rho0.mat)

    report = _new_report("verify", args, model, opts)
    report.observable = args.observable
    report.eigenvalues = _decided_eigenvalues(rep)

    selected = (
        ["series", "invariant", "spectral"] if args.method == "all" else [args.method]
    )
    rows = []
    for method in selected:
        if method == "series":
            result = oracle_expectation(prog, p, opts.tail_tol, opts.n_max)
            rows.append(_series_row(result, result.expectation_series))
        elif method == "invariant":
            rows.append(("invariant", *certified_expectation(prog, p, n_max=opts.n_max)))
        elif method == "spectral":
            value = expectation_closed_form(rep, prog.rho0, p)
            rows.append(_spectral_row(rep, overlap, value))

    warning = refusal = None
    if not almost:
        warning = (
            "program is not almost-terminating for this initial state "
            f"(unit overlap {overlap:.6g}); "
            + (
                "series expectations are lower estimates"
                if is_positive_semidefinite(p.mat)
                else "series expectations are truncated and their error is unbounded"
            )
        )
        if "series" in selected:
            refusal = (
                "the spectral check finds the program not almost-terminating "
                f"(unit overlap {overlap:.6g}); the series method "
                "cannot use up the mass that survives"
            )
    return _decide(report, args, opts.tol, rows, "methods", warning, refusal)


def cmd_runtime(args) -> int:
    model, opts = _load(args)
    prog = _program(model)
    rep = build_representation(prog, eps_unit=opts.eps_unit)
    overlap, almost = rep.unit_overlap(prog.rho0.mat)

    report = _new_report("runtime", args, model, opts)
    report.eigenvalues = _decided_eigenvalues(rep)
    spectral = _spectral_row(rep, overlap, average_running_time(rep, prog.rho0))
    series = oracle_expectation(
        prog, Observable(np.eye(prog.dim)), opts.tail_tol, opts.n_max
    )
    rows = [spectral, _series_row(series, series.running_time_series)]
    warning = None if almost else (
        "program is not almost-terminating; the average running time "
        f"diverges (unit overlap {overlap:.6g})"
    )
    return _decide(report, args, opts.tol, rows, "running times", warning)


def cmd_terminate(args) -> int:
    model, opts = _load(args)
    if args.scope == "program":
        prog = _program(model)
        rep = decide_unit_circle(prog, eps_unit=opts.eps_unit)
        verdict = check_program_termination(rep, prog.rho0)
    else:
        # A program is a scheme too; only its step enters the representation.
        rep = decide_unit_circle(model.validated.scheme, eps_unit=opts.eps_unit)
        verdict = check_scheme_termination(rep)

    report = _new_report("terminate", args, model, opts)
    report.eigenvalues = _decided_eigenvalues(rep)
    report.termination = dict(
        scope=args.scope,
        terminates=verdict.terminates,
        **dataclasses.asdict(verdict),
        **_unit_decision(rep),
    )
    _emit(report, args)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    model, opts = _load(args)
    rep = decide_unit_circle(model.validated.scheme, eps_unit=opts.eps_unit)
    report = _new_report("spectrum", args, model, opts)
    report.eigenvalues = eigenvalue_table(rep.spectral)
    report.add_method(
        "spectral",
        rep.spectral.spectral_radius(),
        opts.eps_unit,
        margin=rep.spectral.gap(),
        unit_eigenvalues=int(np.count_nonzero(rep.spectral.unit_circle_flags)),
        scheme_terminates_at=check_scheme_termination(rep).terminates_at,
        semisimple_unit_part=True,
    )
    _emit(report, args)
    return EXIT_OK


def cmd_simulate(args) -> int:
    model, opts = _load(args)
    steps = require_number(args.steps, "option --steps", 1, whole=True)
    prog = _program(model)
    trace = step_probabilities(prog, steps)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmcverify",
        description="verify terminal-state expectations, running time and "
        "termination of quantum Markov chain programs",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("verify", help="terminal expectation of an observable")
    _add_common(sub, *_OVERRIDES)
    sub.add_argument("--observable", "-o", required=True, help="observable name from the model")
    sub.add_argument(
        "--method",
        choices=("series", "invariant", "spectral", "all"),
        default="all",
    )
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("runtime", help="average running time")
    _add_common(sub, *_OVERRIDES)
    sub.set_defaults(func=cmd_runtime)

    sub = subs.add_parser("terminate", help="termination analysis")
    _add_common(sub, "--eps-unit")
    sub.add_argument("--scope", choices=("program", "scheme"), default="program")
    sub.set_defaults(func=cmd_terminate)

    sub = subs.add_parser("spectrum", help="eigenvalues of the step representation")
    _add_common(sub, "--eps-unit")
    sub.set_defaults(func=cmd_spectrum)

    sub = subs.add_parser("simulate", help="step probability table")
    _add_common(sub)
    sub.add_argument("--steps", type=number, default=20)
    sub.set_defaults(func=cmd_simulate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every :func:`main` call in the process shares.  Each
    ``parse_args`` returns a fresh namespace, so no call sees another's
    options."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except QmcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
