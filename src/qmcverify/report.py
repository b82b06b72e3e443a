"""Verification reports: one structure, two renderings.

Reports are deterministic functions of the model and options: no
timestamps, stable key order, eigenvalues sorted by descending modulus
(ties by descending real part, then descending imaginary part).  Infinite
values serialize as the string ``"inf"`` and NaN as ``"nan"`` to stay
inside strict JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import modulus


def _num(value: float):
    if math.isnan(value):
        return "nan"
    if value == math.inf:
        return "inf"
    if value == -math.inf:
        return "-inf"
    return float(value)


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf"
    return f"{value:.12g}"


@dataclass
class MethodResult:
    method: str
    value: float
    tolerance: float
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        diag = {k: _num(v) if isinstance(v, float) else v
                for k, v in sorted(self.diagnostics.items())}
        return {
            "method": self.method,
            "value": _num(self.value),
            "tolerance": _num(self.tolerance),
            "diagnostics": diag,
        }


def eigenvalue_table(spectral) -> list[dict]:
    """Eigenvalues of the step representation in report order, each with
    the unit-circle flag the spectral layer decided for it.

    The modulus is :func:`qmcverify.linalg.modulus`, the one that decided
    the flag.  ``lexsort`` is stable, so ties keep their eigensolver
    order."""
    ev = np.asarray(spectral.eigenvalues)
    mod = modulus(ev)
    order = np.lexsort((-ev.imag, -ev.real, -mod))
    columns = zip(
        ev.real[order].tolist(),
        ev.imag[order].tolist(),
        mod[order].tolist(),
        np.asarray(spectral.unit_circle_flags, dtype=bool)[order].tolist(),
    )
    return [
        {"re": re, "im": im, "modulus": mod, "unit_circle": unit}
        for re, im, mod, unit in columns
    ]


@dataclass
class VerificationReport:
    command: str
    model_path: str
    model_hash: str
    options: dict
    observable: str | None = None
    methods: list[MethodResult] = field(default_factory=list)
    agreement: dict | None = None
    termination: dict | None = None
    eigenvalues: list[dict] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    def add_method(self, method: str, value: float, tolerance: float, **diagnostics):
        self.methods.append(MethodResult(method, value, tolerance, diagnostics))

    def compute_agreement(self, tolerance: float) -> None:
        """Fill the pairwise-delta block, the one place a delta meets
        ``tolerance``.  A finite value and an infinite one are apart by
        ``inf``; two infinite values are not paired, since no delta
        measures them.  A NaN delta never agrees and makes the max NaN."""
        pairs = {}
        for i, a in enumerate(self.methods):
            for b in self.methods[i + 1 :]:
                if not (math.isinf(a.value) and math.isinf(b.value)):
                    pairs[f"{a.method}/{b.method}"] = abs(a.value - b.value)
        deltas = pairs.values()
        has_nan = any(map(math.isnan, deltas))
        self.agreement = {
            "pairs": {k: _num(v) for k, v in sorted(pairs.items())},
            "max_delta": _num(math.nan if has_nan else max(deltas, default=0.0)),
            "tolerance": _num(tolerance),
            "ok": all(delta <= tolerance for delta in deltas),
        }

    def to_dict(self) -> dict:
        doc = {
            "command": self.command,
            "model": self.model_path,
            "model_hash": self.model_hash,
            "options": {k: _num(v) if isinstance(v, float) else v
                        for k, v in sorted(self.options.items())},
            "methods": [m.to_dict() for m in self.methods],
            "eigenvalues": self.eigenvalues,
            "warnings": list(self.warnings),
        }
        if self.observable is not None:
            doc["observable"] = self.observable
        if self.agreement is not None:
            doc["agreement"] = self.agreement
        if self.termination is not None:
            doc["termination"] = self.termination
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        lines = []
        lines.append(f"model: {self.model_path}")
        lines.append(f"hash:  {self.model_hash}")
        if self.observable is not None:
            lines.append(f"observable: {self.observable}")
        if self.eigenvalues:
            lines.append("")
            lines.append("eigenvalues of the step representation:")
            for ev in self.eigenvalues:
                flag = "  unit-circle" if ev["unit_circle"] else ""
                lines.append(
                    f"  {ev['re']:+.9f}{ev['im']:+.9f}j   |lambda| = "
                    f"{ev['modulus']:.9f}{flag}"
                )
        if self.methods:
            lines.append("")
            lines.append(f"{'method':<12}{'value':<22}{'tolerance':<12}diagnostics")
            for m in self.methods:
                diag = " ".join(
                    f"{k}={_fmt(v) if isinstance(v, float) else v}"
                    for k, v in sorted(m.diagnostics.items())
                )
                lines.append(
                    f"{m.method:<12}{_fmt(m.value):<22}{m.tolerance:<12.1e}{diag}"
                )
        if self.agreement is not None:
            status = "OK" if self.agreement["ok"] else "DISAGREE"
            lines.append("")
            lines.append(
                f"agreement: max pairwise delta {_fmt_json_num(self.agreement['max_delta'])} "
                f"(tolerance {_fmt_json_num(self.agreement['tolerance'])})  {status}"
            )
        if self.termination is not None:
            t = self.termination
            lines.append("")
            lines.append(f"termination ({t['scope']}):")
            lines.append(f"  terminates:        {_yn(t['terminates'])}"
                         + (f" at step {t['terminates_at']}" if t["terminates_at"] is not None else ""))
            lines.append(f"  almost terminates: {_yn(t['almost_terminates'])}")
            lines.append(f"  unit overlap norm: {_fmt_json_num(t['unit_overlap_norm'])}")
            lines.append(f"  support search:    {t['support_stop']} at step "
                         f"{t['nilpotent_check_power']}")
            lines.append(f"  smallest kept:     {_fmt_json_num(t['support_kept_min'])}")
            lines.append(f"  largest dropped:   {_fmt_json_num(t['support_dropped_max'])}")
            decided = f"  unit circle:       decided by {t['unit_decided_by']}"
            if "certificate_eta" in t:
                decided += (f" ({t['certificate_candidate']}; "
                            f"eta {_fmt_json_num(t['certificate_eta'])}, "
                            f"lambda {_fmt_json_num(t['certificate_lambda'])})")
            lines.append(decided)
        for w in self.warnings:
            lines.append("")
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _fmt_json_num(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, str):
        return value
    return f"{value:.6g}"


def simulation_table(trace) -> str:
    """Delimited step table for the simulate command."""
    lines = ["n\tp_n\tp_nontermination\tcumulative"]
    cumulative = 0.0
    for rec in trace.steps:
        cumulative += rec.p
        lines.append(
            f"{rec.n}\t{rec.p:.12g}\t{rec.p_nontermination:.12g}\t{cumulative:.12g}"
        )
    lines.append(f"residual mass after table: {trace.residual_mass:.12g}")
    return "\n".join(lines) + "\n"
