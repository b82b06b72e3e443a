"""The on-disk model format.

A model is a single JSON document with an explicit ``dim`` field; every
complex number is a two-element ``[re, im]`` array and every matrix a
row-major nested array of those, so the format is self-describing and
round-trips bit-exactly.  Example::

    {
      "format": "qmc-model/1",
      "dim": 2,
      "kraus": [[[[0.707, 0.0], [0.0, 0.0]], ...], ...],
      "m0": ..., "m1": ...,
      "rho0": ...,                  # optional; omit for a bare scheme
      "observables": {"P0": ...},
      "options": {"tail_tol": 1e-12, "n_max": 1000000,
                  "eps_unit": 1e-7, "tol": 1e-6}
    }
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .channels import DensityOperator, Observable, SuperOperator
from .errors import ValidationError
from .program import ProgramScheme, QuantumProgram, TerminationMeasurement

FORMAT_TAG = "qmc-model/1"

DEFAULT_OPTIONS = {
    "tail_tol": 1e-12,
    "n_max": 1_000_000,
    "eps_unit": 1e-7,
    "tol": 1e-6,
}


# Lower bound of each option and whether the bound itself is allowed.
_OPTION_BOUNDS = {
    "tail_tol": (0, False),
    "n_max": (1, True),
    "eps_unit": (0, True),
    "tol": (0, True),
}


@dataclass
class ModelOptions:
    """Numerical options of a model.  Every construction is validated,
    including ``dataclasses.replace`` with command-line overrides."""

    tail_tol: float = DEFAULT_OPTIONS["tail_tol"]
    n_max: int = DEFAULT_OPTIONS["n_max"]
    eps_unit: float = DEFAULT_OPTIONS["eps_unit"]
    tol: float = DEFAULT_OPTIONS["tol"]

    def __post_init__(self):
        for name, (low, inclusive) in _OPTION_BOUNDS.items():
            value = getattr(self, name)
            ok = (
                isinstance(value, numbers.Real)
                and not isinstance(value, bool)
                and math.isfinite(value)
                and (value >= low if inclusive else value > low)
                and (name != "n_max" or value == int(value))
            )
            if not ok:
                kind = "an integer" if name == "n_max" else "a finite number"
                rel = ">=" if inclusive else ">"
                raise ValidationError(
                    f"option {name} must be {kind} {rel} {low}, got {value!r}"
                )
        self.n_max = int(self.n_max)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelOptions":
        unknown = set(data) - set(DEFAULT_OPTIONS)
        if unknown:
            raise ValidationError(
                f"unknown option keys {sorted(unknown)}; "
                f"supported: {sorted(DEFAULT_OPTIONS)}"
            )
        return cls(**{**DEFAULT_OPTIONS, **data})

    def to_dict(self) -> dict:
        return {
            "tail_tol": self.tail_tol,
            "n_max": self.n_max,
            "eps_unit": self.eps_unit,
            "tol": self.tol,
        }


def encode_matrix(mat: np.ndarray) -> list:
    arr = np.asarray(mat, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def decode_matrix(data, dim: int, name: str) -> np.ndarray:
    try:
        arr = np.asarray(data, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: not a numeric nested array ({exc})") from exc
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValidationError(
            f"{name}: expected rows x cols x [re, im], got shape {arr.shape}"
        )
    if arr.shape[0] != dim or arr.shape[1] != dim:
        raise ValidationError(
            f"{name}: expected a {dim}x{dim} matrix, got {arr.shape[0]}x{arr.shape[1]}"
        )
    return arr[:, :, 0] + 1j * arr[:, :, 1]


@dataclass(eq=False)
class Model:
    """Parsed model file.  Constructing the program objects validates the
    channel, measurement and state contracts with actionable messages."""

    dim: int
    kraus: list[np.ndarray]
    m0: np.ndarray
    m1: np.ndarray
    rho0: np.ndarray | None
    observables: dict[str, np.ndarray]
    options: ModelOptions = field(default_factory=ModelOptions)

    def to_scheme(self) -> ProgramScheme:
        return ProgramScheme(
            SuperOperator(self.kraus), TerminationMeasurement(self.m0, self.m1)
        )

    def to_program(self) -> QuantumProgram:
        if self.rho0 is None:
            raise ValidationError(
                "model has no rho0; this command needs an initial state"
            )
        return self.to_scheme().with_initial_state(DensityOperator(self.rho0))

    def observable(self, name: str) -> Observable:
        if name not in self.observables:
            raise ValidationError(
                f"observable {name!r} not in model (has: {sorted(self.observables)})"
            )
        return Observable(self.observables[name])

    def to_dict(self) -> dict:
        doc = {
            "format": FORMAT_TAG,
            "dim": self.dim,
            "kraus": [encode_matrix(k) for k in self.kraus],
            "m0": encode_matrix(self.m0),
            "m1": encode_matrix(self.m1),
            "observables": {
                name: encode_matrix(mat) for name, mat in sorted(self.observables.items())
            },
            "options": self.options.to_dict(),
        }
        if self.rho0 is not None:
            doc["rho0"] = encode_matrix(self.rho0)
        return doc

    def validate(self) -> None:
        """Run the full contract checks (channel, measurement, state)."""
        if self.rho0 is None:
            self.to_scheme()
        else:
            self.to_program()
        for name in self.observables:
            self.observable(name)


def model_from_dict(doc: dict) -> Model:
    if not isinstance(doc, dict):
        raise ValidationError("model file must contain a JSON object")
    tag = doc.get("format", FORMAT_TAG)
    if tag != FORMAT_TAG:
        raise ValidationError(f"unsupported format tag {tag!r}, expected {FORMAT_TAG!r}")
    if "dim" not in doc:
        raise ValidationError("model file is missing the required 'dim' field")
    dim = int(doc["dim"])
    if dim < 1:
        raise ValidationError(f"dim must be a positive integer, got {dim}")
    for key in ("kraus", "m0", "m1"):
        if key not in doc:
            raise ValidationError(f"model file is missing the required {key!r} field")
    kraus_data = doc["kraus"]
    if not isinstance(kraus_data, list) or not kraus_data:
        raise ValidationError("'kraus' must be a non-empty list of matrices")
    kraus = [
        decode_matrix(k, dim, f"kraus[{i}]") for i, k in enumerate(kraus_data)
    ]
    m0 = decode_matrix(doc["m0"], dim, "m0")
    m1 = decode_matrix(doc["m1"], dim, "m1")
    rho0 = decode_matrix(doc["rho0"], dim, "rho0") if "rho0" in doc else None
    observables = {
        name: decode_matrix(mat, dim, f"observables[{name!r}]")
        for name, mat in doc.get("observables", {}).items()
    }
    options = ModelOptions.from_dict(doc.get("options", {}))
    model = Model(
        dim=dim, kraus=kraus, m0=m0, m1=m1, rho0=rho0,
        observables=observables, options=options,
    )
    model.validate()
    return model


def loads(text: str) -> Model:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(doc)


def load_model(path) -> Model:
    return loads(Path(path).read_text())


_PAIR = re.compile(r"\[\n\s*(-?[0-9.eE+-]+),\n\s*(-?[0-9.eE+-]+)\n\s*\]")
_ROW = re.compile(r"\[\n\s*(\[[^\[\]]*\](?:,\n\s*\[[^\[\]]*\])*)\n\s*\]")


def dumps(model: Model) -> str:
    """Serialize with one matrix row per line; loading is plain JSON."""
    text = json.dumps(model.to_dict(), indent=2, sort_keys=True)
    text = _PAIR.sub(r"[\1, \2]", text)
    text = _ROW.sub(lambda m: "[" + re.sub(r",\n\s*", ", ", m.group(1)) + "]", text)
    return text + "\n"


def save_model(model: Model, path) -> None:
    Path(path).write_text(dumps(model))


def model_hash(model: Model) -> str:
    """SHA-256 of the canonical serialization; identifies the instance in
    reports and golden records."""
    canonical = json.dumps(model.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
