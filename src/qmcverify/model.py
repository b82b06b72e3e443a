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

import dataclasses
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
from .linalg import EPS_UNIT
from .program import (
    DEFAULT_N_MAX,
    DEFAULT_TAIL_TOL,
    ProgramScheme,
    QuantumProgram,
    TerminationMeasurement,
)

FORMAT_TAG = "qmc-model/1"

# Lower bound of each option, whether the bound itself is allowed, and
# the upper bound, never allowed.  At eps_unit >= 1 the unit-circle window
# ||lambda| - 1| <= eps_unit holds 0, so every eigenvalue would be flagged.
_OPTION_BOUNDS = {
    "tail_tol": (0, False, math.inf),
    "n_max": (1, True, math.inf),
    "eps_unit": (0, True, 1),
    "tol": (0, True, math.inf),
}


@dataclass
class ModelOptions:
    """Numerical options of a model.  Every construction is validated,
    including ``dataclasses.replace`` with command-line overrides."""

    tail_tol: float = DEFAULT_TAIL_TOL
    n_max: int = DEFAULT_N_MAX
    eps_unit: float = EPS_UNIT
    tol: float = 1e-6

    def __post_init__(self):
        for name, (low, inclusive, high) in _OPTION_BOUNDS.items():
            value = getattr(self, name)
            ok = (
                _finite_number(value)
                and (value >= low if inclusive else value > low)
                and value < high
                and (name != "n_max" or value == int(value))
            )
            if not ok:
                kind = "an integer" if name == "n_max" else "a finite number"
                rel = ">=" if inclusive else ">"
                below = f" and < {high}" if high < math.inf else ""
                raise ValidationError(
                    f"option {name} must be {kind} {rel} {low}{below}, got {value!r}"
                )
        self.n_max = int(self.n_max)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelOptions":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ValidationError(
                f"unknown option keys {sorted(unknown)}; supported: {sorted(names)}"
            )
        return cls(**data)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _finite_number(value) -> bool:
    """Whether ``value`` is a finite real number; a bool, which JSON's
    ``true`` and ``false`` load as, is not."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def encode_matrix(mat: np.ndarray) -> list:
    arr = np.asarray(mat, dtype=complex)
    return np.stack([arr.real, arr.imag], -1).tolist()


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


@dataclass(frozen=True, eq=False)
class Validated:
    """What one run of :meth:`Model.validate` built: the program (the bare
    scheme of a model without ``rho0``) and every observable."""

    scheme: ProgramScheme
    observables: dict[str, Observable]


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
    # What the last validate() built, from the model as it was then.
    validated: Validated | None = field(default=None, init=False, repr=False)

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
        """Run the full contract checks (channel, measurement, state,
        observables) and keep what they built as :attr:`validated`.  Every
        call checks afresh: after changing the model, call it again, since
        :attr:`validated` does not follow the change."""
        scheme = self.to_scheme() if self.rho0 is None else self.to_program()
        observables = {name: self.observable(name) for name in self.observables}
        self.validated = Validated(scheme, observables)


def _json_object(doc: dict, key: str) -> dict:
    """The optional field ``key`` of a model document, which must be a JSON
    object; ``{}`` when absent."""
    value = doc.get(key, {})
    if not isinstance(value, dict):
        raise ValidationError(f"{key} must be a JSON object, got {type(value).__name__}")
    return value


def model_from_dict(doc: dict) -> Model:
    if not isinstance(doc, dict):
        raise ValidationError("model file must contain a JSON object")
    tag = doc.get("format", FORMAT_TAG)
    if tag != FORMAT_TAG:
        raise ValidationError(f"unsupported format tag {tag!r}, expected {FORMAT_TAG!r}")
    if "dim" not in doc:
        raise ValidationError("model file is missing the required 'dim' field")
    dim = doc["dim"]
    if not (_finite_number(dim) and dim >= 1 and dim == int(dim)):
        raise ValidationError(f"dim must be an integer >= 1, got {dim!r}")
    dim = int(dim)
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
        for name, mat in _json_object(doc, "observables").items()
    }
    options = ModelOptions.from_dict(_json_object(doc, "options"))
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
