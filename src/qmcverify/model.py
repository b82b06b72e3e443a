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
import numbers
import re
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from .channels import DensityOperator, Observable, SuperOperator
from .errors import ValidationError
from .linalg import EPS_UNIT, OPTION_RULES, require_number
from .program import (
    DEFAULT_N_MAX,
    DEFAULT_TAIL_TOL,
    ProgramScheme,
    QuantumProgram,
    TerminationMeasurement,
)

FORMAT_TAG = "qmc-model/1"


@dataclass(frozen=True)
class ModelOptions:
    """Numerical options of a model, each held as the number that the rule
    of :data:`~qmcverify.linalg.OPTION_RULES` returns: ``n_max`` an int,
    the others floats.  Frozen, so every value has passed the rule."""

    tail_tol: float = DEFAULT_TAIL_TOL
    n_max: int = DEFAULT_N_MAX
    eps_unit: float = EPS_UNIT
    tol: float = 1e-6

    def __post_init__(self):
        for name, bounds in OPTION_RULES.items():
            value = require_number(getattr(self, name), f"option {name}", **bounds)
            object.__setattr__(self, name, value)

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


def encode_matrix(mat: np.ndarray) -> list:
    arr = np.asarray(mat, dtype=complex)
    return np.stack([arr.real, arr.imag], -1).tolist()


def decode_matrix(data, dim: int, name: str) -> np.ndarray:
    """The ``dim x dim`` complex matrix of ``data``: ``dim`` rows of
    ``dim`` ``[re, im]`` pairs, every entry a number.  A bool, a string
    or ``null``, which ``np.asarray`` would convert, is refused like a
    misshapen array, with :class:`ValidationError` naming ``name``.  The
    entries are read off flat, which costs less than ``np.asarray`` on the
    nested lists."""
    try:
        pairs = list(chain.from_iterable(data))
        entries = list(chain.from_iterable(pairs))
    except TypeError as exc:
        raise ValidationError(f"{name}: not a nested array of [re, im] pairs ({exc})") from exc
    for kind in set(map(type, entries)):
        if issubclass(kind, bool) or not issubclass(kind, numbers.Real):
            value = next(x for x in entries if type(x) is kind)
            raise ValidationError(f"{name}: every entry must be a number, got {value!r}")
    row_lengths, pair_lengths = set(map(len, data)), set(map(len, pairs))
    if len(data) != dim or row_lengths != {dim} or pair_lengths != {2}:
        raise ValidationError(
            f"{name}: expected a {dim}x{dim} matrix of [re, im] pairs, got {len(data)} "
            f"rows of lengths {sorted(row_lengths)} and pairs of lengths {sorted(pair_lengths)}"
        )
    try:
        arr = np.array(entries, dtype=float)
    except OverflowError as exc:
        raise ValidationError(f"{name}: an entry is too large for a float ({exc})") from exc
    # The [re, im] pairs are complex128's own layout; a view keeps every
    # part's bits, signed zeros included, where re + 1j * im would not.
    return arr.view(complex).reshape(dim, dim)


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
    for key in ("dim", "kraus", "m0", "m1"):
        if key not in doc:
            raise ValidationError(f"model file is missing the required {key!r} field")
    dim = require_number(doc["dim"], "dim", 1, whole=True)
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


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """The JSON object of ``pairs``, once no key repeats: ``json`` would
    keep the last value of a repeated key and drop the others."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        seen = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValidationError(f"model file repeats the key {key!r}")
    return doc


def loads(text: str) -> Model:
    """Parse and validate a model document.  Besides malformed JSON,
    ``json`` refuses an integer of more than 4300 digits (``ValueError``)
    and nesting deeper than the recursion limit (``RecursionError``);
    each is a :class:`ValidationError`, and so is a key that appears twice
    in one object."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(doc)


def load_model(path) -> Model:
    """Read and validate the model file at ``path``, which must be UTF-8.
    A path that cannot be read raises its ``OSError``."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"model file is not UTF-8 text: {exc}") from exc
    return loads(text)


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
    """SHA-256 that identifies the model in reports and golden records.

    It hashes a fixed binary layout: one header line, the canonical JSON
    (sorted keys, no spaces) of ``format``, ``dim``, ``kraus`` (the number
    of Kraus operators), ``rho0`` (whether it is present), ``observables``
    (the sorted names), ``options`` (:meth:`ModelOptions.to_dict`) and
    ``shapes`` (each matrix's shape, in the order below), then ``"\\n"``;
    then every matrix as little-endian complex128 bytes in row-major
    order (``np.ascontiguousarray(mat, dtype="<c16").tobytes()``): the
    Kraus operators in order, ``m0``, ``m1``, ``rho0`` if present, and
    the observables by name.  The shapes fix where each matrix's bytes
    end for any ``Model``, also one built in memory and never validated.
    The hash identifies the model's values to the bit, not the file's
    formatting: key order, spacing, ``0`` for ``0.0`` or an omitted
    default option leave it alone, and so does a real array in place of
    the same complex one.  A signed zero counts, and
    :func:`decode_matrix` keeps it, so a model and its saved copy hash
    alike."""
    names = sorted(model.observables)
    matrices = [*model.kraus, model.m0, model.m1]
    if model.rho0 is not None:
        matrices.append(model.rho0)
    matrices += [model.observables[name] for name in names]
    header = {
        "format": FORMAT_TAG,
        "dim": model.dim,
        "kraus": len(model.kraus),
        "rho0": model.rho0 is not None,
        "observables": names,
        "options": model.options.to_dict(),
        "shapes": [list(np.shape(mat)) for mat in matrices],
    }
    digest = hashlib.sha256(
        json.dumps(header, sort_keys=True, separators=(",", ":")).encode() + b"\n"
    )
    for mat in matrices:
        digest.update(np.ascontiguousarray(mat, dtype="<c16").tobytes())
    return digest.hexdigest()
