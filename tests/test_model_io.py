import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from qmcverify import ModelOptions, ValidationError, load_model, model_hash
from qmcverify.model import Model, dumps, encode_matrix, loads, save_model

MODELS_DIR = Path(__file__).parent.parent / "models"
MODELS = [
    MODELS_DIR / "bitflip_p05.model",
    MODELS_DIR / "bitflip_p1.model",
    MODELS_DIR / "m1zero.model",
    MODELS_DIR / "xflip_scheme.model",
    MODELS_DIR / "unitary_m0zero.model",
]


@pytest.mark.parametrize("path", MODELS)
def test_round_trip_is_bit_identical(path):
    first = load_model(path)
    second = loads(dumps(first))
    assert first.dim == second.dim
    assert len(first.kraus) == len(second.kraus)
    for a, b in zip(first.kraus, second.kraus):
        assert np.array_equal(a, b)
    assert np.array_equal(first.m0, second.m0)
    assert np.array_equal(first.m1, second.m1)
    if first.rho0 is None:
        assert second.rho0 is None
    else:
        assert np.array_equal(first.rho0, second.rho0)
    assert set(first.observables) == set(second.observables)
    for name in first.observables:
        assert np.array_equal(first.observables[name], second.observables[name])
    assert first.options.to_dict() == second.options.to_dict()
    assert model_hash(first) == model_hash(second)
    assert dumps(first) == dumps(second)


def test_serialization_is_deterministic():
    model = load_model(MODELS_DIR / "bitflip_p05.model")
    assert dumps(model) == dumps(model)


def test_malformed_kraus_reports_offending_eigenvalue():
    model = load_model(MODELS_DIR / "bitflip_p05.model")
    model.kraus[0] = 1.3 * np.eye(2, dtype=complex)
    with pytest.raises(ValidationError, match=r"eigenvalue\s+2\.19"):
        model.validate()


def test_missing_dim_rejected():
    with pytest.raises(ValidationError, match="dim"):
        loads('{"kraus": [], "m0": [], "m1": []}')


def test_wrong_matrix_shape_rejected():
    text = dumps(load_model(MODELS_DIR / "bitflip_p05.model"))
    broken = text.replace('"dim": 2', '"dim": 3')
    with pytest.raises(ValidationError, match="3x3"):
        loads(broken)


def _bitflip_doc():
    return json.loads((MODELS_DIR / "bitflip_p05.model").read_text())


@pytest.mark.parametrize(
    "entry, shown",
    [(True, "True"), ("0.5", "'0.5'"), (None, "None")],
    ids=["bool", "string", "null"],
)
def test_a_matrix_entry_that_is_not_a_number_is_refused(entry, shown):
    # np.asarray(..., dtype=float) would read true as 1, "0.5" as 0.5 and
    # null as nan.
    doc = _bitflip_doc()
    doc["observables"]["P0"][0][0][0] = entry
    with pytest.raises(ValidationError, match=rf"observables\['P0'\]: .*number, got {shown}"):
        loads(json.dumps(doc))


def test_a_bool_among_floats_is_refused():
    # numpy promotes a bool mixed among floats to 1.0 or 0.0.
    doc = _bitflip_doc()
    doc["m1"][1][1] = [False, 0.0]
    with pytest.raises(ValidationError, match="m1: .*got False"):
        loads(json.dumps(doc))


def test_misshapen_matrices_are_refused():
    for data in ([[1.0, 0.0], [0.0, 1.0]], [[[1.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
                 [[[1.0, 0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]], 1.0, []):
        doc = _bitflip_doc()
        doc["m0"] = data
        with pytest.raises(ValidationError, match="m0: "):
            loads(json.dumps(doc))


def test_an_integer_too_large_for_a_float_is_refused():
    text = (MODELS_DIR / "bitflip_p05.model").read_text()
    huge = text.replace('"m0": [\n    [[1.0,', '"m0": [\n    [[' + "9" * 400 + ",", 1)
    assert huge != text
    with pytest.raises(ValidationError, match="m0: .*too large"):
        loads(huge)


def test_a_repeated_key_is_refused():
    # json keeps the last of two values, so the model would run on the
    # second m0 and hash as if the first were not there.
    text = (MODELS_DIR / "bitflip_p05.model").read_text()
    zero = json.dumps([[[0.0, 0.0]] * 2] * 2)
    doubled = text.replace('"m0": [', f'"m0": {zero},\n  "m0": [', 1)
    assert doubled != text
    with pytest.raises(ValidationError, match="repeats the key 'm0'"):
        loads(doubled)
    options = text.replace('"tol": ', '"tol": 1.0,\n    "tol": ', 1)
    assert options != text
    with pytest.raises(ValidationError, match="repeats the key 'tol'"):
        loads(options)


def test_unknown_option_rejected():
    model = load_model(MODELS_DIR / "bitflip_p05.model")
    doc = model.to_dict()
    doc["options"]["surprise"] = 1
    from qmcverify.model import model_from_dict

    with pytest.raises(ValidationError, match="surprise"):
        model_from_dict(doc)


def test_model_options_are_validated_on_every_construction():
    opts = ModelOptions(n_max=1e6)
    assert opts.n_max == 1_000_000 and isinstance(opts.n_max, int)
    assert ModelOptions(eps_unit=0.99).eps_unit == 0.99
    bad = (("n_max", 0), ("n_max", True), ("tail_tol", float("nan")), ("tol", -1e-9),
           ("eps_unit", 1.0))
    for name, value in bad:
        with pytest.raises(ValidationError, match=f"option {name} "):
            ModelOptions(**{name: value})
        with pytest.raises(ValidationError, match=f"option {name} "):
            dataclasses.replace(opts, **{name: value})


def test_model_options_are_frozen():
    # An assignment after construction would skip the rule.
    opts = ModelOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        opts.n_max = -5
    assert opts.n_max == 1_000_000


def test_model_options_hold_the_kind_the_rule_gives():
    # A whole n_max is an int however it is written, and every other
    # option a float, so a flag and a model file that give the same
    # number give the same option.
    opts = ModelOptions(tail_tol=1, n_max=10.0, eps_unit=0, tol=1)
    assert [type(v) for v in opts.to_dict().values()] == [float, int, float, float]
    assert opts == ModelOptions(tail_tol=1.0, n_max=10, eps_unit=0.0, tol=1.0)


def test_scheme_model_has_no_program():
    model = load_model(MODELS_DIR / "xflip_scheme.model")
    model.to_scheme()
    with pytest.raises(ValidationError, match="rho0"):
        model.to_program()


def test_unknown_observable_message():
    model = load_model(MODELS_DIR / "bitflip_p05.model")
    with pytest.raises(ValidationError, match="nope"):
        model.observable("nope")


def test_save_and_reload(tmp_path):
    model = load_model(MODELS_DIR / "bitflip_p05.model")
    out = tmp_path / "copy.model"
    save_model(model, out)
    again = load_model(out)
    assert model_hash(model) == model_hash(again)


# Pinned so that no change to the layout can move a hash unnoticed: the
# hashes identify models in reports and golden records.  They moved once,
# on purpose, when model_hash went from SHA-256 over the canonical JSON
# text of Model.to_dict() to SHA-256 over the binary layout of its
# docstring, which hashes the same values without formatting a float.
MODEL_HASHES = {
    "bitflip_p05.model": "d68fba007cdfe98e61a092f8a714cc560b5d2abb7afd8d3fb32495225f472dba",
    "bitflip_p1.model": "6f6582f07851bad29b37460a3e596e7b49a53d706109458c726add998cc0ff92",
    "m1zero.model": "d7ab1fe550952715d25a1120020d9e3de3fd4fe65e3fb7571398da5a83ea69fe",
    "unitary_m0zero.model": "9bc73b864c9257d6b7fb4a97207b4937c0b2c178b68b78b2b018e09a5055bde9",
    "xflip_scheme.model": "cefe37302ca8fa8af5d7235f8f8736dbc5f724785a09a473ffd7020141bc2325",
}


def test_committed_model_hashes_are_pinned():
    assert sorted(p.name for p in MODELS_DIR.glob("*.model")) == sorted(MODEL_HASHES)
    for name, digest in MODEL_HASHES.items():
        assert model_hash(load_model(MODELS_DIR / name)) == digest, name


def test_model_hash_is_the_documented_layout_pinned_by_hand():
    # The header line and the matrix bytes of bitflip_p05 written out from
    # model_hash's docstring, not read off a Model.
    h = 0.7071067811865476
    header = (
        '{"dim":2,"format":"qmc-model/1","kraus":2,"observables":["I","P0","Z"],'
        '"options":{"eps_unit":1e-07,"n_max":1000000,"tail_tol":1e-12,"tol":1e-06},'
        '"rho0":true,"shapes":[[2,2],[2,2],[2,2],[2,2],[2,2],[2,2],[2,2],[2,2]]}\n'
    )
    matrices = [
        [[h, 0], [0, h]], [[0, h], [h, 0]],  # kraus
        [[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 0], [0, 1]],  # m0, m1, rho0
        [[1, 0], [0, 1]], [[1, 0], [0, 0]], [[1, 0], [0, -1]],  # I, P0, Z
    ]
    data = header.encode() + b"".join(np.array(m, dtype="<c16").tobytes() for m in matrices)
    digest = hashlib.sha256(data).hexdigest()
    assert digest == MODEL_HASHES["bitflip_p05.model"]
    assert model_hash(load_model(MODELS_DIR / "bitflip_p05.model")) == digest


def _layout_matrices(model):
    """The matrices in model_hash's layout order: Kraus operators, m0,
    m1, rho0 if present, then the observables by name."""
    rho0 = [] if model.rho0 is None else [model.rho0]
    observables = [model.observables[name] for name in sorted(model.observables)]
    return [*model.kraus, model.m0, model.m1, *rho0, *observables]


def _layout_bytes(model):
    """The matrix part of model_hash's layout, little-endian complex128."""
    return b"".join(
        np.ascontiguousarray(m, dtype="<c16").tobytes() for m in _layout_matrices(model)
    )


def _hash_by_hand(model):
    """model_hash from its documented layout, with hashlib and tobytes."""
    header = {
        "format": "qmc-model/1", "dim": model.dim, "kraus": len(model.kraus),
        "rho0": model.rho0 is not None, "observables": sorted(model.observables),
        "options": model.options.to_dict(),
        "shapes": [list(np.shape(m)) for m in _layout_matrices(model)],
    }
    text = json.dumps(header, sort_keys=True, separators=(",", ":")) + "\n"
    return hashlib.sha256(text.encode() + _layout_bytes(model)).hexdigest()


def _hashes(*models):
    """Each model's hash, checked against the documented layout."""
    digests = [model_hash(m) for m in models]
    assert digests == [_hash_by_hand(m) for m in models]
    return digests


def _bitflip_model(**changes):
    """bitflip_p05 built in memory, not validated, with ``changes``."""
    model = load_model(MODELS_DIR / "bitflip_p05.model")
    fields = dict(
        dim=model.dim, kraus=[k.copy() for k in model.kraus], m0=model.m0.copy(),
        m1=model.m1.copy(), rho0=model.rho0.copy(),
        observables={name: o.copy() for name, o in model.observables.items()},
        options=model.options,
    )
    return Model(**{**fields, **changes})


def _reversed_keys(value):
    if isinstance(value, dict):
        return {k: _reversed_keys(value[k]) for k in reversed(list(value))}
    return value


def _integer_literals(value):
    # 0 for 0.0, 1 for 1.0, -1 for -1.0; -0.0 stays.
    if isinstance(value, list):
        return [_integer_literals(x) for x in value]
    if isinstance(value, float) and value.is_integer() and repr(value) != "-0.0":
        return int(value)
    return value


def test_model_hash_ignores_the_file_formatting(tmp_path):
    base = load_model(MODELS_DIR / "bitflip_p05.model")
    assert base.options == ModelOptions()
    doc = json.loads(dumps(base))
    matrices = {key: _integer_literals(doc[key]) for key in ("kraus", "m0", "m1", "rho0")}
    matrices["observables"] = {k: _integer_literals(v) for k, v in doc["observables"].items()}
    assert matrices["m0"] == [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
    texts = [
        json.dumps(doc, sort_keys=True) + "\n",  # perfbench's compact writer
        json.dumps(_reversed_keys(doc), indent=3),
        json.dumps({k: v for k, v in doc.items() if k != "format"}),
        json.dumps({k: v for k, v in doc.items() if k != "options"}),
        json.dumps({**doc, **matrices}),
    ]
    save_model(base, tmp_path / "saved.model")
    models = [base, load_model(tmp_path / "saved.model"), *map(loads, texts)]
    real = _bitflip_model(
        kraus=[k.real for k in base.kraus], m0=base.m0.real, rho0=base.rho0.real,
        observables={**base.observables, "I": base.observables["I"].real},
    )
    assert real.m0.dtype == np.float64 and real.observables["I"].dtype == np.float64
    assert set(_hashes(*models, real)) == {MODEL_HASHES["bitflip_p05.model"]}


def test_model_hash_tells_every_bit_of_every_matrix():
    # One ulp up in the real or the imaginary part of each entry of each
    # of the eight matrices.
    base = _bitflip_model()
    variants = []
    for k in range(len(_layout_matrices(base))):
        for index in np.ndindex(2, 2):
            for part in (1.0, 1j):
                model = _bitflip_model()
                mat = _layout_matrices(model)[k]
                value = (mat[index] * part.conjugate()).real
                mat[index] += (np.nextafter(value, np.inf) - value) * part
                variants.append(model)
    assert len(variants) == 64
    assert len(set(_hashes(base, *variants))) == 1 + len(variants)


def test_model_hash_tells_signed_zeros():
    digests = []
    for value in (0.0, complex(-0.0, 0.0), complex(0.0, -0.0)):
        model = _bitflip_model()
        model.m0[0, 1] = value
        digests += _hashes(model)
    assert len(set(digests)) == 3
    assert digests[0] == MODEL_HASHES["bitflip_p05.model"]


def test_model_hash_tells_options_names_and_structure():
    base = _bitflip_model()
    k0, k1 = base.kraus
    variants = [
        _bitflip_model(options=dataclasses.replace(ModelOptions(), **{name: value}))
        for name, value in (("tail_tol", 1e-11), ("n_max", 999_999), ("eps_unit", 2e-7),
                            ("tol", 1e-5))
    ]
    variants += [
        _bitflip_model(observables={("Q0" if k == "P0" else k): v for k, v in base.observables.items()}),
        _bitflip_model(rho0=None),
        _bitflip_model(kraus=[k1, k0]),
        _bitflip_model(
            kraus=[k0, k1, base.observables["I"]],
            observables={k: v for k, v in base.observables.items() if k != "I"},
        ),
    ]
    assert len(set(_hashes(base, *variants))) == 1 + len(variants)


def test_model_hash_header_parts_where_the_matrix_bytes_agree():
    # The same matrices in the same order, cut into Kraus operators, m0,
    # m1, rho0 and observables in four ways: only the header tells them
    # apart.  The last differs from the first only in where m0's bytes
    # end, which an unvalidated in-memory Model can do.
    a, b, c, o = (np.full((2, 2), x, dtype=complex) for x in (0.25, 0.5, 0.75, 1.0))
    both = np.concatenate([b, c])
    models = [
        Model(dim=2, kraus=[a], m0=b, m1=c, rho0=None, observables={"X": o}),
        Model(dim=2, kraus=[a, b], m0=c, m1=o, rho0=None, observables={}),
        Model(dim=2, kraus=[a], m0=b, m1=c, rho0=o, observables={}),
        Model(dim=2, kraus=[a], m0=both[:3], m1=both[3:], rho0=None, observables={"X": o}),
    ]
    assert len({_layout_bytes(m) for m in models}) == 1
    assert len(set(_hashes(*models))) == 4


def test_encode_matrix_matches_per_element_encoding():
    tiny, smallest_normal = 5e-324, 2.2250738585072014e-308
    mat = np.array(
        [
            [complex(-0.0, 0.0), complex(0.0, -0.0), complex(tiny, -tiny)],
            [complex(1e308, -1e308), complex(-smallest_normal, 1.5e-310), complex(-0.0, -0.0)],
            [complex(0.1, 1 / 3), complex(-1.0, 2.0), complex(1e-300, -7e307)],
        ]
    )
    for arr in (mat, mat.real):
        per_element = [
            [[float(z.real), float(z.imag)] for z in row] for row in np.asarray(arr, dtype=complex)
        ]
        encoded = encode_matrix(arr)
        assert all(type(x) is float for row in encoded for pair in row for x in pair)
        # json.dumps writes repr(), which tells -0.0 from 0.0 and keeps every bit.
        assert json.dumps(encoded) == json.dumps(per_element)
