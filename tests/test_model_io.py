import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from qmcverify import ModelOptions, ValidationError, load_model, model_hash
from qmcverify.model import dumps, encode_matrix, loads, save_model

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


# Pinned so that no change to the encoding can move a hash unnoticed: the
# hashes identify models in reports and golden records.
MODEL_HASHES = {
    "bitflip_p05.model": "2aa7c3505bc0b6074d5f35e4b426f49ebd0e53f1680b7ca7cac0121256ced2be",
    "bitflip_p1.model": "f61cd0d880c35e0f4f682e113db0e978470434b01d24ecf6b41cba44084f5c43",
    "m1zero.model": "25f933faf5a45d89e20850c4f29c73457faa72be6ecdca8c13bdb424f6fdfebe",
    "unitary_m0zero.model": "71306035d01f1b788e78acc67f840451a36a93bcc696bb39fa427213d19704b4",
    "xflip_scheme.model": "3148b5bb062df6f073a185e7502f1431102f57382f8c62c80778930ddeabb15a",
}


def test_committed_model_hashes_are_pinned():
    assert sorted(p.name for p in MODELS_DIR.glob("*.model")) == sorted(MODEL_HASHES)
    for name, digest in MODEL_HASHES.items():
        assert model_hash(load_model(MODELS_DIR / name)) == digest, name


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
