import dataclasses
from pathlib import Path

import numpy as np
import pytest

from qmcverify import ModelOptions, ValidationError, load_model, model_hash
from qmcverify.model import dumps, loads, save_model

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
    for name, value in (("n_max", 0), ("n_max", True), ("tail_tol", float("nan")), ("tol", -1e-9)):
        with pytest.raises(ValidationError, match=f"option {name} "):
            ModelOptions(**{name: value})
        with pytest.raises(ValidationError, match=f"option {name} "):
            dataclasses.replace(opts, **{name: value})


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
