"""The benchmark's tracer replaces verifier functions by name; every name
it lists must exist, or a traced run would fail or silently lose a layer.
Its counters read the functions' return values, which must keep the
fields they read."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from qmcverify import build_representation, load_model, matrix_representation

from helpers import MODELS_DIR

TRACING = Path(__file__).parent.parent / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    for mod_name, attr, _, _ in tracing.FUNCTIONS:
        assert callable(getattr(importlib.import_module(mod_name), attr, None)), (
            f"{mod_name}.{attr}"
        )


def test_every_traced_method_resolves(tracing):
    for mod_name, cls_name, attr, _ in tracing.METHODS:
        cls = getattr(importlib.import_module(mod_name), cls_name, None)
        assert cls is not None, f"{mod_name}.{cls_name}"
        assert callable(cls.__dict__.get(attr)), f"{mod_name}.{cls_name}.{attr}"


def test_every_counter_counts_a_real_return_value(tracing):
    model = load_model(MODELS_DIR / "bitflip_p05.model")
    prog = model.to_program()
    p0 = model.observable("P0")
    rep = build_representation(prog)
    step = matrix_representation(prog.g)
    unit_step = matrix_representation(load_model(MODELS_DIR / "unitary_m0zero.model").to_scheme().g)
    calls = {
        "oracle_expectation": lambda f: f(prog, p0),
        "least_fixed_point_q": lambda f: f(prog, p0),
        "spectral_decompose": lambda f: f(step),
        "check_program_termination": lambda f: f(rep, prog.rho0),
        "check_scheme_termination": lambda f: f(rep),
    }
    counted = [(mod, attr, counter) for mod, attr, _, counter in tracing.FUNCTIONS if counter]
    assert sorted(attr for _, attr, _ in counted) == sorted(calls)
    results = []
    for mod_name, attr, counter in counted:
        fn = getattr(importlib.import_module(mod_name), attr)
        results.append((attr, counter, calls[attr](fn)))
        if attr == "spectral_decompose":
            # Eigenvectors exist only with unit spectrum: the counter must
            # read the return value of that path too.
            results.append((attr, counter, fn(unit_step)))
    for attr, counter, result in results:
        counts = counter(result)
        assert counts and set(counts) <= set(tracing.COUNT_METRICS), attr
        for name, value in counts.items():
            assert isinstance(value, int) and not isinstance(value, bool), (name, value)
