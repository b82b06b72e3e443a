"""The report against its references: ``to_json`` is strict JSON, the
indented dump of ``to_dict``, and the array-code eigenvalue table matches
the scalar loop in ``helpers``."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmcverify.cli import main
from qmcverify.report import VerificationReport, eigenvalue_table

from helpers import MODELS_DIR, eigenvalue_table_reference

AWKWARD_TEXT = 'say "hi"\n\tto λ → ∞, then "methods": [1]'


def reference_json(report):
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def spectrum(eigenvalues, flags):
    return SimpleNamespace(
        eigenvalues=np.array(eigenvalues, dtype=complex),
        unit_circle_flags=np.array(flags, dtype=bool),
    )


def exact_rows(rows):
    """Rows with each value by its repr, so that -0.0 differs from 0.0."""
    return [[(key, repr(value)) for key, value in row.items()] for row in rows]


def bare_report():
    return VerificationReport(
        command="spectrum", model_path="m.model", model_hash="0" * 64, options={}
    )


def awkward_report():
    report = VerificationReport(
        command="verify",
        model_path=AWKWARD_TEXT,
        model_hash="ab" * 32,
        options={"eps_unit": 1e-7, "n_max": 10, "tail_tol": math.inf, "tol": 1e-6},
        observable=AWKWARD_TEXT,
    )
    report.add_method("series", 0.5, 1e-6, n_used=3, residual=math.nan,
                      stop_reason=AWKWARD_TEXT)
    report.add_method("invariant", math.inf, 1e-6)
    report.add_method("spectral", math.nan, math.inf, margin=-math.inf)
    report.compute_agreement(1e-6)
    report.termination = {
        "scope": "program", "terminates": False, "terminates_at": None,
        "almost_terminates": True, "unit_overlap_norm": 0.0,
    }
    report.warnings = [AWKWARD_TEXT, "", "é\x00"]
    values = [complex(0.0, -0.0), complex(-0.0, 0.0), 5e-324, complex(-0.0, 1e-300),
              1e16, complex(0.25, -0.5), complex(0.25, 0.5), 1.0]
    report.eigenvalues = eigenvalue_table(spectrum(values, [False] * 7 + [True]))
    return report


@pytest.mark.parametrize("make", [bare_report, awkward_report], ids=["bare", "awkward"])
def test_to_json_is_json_dumps_of_to_dict(make):
    report = make()
    assert report.to_json() == reference_json(report)


def refuse_constant(name):
    raise AssertionError(f"{name} is not strict JSON")


def test_awkward_report_covers_the_awkward_values():
    text = awkward_report().to_json()
    doc = json.loads(text, parse_constant=refuse_constant)
    assert doc["model"] == doc["observable"] == doc["warnings"][0] == AWKWARD_TEXT
    assert doc["warnings"][2] == "é\x00" and "\\u00e9\\u0000" in text
    assert doc["options"]["tail_tol"] == doc["methods"][2]["tolerance"] == "inf"
    assert doc["methods"][2]["diagnostics"]["margin"] == "-inf"
    assert doc["methods"][0]["diagnostics"]["residual"] == "nan"
    assert doc["agreement"]["max_delta"] == "nan"
    assert doc["termination"]["terminates_at"] is None
    moduli = [row["modulus"] for row in doc["eigenvalues"]]
    assert 1e16 in moduli and 5e-324 in moduli and 1e-300 in moduli
    assert '"modulus": 1e+16,' in text


# Parts that make ties in modulus (1, i, 0.6 + 0.8i), exact unit
# eigenvalues and signed zeros common, beside arbitrary finite floats.
PARTS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 0.6, -0.6, 0.8, -0.8]),
    st.floats(-2.0, 2.0, allow_nan=False),
)


@st.composite
def spectra(draw):
    values = draw(st.lists(st.builds(complex, PARTS, PARTS), max_size=24))
    pairs = draw(st.integers(0, len(values)))
    values = draw(st.permutations(values + [z.conjugate() for z in values[:pairs]]))
    flags = draw(st.lists(st.booleans(), min_size=len(values), max_size=len(values)))
    return spectrum(values, flags)


@settings(deadline=None, derandomize=True, max_examples=200)
@given(spectra())
def test_eigenvalue_table_matches_the_scalar_loop(spectral):
    rows = eigenvalue_table(spectral)
    assert exact_rows(rows) == exact_rows(eigenvalue_table_reference(spectral))
    report = bare_report()
    report.eigenvalues = rows
    assert report.to_json() == reference_json(report)


@pytest.mark.parametrize("n", [324, 5000])
def test_eigenvalue_table_matches_the_scalar_loop_on_random_moduli(rng, n):
    # The vectorized np.abs of a complex array differs from the scalar abs
    # in the last bit on about a third of such values; np.hypot does not.
    z = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    spectral = spectrum(np.concatenate([z, z.conj()]), rng.random(2 * n) < 0.5)
    assert exact_rows(eigenvalue_table(spectral)) == exact_rows(
        eigenvalue_table_reference(spectral)
    )


COMMANDS = [
    ["verify", "-o", "P0"],
    ["verify", "-o", "I", "--method", "series"],
    ["runtime"],
    ["terminate", "--scope", "program"],
    ["terminate", "--scope", "scheme"],
    ["spectrum"],
    ["spectrum", "--eps-unit", "0"],
    ["simulate"],
]


@pytest.mark.parametrize("path", sorted(MODELS_DIR.glob("*.model")), ids=lambda p: p.stem)
def test_json_out_is_the_indented_dump_of_its_content(path, tmp_path, capsys):
    written = 0
    for i, command in enumerate(COMMANDS):
        out = tmp_path / f"{i}.json"
        main([command[0], str(path), *command[1:], "--json-out", str(out)])
        capsys.readouterr()
        if out.exists():
            text = out.read_text()
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
            written += 1
    assert written >= 2
