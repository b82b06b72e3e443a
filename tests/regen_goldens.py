"""Regenerate the golden series-oracle records in
``tests/goldens/oracle_goldens.json`` from their seeds.

Run it from the root of a checkout, only deliberately (never from CI)::

    PYTHONPATH=src python tests/regen_goldens.py [OUT]

It writes to ``OUT``, by default the committed file.  The programs come
from ``tests/sampling.py`` and the values from the series oracle alone.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

from qmcverify.model import Model, model_hash
from qmcverify.oracle import oracle_expectation

from sampling import random_contracting_program, random_observable

GOLDEN_SEEDS = (101, 102, 103, 104, 105, 106)
GOLDEN_PATH = Path(__file__).parent / "goldens" / "oracle_goldens.json"


def golden_records(tail_tol: float = 1e-12) -> dict:
    """Recompute the golden oracle records from their seeds."""
    records = []
    for seed in GOLDEN_SEEDS:
        rng = np.random.default_rng(seed)
        prog = random_contracting_program(2, rng)
        p = random_observable(2, rng, psd=True)
        model = Model(
            dim=2,
            kraus=[np.array(k) for k in prog.e.kraus],
            m0=np.array(prog.meas.m0),
            m1=np.array(prog.meas.m1),
            rho0=np.array(prog.rho0.mat),
            observables={"P": p.mat},
        )
        result = oracle_expectation(prog, p, tail_tol=tail_tol)
        records.append(
            {
                "seed": seed,
                "dim": 2,
                "model_hash": model_hash(model),
                "tolerances": {"tail_tol": tail_tol},
                "values": {
                    "expectation_series": result.expectation_series,
                    "running_time_series": result.running_time_series,
                    "residual_mass": result.residual_mass,
                    "n_used": result.n_used,
                    "p_first": result.run.p[:8].tolist(),
                },
            }
        )
    return {"format": "qmc-goldens/1", "records": records}


def main(argv: list[str]) -> int:
    out = Path(argv[0]) if argv else GOLDEN_PATH
    doc = golden_records()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(doc['records'])} golden records to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
