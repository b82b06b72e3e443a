"""Workloads: seeded model generation, fixed job lists and references.

Every generated model is written in the documented ``qmc-model/1`` JSON
format by the code here, with plain numpy, so that set-up time does not
move when the verifier's own modules change.  Each job carries the
analytic (or independently computed) answer it must reproduce.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NAMES = ("near_unit", "nilpotent_counter", "random_wide", "committed")

# A terminate job on a d=2 or committed model takes a few ms; there its
# time is the median of this many calls in a row, so that it is no
# noisier than the longer jobs.
TERMINATE_REPEATS = 5

OPTIONS = {"tail_tol": 1e-12, "n_max": 1_000_000, "eps_unit": 1e-7, "tol": 1e-6}

# Sizes of one pass over each workload.  A pass takes 3-7 s on one 2.1 GHz
# x86 vCPU with single-threaded OpenBLAS; the larger sizes the
# roadmap quotes (p = 0.9999, counter d = 32) take 25-35 s per command
# and are left out so that a 25 s run still repeats the pass.
NEAR_UNIT_GAPS = (0.01, 0.006, 0.0035)  # 1 - p
COUNTER_DIMS = (12, 15, 18)
RANDOM_SIZES = ((12, 2), (15, 2), (18, 1))  # (d, models of that size)
RADIUS_CAP = 0.95
SMOKE = {"near_unit": (0.1,), "nilpotent_counter": (3,), "random_wide": ((3, 1),)}

# (terminates, terminates_at, almost_terminates)
ALMOST = (False, None, True)
NEVER = (False, None, False)


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the answer it must give.

    ``value`` is the reference for the value of every method in the
    report; a callable is evaluated once, after set-up and before the
    timed passes.  Each pass calls the job ``repeats`` times in a row.
    """

    command: str
    model: str
    args: tuple[str, ...] = ()
    exit_code: int = 0
    value: float | Callable[[], float] | None = None
    termination: tuple | None = None
    steps: tuple[float, ...] | None = None
    tol: float = OPTIONS["tol"]
    repeats: int = 1

    def argv(self, json_out: str) -> list[str]:
        return [self.command, self.model, *self.args, "--json-out", json_out]

    @property
    def label(self) -> str:
        return " ".join([self.command, Path(self.model).name, *self.args])


def _cmat(a) -> list:
    a = np.asarray(a, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def write_model(path: Path, kraus, m0, m1, rho0, observables) -> str:
    """Write one model file; returns the SHA-256 of its bytes."""
    doc = {
        "format": "qmc-model/1",
        "dim": int(np.asarray(m0).shape[0]),
        "kraus": [_cmat(k) for k in kraus],
        "m0": _cmat(m0),
        "m1": _cmat(m1),
        "observables": {name: _cmat(o) for name, o in observables.items()},
        "options": OPTIONS,
    }
    if rho0 is not None:
        doc["rho0"] = _cmat(rho0)
    data = (json.dumps(doc, sort_keys=True) + "\n").encode()
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _program_jobs(path: str, obs: str, value, runtime, termination, repeats=1) -> list[Job]:
    return [
        Job("verify", path, ("-o", obs, "--method", "all"), value=value),
        Job("runtime", path, value=runtime),
        Job("terminate", path, ("--scope", "program"), termination=termination, repeats=repeats),
        Job("terminate", path, ("--scope", "scheme"), termination=termination, repeats=repeats),
    ]


def bitflip(p: float):
    """Stay with probability p, flip with 1 - p; halt on |0>."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    kraus = [math.sqrt(p) * np.eye(2), math.sqrt(1 - p) * x]
    return kraus, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])


def near_unit(rng, gaps, workdir: Path, hashes: dict) -> list[Job]:
    """Bitflip from |1>: the terminal state is |0><0| and the mean running
    time is 1 + 1/(1-p).  Series steps and fixed-point iterations grow
    like 1/(1-p); the seed moves each 1-p by up to 1%."""
    jobs = []
    for i, gap in enumerate(gaps):
        q = gap * (1 + 0.01 * rng.uniform(-1, 1))
        kraus, m0, m1 = bitflip(1 - q)
        name = f"bitflip_{i}.model"
        path = workdir / name
        hashes[name] = write_model(path, kraus, m0, m1, np.diag([0.0, 1.0]), {"P0": m0})
        jobs += _program_jobs(str(path), "P0", 1.0, 1 + 1 / q, ALMOST, TERMINATE_REPEATS)
    return jobs


def nilpotent_counter(rng, dims, workdir: Path, hashes: dict) -> list[Job]:
    """A cyclic shift through a seeded basis order with seeded phases,
    halting on the last state of the cycle.  From the first state the run
    takes exactly d steps; no start takes longer, so the scheme also
    terminates at d."""
    jobs = []
    for d in dims:
        order = rng.permutation(d)
        phases = np.exp(2j * np.pi * rng.uniform(size=d))
        shift = np.zeros((d, d), dtype=complex)
        shift[order[(np.arange(d) + 1) % d], order] = phases
        m0 = np.zeros((d, d))
        m0[order[-1], order[-1]] = 1.0
        rho0 = np.zeros((d, d))
        rho0[order[0], order[0]] = 1.0
        name = f"counter_{d}.model"
        path = workdir / name
        hashes[name] = write_model(path, [shift], m0, np.eye(d) - m0, rho0, {"P": m0})
        jobs += _program_jobs(str(path), "P", 1.0, float(d), (True, d, True))
    return jobs


def _ginibre(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _haar_isometry(rng, rows: int, cols: int) -> np.ndarray:
    q, r = np.linalg.qr(_ginibre(rng, rows, cols))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def step_matrix(kraus, m1) -> np.ndarray:
    """Row-major vectorization of G(rho) = sum_k K M1 rho M1^dag K^dag."""
    return sum(np.kron(k @ m1, (k @ m1).conj()) for k in kraus)


def random_contracting(rng, d: int, n_kraus: int = 2, max_tries: int = 100):
    """Haar isometry split into Kraus blocks, a random complete measurement,
    redrawn until the step matrix has spectral radius <= RADIUS_CAP."""
    for _ in range(max_tries):
        iso = _haar_isometry(rng, n_kraus * d, d)
        kraus = [iso[i * d : (i + 1) * d] for i in range(n_kraus)]
        h = _ginibre(rng, d, d)
        w, v = np.linalg.eigh(h @ h.conj().T)
        w = w * (rng.uniform(0.3, 0.95) / w.max())
        m1 = _haar_isometry(rng, d, d) @ (v * np.sqrt(w)) @ v.conj().T
        m0 = _haar_isometry(rng, d, d) @ (v * np.sqrt(1 - w)) @ v.conj().T
        if np.abs(np.linalg.eigvals(step_matrix(kraus, m1))).max() <= RADIUS_CAP:
            return kraus, m0, m1
    raise RuntimeError(f"no d={d} program with spectral radius <= {RADIUS_CAP}")


def series_reference(kraus, m0, m1, rho0, obs, moment: int) -> float:
    """tr(obs E0(sum_n (n+1)^moment G^n(rho0))) by dense solves against
    I - M; valid because the spectral radius of M is below one."""
    d = m0.shape[0]
    a = np.eye(d * d) - step_matrix(kraus, m1)
    x = np.linalg.solve(a, rho0.reshape(-1))
    if moment:
        x = np.linalg.solve(a, x)
    terminal = m0 @ x.reshape(d, d) @ m0.conj().T
    return float(np.trace(obs @ terminal).real)


def random_wide(rng, sizes, workdir: Path, hashes: dict) -> list[Job]:
    """Generic spectra: no exact termination, almost-sure termination, and
    answers checked against the benchmark's own resolvent solves."""
    jobs = []
    for d, count in sizes:
        for i in range(count):
            kraus, m0, m1 = random_contracting(rng, d)
            g = _ginibre(rng, d, d)
            rho0 = g @ g.conj().T
            rho0 /= np.trace(rho0).real
            g = _ginibre(rng, d, d)
            obs = g @ g.conj().T / d
            name = f"random_{d}_{i}.model"
            path = workdir / name
            hashes[name] = write_model(path, kraus, m0, m1, rho0, {"P": obs})
            args = (kraus, m0, m1, rho0)
            jobs += _program_jobs(
                str(path),
                "P",
                lambda a=args, o=obs: series_reference(*a, o, 0),
                lambda a=args, d=d: series_reference(*a, np.eye(d), 1),
                ALMOST,
            )
    return jobs


def _bitflip_steps(p: float, n: int) -> tuple[float, ...]:
    return (0.0,) + tuple(p ** (k - 2) * (1 - p) for k in range(2, n + 1))


SIM_STEPS = 20

# The committed models and their analytic answers.  None of them is
# generated, so the seed only fixes the order of the jobs in a pass.
COMMITTED = {
    # p = 0.5 from |1>: terminal |0><0|, mean time 1 + 1/(1-p) = 3,
    # step matrix spectrum {p, 0}.
    "bitflip_p05": dict(
        values={"I": 1.0, "P0": 1.0, "Z": 1.0}, runtime=3.0, program=ALMOST,
        scheme=ALMOST, radius=0.5, steps=_bitflip_steps(0.5, SIM_STEPS),
    ),
    # p = 1 from a state with weight 0.36 on |0>: that weight halts at
    # step 1, the rest never halts.  QV3 fails, so verify exits 4.
    "bitflip_p1": dict(
        values={"I": 0.36, "P0": 0.36, "Z": 0.36}, verify_exit=4,
        runtime=math.inf, program=NEVER, scheme=NEVER, radius=1.0,
        steps=(0.36,) + (0.0,) * (SIM_STEPS - 1),
    ),
    # M0 = I: every run halts at step 1 in the state |1><1|.
    "m1zero": dict(
        values={"I": 1.0, "P0": 0.0}, runtime=1.0, program=(True, 1, True),
        scheme=(True, 1, True), radius=0.0, steps=(1.0,) + (0.0,) * (SIM_STEPS - 1),
    ),
    # M0 = 0 under a diagonal unitary: nothing ever halts.
    "unitary_m0zero": dict(
        values={"P0": 0.0}, verify_exit=4, runtime=math.inf, program=NEVER,
        scheme=NEVER, radius=1.0, steps=(0.0,) * SIM_STEPS,
    ),
    # Scheme only: X flip, halt on |0>; the slowest start |1> halts at 2.
    "xflip_scheme": dict(scheme=(True, 2, True), radius=0.0),
}


def committed(rng, root: Path) -> list[Job]:
    """Every command on every committed model.  ``verify -o Z`` expects the
    analytic answer even though the CLI currently rejects non-positive
    observables, so those jobs count as failed until that is fixed."""
    jobs = []
    for name, ref in COMMITTED.items():
        path = f"models/{name}.model"
        if not (root / path).is_file():
            raise FileNotFoundError(path)
        for obs, value in ref.get("values", {}).items():
            jobs.append(
                Job("verify", path, ("-o", obs, "--method", "all"),
                    exit_code=ref.get("verify_exit", 0), value=value)
            )
        if "runtime" in ref:
            jobs.append(Job("runtime", path, value=ref["runtime"]))
            jobs.append(Job("terminate", path, ("--scope", "program"), termination=ref["program"],
                            repeats=TERMINATE_REPEATS))
            jobs.append(Job("simulate", path, ("--steps", str(SIM_STEPS)), steps=ref["steps"]))
        jobs.append(Job("terminate", path, ("--scope", "scheme"), termination=ref["scheme"],
                        repeats=TERMINATE_REPEATS))
        jobs.append(Job("spectrum", path, value=ref["radius"]))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def build(name: str, seed: int, root: Path, workdir: Path, smoke: bool):
    """Generate the models of one workload; returns (jobs, model hashes)."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    hashes: dict[str, str] = {}
    if name == "near_unit":
        jobs = near_unit(rng, SMOKE[name] if smoke else NEAR_UNIT_GAPS, workdir, hashes)
    elif name == "nilpotent_counter":
        jobs = nilpotent_counter(rng, SMOKE[name] if smoke else COUNTER_DIMS, workdir, hashes)
    elif name == "random_wide":
        jobs = random_wide(rng, SMOKE[name] if smoke else RANDOM_SIZES, workdir, hashes)
    elif name == "committed":
        jobs = committed(rng, root)
        for job in jobs:
            hashes.setdefault(job.model, hashlib.sha256((root / job.model).read_bytes()).hexdigest())
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return jobs, hashes
