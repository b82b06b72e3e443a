import math

import numpy as np
import pytest

from pathlib import Path

from qmcverify import (
    DimensionMismatchError,
    EigensolverError,
    ValidationError,
    build_representation,
    is_positive_semidefinite,
    spectral_decompose,
)
from qmcverify import linalg
from qmcverify.cli import main
from qmcverify.linalg import TOL_EIG, TOL_HERM, _cluster_eigenvalues, max_abs
from qmcverify.model import load_model

from helpers import (
    X,
    bitflip_step_matrix,
    count_calls,
    counter_scheme,
    hadamard_walk_scheme,
    unitary_scheme,
)
from sampling import random_contracting_program, random_unitary

MODELS_DIR = Path(__file__).parent.parent / "models"


def random_complex(rng, d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_kron_identity():
    assert np.array_equal(np.kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_pauli_flip():
    expected = np.zeros((4, 4))
    expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
    assert np.array_equal(np.kron(X, X), expected)


def test_kron_single_entry_placement():
    e01 = np.zeros((2, 2))
    e01[0, 1] = 1.0
    out = np.kron(e01, e01)
    expected = np.zeros((4, 4))
    expected[0, 3] = 1.0
    assert np.array_equal(out, expected)


def test_kron_associative_and_bilinear(rng):
    for _ in range(10):
        a, b, c = (random_complex(rng, 2) for _ in range(3))
        assert max_abs(np.kron(np.kron(a, b), c) - np.kron(a, np.kron(b, c))) <= 1e-9
        s, t = rng.standard_normal(2)
        assert max_abs(np.kron(s * a + t * b, c) - s * np.kron(a, c) - t * np.kron(b, c)) <= 1e-9
        assert max_abs(np.kron(c, s * a + t * b) - s * np.kron(c, a) - t * np.kron(c, b)) <= 1e-9


@pytest.mark.parametrize("d", [2, 3])
def test_entangled_vector_shuffle_identity(rng, d):
    # (A (x) B)(C (x) I)|Phi> = (A C B^T (x) I)|Phi>
    phi = np.eye(d, dtype=complex).reshape(-1)
    eye = np.eye(d)
    for _ in range(10):
        a, b, c = (random_complex(rng, d) for _ in range(3))
        lhs = np.kron(a, b) @ (np.kron(c, eye) @ phi)
        rhs = np.kron(a @ c @ b.T, eye) @ phi
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * max(1.0, np.linalg.norm(lhs))


def test_psd_zero_matrix():
    assert is_positive_semidefinite(np.zeros((3, 3)))


def test_psd_small_negative_eigenvalue():
    assert not is_positive_semidefinite(np.diag([1.0, -1e-3]), tol=1e-9)


def test_psd_plus_projector():
    assert is_positive_semidefinite(np.full((2, 2), 0.5))


def test_psd_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        is_positive_semidefinite(np.zeros((2, 3)))


def test_psd_rejects_non_hermitian():
    assert not is_positive_semidefinite(np.array([[1.0, 1.0], [0.0, 1.0]]))


def reference_psd(a, tol):
    """The per-matrix PSD decision, one matrix at a time: finite,
    Hermitian within TOL_HERM, and a minimum eigenvalue of at least
    ``-tol * max(1, max |eigenvalue|)``."""
    if not np.isfinite(a).all() or max_abs(a - a.conj().T) > TOL_HERM:
        return False
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    return bool(w.min() >= -tol * max(1.0, float(np.max(np.abs(w)))))


def psd_boundary_cases(d, tol, rng):
    """d x d matrices at the edges of the decision: a minimum eigenvalue
    one ulp either side of ``-tol * scale`` (diagonal, so that eigvalsh
    returns it exactly), a Hermitian defect of exactly TOL_HERM and one
    ulp above, and rotated PSD and non-PSD matrices."""
    cases = []
    for top in (0.5, 3.0):
        edge = -tol * max(1.0, top)
        for w_min in (np.nextafter(edge, -1.0), edge, np.nextafter(edge, 1.0)):
            w = np.full(d, top)
            w[0] = w_min
            cases.append(np.diag(w).astype(complex))
    if d > 1:
        for defect in (TOL_HERM, np.nextafter(TOL_HERM, 1.0)):
            a = np.eye(d, dtype=complex)
            a[0, 1] = defect
            cases.append(a)
    u = np.linalg.qr(random_complex(rng, d))[0]
    for shift in (0.0, -1e-3, -1e-12):
        w = rng.uniform(0.0, 2.0, d)
        w[0] = shift
        cases.append((u * w) @ u.conj().T)
    return cases


@pytest.mark.parametrize("d", range(1, 19))
def test_psd_flags_match_the_per_matrix_reference(d, rng):
    for tol in (linalg.TOL_NUM, 1e-8):
        cases = psd_boundary_cases(d, tol, rng)
        bad = np.eye(d, dtype=complex)
        bad[-1, -1] = np.nan
        cases.insert(len(cases) // 2, bad)
        stack = np.array(cases)
        want = [reference_psd(a, tol) for a in cases]
        assert linalg.psd_flags(stack, tol).tolist() == want
        assert [linalg.psd_flags(a[None], tol)[0] for a in cases] == want
        for a, ok in zip(cases, want):
            if np.isfinite(a).all():
                assert is_positive_semidefinite(a, tol) == ok
        assert True in want and False in want


def test_psd_flags_decide_at_the_ulp():
    # The diagonal cases hold the minimum exactly: one ulp below the edge
    # fails, the edge itself and one ulp above pass; a defect of TOL_HERM
    # passes and one ulp more fails.
    d, tol = 3, linalg.TOL_NUM
    cases = psd_boundary_cases(d, tol, np.random.default_rng(0))[:8]
    assert linalg.psd_flags(np.array(cases), tol).tolist() == [False, True, True] * 2 + [True, False]


def test_spectral_diagonal():
    sd = spectral_decompose(np.diag([1.0, 0.5]))
    order = np.argsort(-np.abs(sd.eigenvalues))
    assert np.allclose(sd.eigenvalues[order], [1.0, 0.5])
    assert list(sd.unit_circle_flags[order]) == [True, False]


def test_spectral_bitflip_step_matrix():
    sd = spectral_decompose(bitflip_step_matrix(0.5))
    assert np.allclose(sorted(np.abs(sd.eigenvalues)), [0.0, 0.0, 0.0, 0.5], atol=1e-12)
    assert not sd.unit_circle_flags.any()


def test_spectral_nilpotent_index():
    sd = spectral_decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.allclose(sd.eigenvalues, 0.0)
    assert sd.zero_nilpotent_index_bound == 2


def test_spectral_eigenpair_residuals(rng):
    # Each eigenvalue is within TOL_EIG of the spectrum of a, i.e.
    # a - lambda I has a singular value that small.  Vectors come back for
    # the unit flags only, none without unit spectrum; on a unitary every
    # eigenvalue is flagged, and each right and left eigenpair is within
    # TOL_EIG.
    for d in (2, 4, 6):
        a = random_complex(rng, d)
        sd = spectral_decompose(a)
        assert sd.right_vectors.shape == sd.left_vectors.shape == (d, 0)
        tol = TOL_EIG * max(1.0, np.linalg.norm(a, 2))
        for lam in sd.eigenvalues:
            assert np.linalg.svd(a - lam * np.eye(d), compute_uv=False)[-1] <= tol
        q, _ = np.linalg.qr(a)
        sd = spectral_decompose(q)
        assert sd.unit_circle_flags.all()
        r, l, lam = sd.right_vectors, sd.left_vectors, sd.eigenvalues
        assert max_abs(q @ r - r * lam[None, :]) <= TOL_EIG
        assert max_abs(l.conj().T @ q - lam[:, None] * l.conj().T) <= TOL_EIG


def test_unit_projector_idempotent_for_unitary(rng):
    # every eigenvalue of a unitary is unit-modulus and semisimple
    g = random_complex(rng, 4)
    q, _ = np.linalg.qr(g)
    sd = spectral_decompose(q)
    assert sd.unit_circle_flags.all()
    p = sd.unit_projector()
    assert max_abs(p @ p - p) <= 1e-6
    assert max_abs(p - np.eye(4)) <= 1e-6


def test_unit_projector_zero_without_unit_spectrum():
    sd = spectral_decompose(np.diag([0.5, 0.25]))
    assert max_abs(sd.unit_projector()) == 0.0


def counter_step_matrix(d):
    """Cyclic shift through the basis, halting on the last state."""
    shift = np.roll(np.eye(d), 1, axis=0)
    m1 = np.diag([1.0] * (d - 1) + [0.0])
    km = shift @ m1
    return np.kron(km, km.conj())


@pytest.mark.parametrize(
    "m, eig_calls",
    [
        (bitflip_step_matrix(0.5), 0),
        (counter_step_matrix(4), 0),
        (bitflip_step_matrix(1.0), 2),
    ],
    ids=["bitflip", "counter", "stuck_bitflip"],
)
def test_adjoint_eigensolve_only_with_unit_spectrum(monkeypatch, m, eig_calls):
    # eigvals first; eig for the right and then the adjoint eigenvectors
    # only when some eigenvalue lies on the unit circle.
    calls = count_calls(monkeypatch, "eigvals", "eig")
    sd = spectral_decompose(m)
    assert [name for name, _ in calls] == ["eigvals"] + ["eig"] * eig_calls
    assert sd.unit_circle_flags.any() == (eig_calls == 2)
    k = np.count_nonzero(sd.unit_circle_flags)
    assert sd.right_vectors.shape == sd.left_vectors.shape == (m.shape[0], k)


def rotation_jordan_half(theta=0.7):
    """Rotation (eigenvalues exp(+-i theta)) + 3x3 Jordan block at 0 + 0.5,
    with the exact projector onto the rotation block."""
    m = np.zeros((6, 6), dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    m[:2, :2] = [[c, -s], [s, c]]
    m[2, 3] = m[3, 4] = 1.0
    m[5, 5] = 0.5
    return m, np.diag([1.0, 1.0, 0.0, 0.0, 0.0, 0.0]).astype(complex)


@pytest.mark.parametrize("similar", [False, True], ids=["plain", "similarity"])
def test_unit_projector_next_to_defective_zero_block(rng, similar):
    m, exact = rotation_jordan_half()
    if similar:
        t = random_complex(rng, 6)
        t_inv = np.linalg.inv(t)
        m, exact = t @ m @ t_inv, t @ exact @ t_inv
    sd = spectral_decompose(m)
    assert np.count_nonzero(sd.unit_circle_flags) == 2
    p = sd.unit_projector()
    assert max_abs(p - exact) <= 1e-12
    assert max_abs(p @ p - p) <= 1e-12
    assert max_abs(p @ m - m @ p) <= 1e-12
    assert sd.zero_nilpotent_index_bound == 3


@pytest.mark.parametrize("name", ["unitary_m0zero", "bitflip_p1"])
def test_dual_vectors_biorthonormal_in_unit_clusters(name):
    scheme = load_model(MODELS_DIR / f"{name}.model").to_scheme()
    sd = build_representation(scheme).spectral
    clusters = sd.unit_clusters()
    assert clusters
    for cols in clusters:
        gram = sd.left_vectors[:, cols].conj().T @ sd.right_vectors[:, cols]
        assert max_abs(gram - np.eye(cols.size)) <= 1e-12
    # dual vectors exist for the unit-flagged eigenvalues only
    k = np.count_nonzero(sd.unit_circle_flags)
    assert sd.left_vectors.shape == sd.right_vectors.shape == (sd.matrix.shape[0], k)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spectral_real_input_rejects_non_finite(bad):
    with pytest.raises(ValidationError):
        spectral_decompose(np.array([[1.0, bad], [0.0, 0.5]]))


@pytest.mark.parametrize("eps_unit", [1, 1.5, math.inf, math.nan, -1])
def test_eps_unit_outside_zero_one_is_a_validation_error(eps_unit):
    # At 1 or more every eigenvalue would be flagged unit-circle, which the
    # build reported as a defective unit eigenvalue (xflip_scheme) or let
    # through to a termination ConsistencyError (m1zero); NaN and negative
    # values flagged nothing.  All are bad input, as in ModelOptions.
    message = "option eps_unit must be a finite number >= 0 and < 1"
    with pytest.raises(ValidationError, match=message):
        spectral_decompose(np.eye(2), eps_unit)
    for name in ("xflip_scheme", "m1zero"):
        scheme = load_model(MODELS_DIR / f"{name}.model").validated.scheme
        with pytest.raises(ValidationError, match=message):
            build_representation(scheme, eps_unit=eps_unit)


def test_spectral_real_input_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        spectral_decompose(np.zeros((2, 3)))


@pytest.mark.parametrize(
    "m, calls_expected",
    [
        (np.diag([0.5, 0.25]), ["eigvals"]),
        (np.array([[0.0, -0.5], [0.5, 0.0]]), ["eigvals"]),
        (np.array([[0.0, -1.0], [1.0, 0.0]]), ["eigvals", "eig", "eig"]),
    ],
    ids=["real", "pair", "unit_pair"],
)
def test_spectral_real_input_returns_complex_eigendata(monkeypatch, m, calls_expected):
    calls = count_calls(monkeypatch, "eigvals", "eig")
    sd = spectral_decompose(m)
    assert calls == [(name, np.float64) for name in calls_expected]
    assert sd.eigenvalues.dtype == complex
    assert np.array_equal(sd.eigenvalues, np.linalg.eigvals(m))
    assert sd.right_vectors.dtype == sd.left_vectors.dtype == complex
    unit = sd.eigenvalues[sd.unit_circle_flags]
    assert sd.right_vectors.shape == (m.shape[0], unit.size)
    assert max_abs(m @ sd.right_vectors - sd.right_vectors * unit) <= 1e-15


def cluster_by_search(evals, threshold):
    """The connected components by depth-first search, numbered in order
    of their first index: the reference for the vectorized clustering."""
    ids = -np.ones(evals.size, dtype=int)
    next_id = 0
    for i in range(evals.size):
        if ids[i] >= 0:
            continue
        stack = [i]
        ids[i] = next_id
        while stack:
            k = stack.pop()
            for j in np.flatnonzero(np.abs(evals - evals[k]) <= threshold):
                if ids[j] < 0:
                    ids[j] = next_id
                    stack.append(j)
        next_id += 1
    return ids


def test_cluster_ids_match_the_search(rng):
    # chains whose ends lie far apart, shuffled among isolated points
    for _ in range(20):
        n = int(rng.integers(1, 60))
        chain = np.cumsum(rng.uniform(0.5, 1.0, n)) * 1e-6
        points = np.where(rng.random(n) < 0.5, chain, rng.standard_normal(n))
        evals = rng.permutation(points + 1j * rng.choice([0.0, 1e-7, 5.0], n))
        assert np.array_equal(_cluster_eigenvalues(evals, 1e-6), cluster_by_search(evals, 1e-6))
    # one long chain in shuffled order, as on the counter's zero cluster
    evals = rng.permutation(np.arange(300) * 0.9e-6).astype(complex)
    assert np.array_equal(_cluster_eigenvalues(evals, 1e-6), np.zeros(300, dtype=int))
    assert _cluster_eigenvalues(np.zeros(0, dtype=complex), 1e-6).size == 0


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS_DIR.glob("*.model")))
def test_cluster_ids_match_the_search_on_models(name):
    sd = build_representation(load_model(MODELS_DIR / name).to_scheme()).spectral
    # Only the unit flags are clustered, one id each in flag order.
    threshold = 1e-6 * max(1.0, sd.spectral_radius())
    unit = sd.eigenvalues[sd.unit_circle_flags]
    assert np.array_equal(sd.cluster_ids, cluster_by_search(unit, threshold))


@pytest.mark.parametrize("name, flagged", [("bitflip_p05", 0), ("unitary_m0zero", 4)])
def test_only_unit_flags_are_clustered(monkeypatch, name, flagged):
    sizes = []

    def spy(evals, threshold, _cluster=linalg._cluster_eigenvalues):
        sizes.append(evals.size)
        return _cluster(evals, threshold)

    monkeypatch.setattr(linalg, "_cluster_eigenvalues", spy)
    sd = build_representation(load_model(MODELS_DIR / f"{name}.model").to_scheme()).spectral
    assert sd.eigenvalues.size == 4
    assert sizes == [flagged] == [np.count_nonzero(sd.unit_circle_flags)]


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_norm_is_the_rms_singular_value(rng, kind):
    for n in (1, 2, 5, 9):
        a = rng.standard_normal((n, n))
        if kind == "complex":
            a = a + 1j * rng.standard_normal((n, n))
        sd = spectral_decompose(a)
        assert sd.norm == np.linalg.norm(a) / math.sqrt(n)
        rms = math.sqrt(np.mean(np.linalg.svd(a, compute_uv=False) ** 2))
        assert abs(sd.norm - rms) <= 1e-12 * rms
        assert sd.norm <= np.linalg.norm(a, 2) * (1 + 1e-12)


# numpy.linalg entry points that can run O(n^3) LAPACK work, and the
# orders at which ``norm`` does (an SVD).
LAPACK_CALLS = ("eigvals", "eig", "svd", "norm", "cond", "matrix_rank")
SVD_NORM_ORDS = (2, -2, "nuc")
EIGENSOLVES = ("eigvals", "eig")


def count_lapack_calls(monkeypatch):
    """Patch the numpy.linalg entry points to record ``(name, ord)`` of
    every call; ``ord`` is None except for ``norm``."""
    calls = []
    for name in LAPACK_CALLS:
        fn = getattr(np.linalg, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            ord_ = kwargs.get("ord", args[1] if len(args) > 1 else None)
            calls.append((_name, ord_ if _name == "norm" else None))
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def svd_backed(calls):
    return [
        c for c in calls
        if c[0] in ("svd", "cond", "matrix_rank") or (c[0] == "norm" and c[1] in SVD_NORM_ORDS)
    ]


def test_build_without_unit_spectrum_runs_one_eigensolve(monkeypatch):
    prog = random_contracting_program(6, np.random.default_rng(5))
    calls = count_lapack_calls(monkeypatch)
    sd = build_representation(prog).spectral
    assert not sd.unit_circle_flags.any()
    assert [c for c in calls if c[0] in EIGENSOLVES] == [("eigvals", None)]
    assert svd_backed(calls) == []
    assert sd.right_vectors.shape == sd.left_vectors.shape == (sd.matrix.shape[0], 0)
    # the rank-of-powers bound is computed on first read only
    assert "zero_nilpotent_index_bound" not in sd.__dict__


def test_build_with_unit_spectrum_runs_two_eigensolves(monkeypatch):
    # eigvals finds the unit-circle candidates; eig then gives the right
    # and the adjoint eigenvectors.
    scheme = load_model(MODELS_DIR / "unitary_m0zero.model").to_scheme()
    calls = count_lapack_calls(monkeypatch)
    sd = build_representation(scheme).spectral
    assert sd.unit_circle_flags.any()
    assert [c[0] for c in calls if c[0] in EIGENSOLVES] == ["eigvals", "eig", "eig"]
    assert "zero_nilpotent_index_bound" not in sd.__dict__


def patch_eig(monkeypatch, corrupt, call=1):
    """Make ``np.linalg.eig`` return ``corrupt(w, v)`` on copies of the
    true eigendata, for the ``call``-th call only: the right eigensolve
    is the first, the adjoint one the second."""
    eig = np.linalg.eig
    calls = []

    def patched(a):
        w, v = eig(a)
        calls.append(a.shape)
        return corrupt(w.copy(), v.copy()) if len(calls) == call else (w, v)

    monkeypatch.setattr(np.linalg, "eig", patched)


def patch_eigvals(monkeypatch, corrupt):
    """Make ``np.linalg.eigvals`` return ``corrupt(w)`` on a copy of the
    true eigenvalues."""
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: corrupt(eigvals(a).copy()))


def patch_eigensolves(monkeypatch, corrupt):
    """Corrupt the eigenvalues of ``eigvals`` and the first ``eig`` alike:
    ``corrupt(w, v)`` gets ``v = None`` from ``eigvals``."""
    patch_eigvals(monkeypatch, lambda w: corrupt(w, None)[0])
    patch_eig(monkeypatch, corrupt)


def first_pair(w):
    j = int(np.flatnonzero(w.imag > 0)[0])
    assert w[j + 1] == w[j].conj()
    return j


# Real, with a conjugate pair at +-0.5i and a real eigenvalue 0.25.
PAIR_MATRIX = np.array([[0.0, -0.5, 0.1], [0.5, 0.0, 0.2], [0.0, 0.0, 0.25]])
# Real, with a conjugate pair at +-i on the unit circle and 0.25: its
# eigenvectors are computed and residual-checked.
UNIT_PAIR_MATRIX = np.array([[0.0, -1.0, 0.1], [1.0, 0.0, 0.2], [0.0, 0.0, 0.25]])


def test_residual_guard_catches_a_real_spectrum_eigenvalue(monkeypatch):
    def corrupt(w):
        assert np.isrealobj(w)
        w[0] += 1e-6
        return w

    patch_eigvals(monkeypatch, corrupt)
    with pytest.raises(EigensolverError, match=r"power sum sum\(lambda\) "):
        spectral_decompose(np.array([[0.5, 1.0], [0.0, 0.25]]))


def test_residual_guard_catches_an_upper_pair_column(monkeypatch):
    def corrupt(w, v):
        j = first_pair(w)
        v[:, j] += 1e-6
        v[:, j + 1] = v[:, j].conj()
        return w, v

    patch_eig(monkeypatch, corrupt)
    with pytest.raises(EigensolverError, match="right eigenpair residual"):
        spectral_decompose(UNIT_PAIR_MATRIX)


def test_residual_guard_catches_an_inexact_conjugate_partner(monkeypatch):
    # The power sums would move by only about 1e-12, far below TOL_EIG:
    # only the pairing check sees it.  (Every eigenvector that is used is
    # residual-checked itself, so no vector needs a pairing check.)
    def corrupt_value(w):
        j = first_pair(w)
        w[j + 1] *= 1 + 1e-12
        return w

    patch_eigvals(monkeypatch, corrupt_value)
    with pytest.raises(EigensolverError, match="eigenvalue .* exact conjugate"):
        spectral_decompose(PAIR_MATRIX)


def shift_largest(w):
    w[np.argmax(np.abs(w))] += 1e-6
    return w


def test_corrupted_eigensolve_exits_5(monkeypatch, capsys):
    patch_eigvals(monkeypatch, shift_largest)
    code = main(["spectrum", str(MODELS_DIR / "bitflip_p05.model")])
    assert code == 5
    assert "power sum" in capsys.readouterr().err

    # eig's unit eigenvalue moved off the circle: no right eigenvector is
    # left for the unit cluster that eigvals found.
    monkeypatch.undo()
    patch_eig(monkeypatch, lambda w, v: (shift_largest(w), v))
    code = main(["terminate", str(MODELS_DIR / "bitflip_p1.model")])
    assert code == 5
    assert "0 right eigenvectors for a unit-circle cluster of 1" in capsys.readouterr().err


def nearest_one(w):
    """The index of the eigenvalue closest to 1."""
    return int(np.argmin(np.abs(w - 1.0)))


def test_shifted_unit_spectrum_is_refused_by_the_power_sums(monkeypatch, capsys):
    # unitary_m0zero's step has eigenvalues 1, 1 and exp(+-i phi).  One 1
    # moved to 1 + 1e-6 is no longer flagged, but the others are, so
    # eigenvectors are computed; the power sums still see the shift.
    def shift_a_one(w):
        w[nearest_one(w)] += 1e-6
        return w

    patch_eigvals(monkeypatch, shift_a_one)
    code = main(["terminate", str(MODELS_DIR / "unitary_m0zero.model")])
    assert code == 5
    assert "power sum sum(lambda) " in capsys.readouterr().err


def corrupt_unit_column(w, v):
    """Move the eigenvector of the eigenvalue 1 by 1e-6 in every entry."""
    v[:, nearest_one(w)] += 1e-6
    return w, v


def drop_a_unit_column(w, v):
    """Move one eigenvalue 1 of the eigensolve to 0.5, so that its column
    matches no unit cluster."""
    w[nearest_one(w)] = 0.5
    return w, v


@pytest.mark.parametrize("call, side", [(1, "right"), (2, "left")])
def test_corrupted_unit_vector_exits_5(monkeypatch, capsys, call, side):
    patch_eig(monkeypatch, corrupt_unit_column, call)
    code = main(["terminate", str(MODELS_DIR / "bitflip_p1.model")])
    assert code == 5
    assert f"{side} eigenpair residual" in capsys.readouterr().err


@pytest.mark.parametrize("call, side", [(1, "right"), (2, "left")])
def test_dropped_unit_column_exits_5(monkeypatch, capsys, call, side):
    patch_eig(monkeypatch, drop_a_unit_column, call)
    code = main(["terminate", str(MODELS_DIR / "unitary_m0zero.model")])
    assert code == 5
    err = capsys.readouterr().err
    assert f"1 {side} eigenvectors for a unit-circle cluster of 2 eigenvalues" in err


def duplicate_first(w, v):
    """Repeat the first eigenpair in place of the last one: a residual per
    pair passes, the spectrum is wrong."""
    w[-1] = w[0]
    if v is not None:
        v[:, -1] = v[:, 0]
    return w, v


def test_duplicated_eigenvalue_is_refused(monkeypatch):
    patch_eigensolves(monkeypatch, duplicate_first)
    with pytest.raises(EigensolverError, match=r"power sum sum\(lambda\) "):
        spectral_decompose(np.array([[0.5, 1.0], [0.0, 0.25]]))


def test_duplicated_eigenvalue_exits_5(monkeypatch, capsys):
    # The step of bitflip_p05 has eigenvalues 0.5, 0, 0, 0, and LAPACK
    # returns 0.5 first.
    patch_eigensolves(monkeypatch, duplicate_first)
    code = main(["spectrum", str(MODELS_DIR / "bitflip_p05.model")])
    assert code == 5
    assert "power sum" in capsys.readouterr().err


def shift_apart(delta):
    """Move the eigenvalues of largest and smallest real part by
    ``+delta`` and ``-delta``: the trace stays, ``sum(lambda^2)`` moves by
    about ``2 delta (max - min)``."""
    def corrupt(w, v):
        hi, lo = int(np.argmax(w.real)), int(np.argmin(w.real))
        w[hi] += delta
        w[lo] -= delta
        return w, v

    return corrupt


def test_opposite_shifts_are_refused(monkeypatch):
    # Eigenvalues 0.9, -0.9, 0.1 with unit eigenvectors: shifts of
    # 0.6 TOL_EIG leave every eigenpair residual at 0.6 TOL_EIG, below the
    # residual bound, and move sum(lambda^2) by 2.16 TOL_EIG.
    patch_eigensolves(monkeypatch, shift_apart(0.6 * TOL_EIG))
    with pytest.raises(EigensolverError, match=r"power sum sum\(lambda\^2\)"):
        spectral_decompose(np.diag([0.9, -0.9, 0.1]))


def test_opposite_shifts_exit_5(monkeypatch, capsys):
    patch_eigensolves(monkeypatch, shift_apart(1e-6))
    code = main(["spectrum", str(MODELS_DIR / "bitflip_p05.model")])
    assert code == 5
    assert "power sum sum(lambda^2)" in capsys.readouterr().err


def test_single_shift_refused_at_the_residual_bound(monkeypatch):
    # One eigenvalue moved by just over TOL_EIG moves sum(lambda) by as
    # much; the residual of a unit eigenvector needs at least that.
    patch_eigvals(monkeypatch, lambda w: w + np.eye(w.size)[0] * 1.01 * TOL_EIG)
    with pytest.raises(EigensolverError, match="power sum"):
        spectral_decompose(np.diag([0.9, -0.9, 0.1]))


def power_sum_gaps(sd):
    """The two power-sum gaps of ``sd`` over their tolerances."""
    a, w = sd.matrix, sd.eigenvalues
    tol = TOL_EIG * max(1.0, sd.norm)
    gap1 = abs(w.sum() - a.trace()) / tol
    gap2 = abs(w @ w - np.einsum("ij,ji->", a, a)) / (tol * max(1.0, sd.norm))
    return gap1, gap2


def battery_cases(family):
    if family == "committed":
        for path in sorted(MODELS_DIR.glob("*.model")):
            yield load_model(path).to_scheme()
    elif family == "counter":
        for d in range(3, 19):
            yield counter_scheme(d)
    elif family == "random":
        for seed in range(3):
            rng = np.random.default_rng(seed)
            for d in range(2, 13):
                yield random_contracting_program(d, rng)
    elif family == "unitary":
        # M0 = 0: every eigenvalue on the unit circle
        rng = np.random.default_rng(0)
        for d in range(2, 13):
            yield unitary_scheme(random_unitary(d, rng))
    elif family == "walk":
        # dim(S)^2 unit eigenvalues beside decaying ones, S the walk's
        # never-halting subspace
        for n in (4, 6, 8):
            yield hadamard_walk_scheme(n)


@pytest.mark.parametrize("family", ["committed", "counter", "random", "unitary", "walk"])
def test_power_sums_raise_no_false_alarm(family):
    # At the default tolerances every build passes, with each gap at least
    # a thousand times below its tolerance, unit spectrum or not.
    units = 0
    for scheme in battery_cases(family):
        sd = build_representation(scheme).spectral
        units += int(sd.unit_circle_flags.any())
        assert max(power_sum_gaps(sd)) <= 1e-3
    assert units == {"committed": 2, "counter": 0, "random": 0, "unitary": 11, "walk": 3}[family]


@pytest.mark.parametrize("radius", [1.0, 0.9])
def test_no_false_alarm_on_a_similar_rotation(rng, radius):
    # A real rotation block (on the unit circle, or inside it) beside a
    # 3x3 Jordan block at zero and 0.5, under a random real similarity.
    m, _ = rotation_jordan_half()
    m = m.real.copy()
    m[:2, :2] *= radius
    for _ in range(10):
        t = rng.standard_normal((6, 6))
        sd = spectral_decompose(t @ m @ np.linalg.inv(t))
        assert np.count_nonzero(sd.unit_circle_flags) == (2 if radius == 1.0 else 0)
        assert sd.right_vectors.shape == (6, 2 if radius == 1.0 else 0)
        assert max(power_sum_gaps(sd)) <= 1e-3


@pytest.mark.parametrize("name", sorted(p.name for p in MODELS_DIR.glob("*.model")))
def test_eigenvalues_are_those_of_the_path_taken(name):
    # There is one path: bit for bit eigvals', with unit spectrum or not.
    sd = build_representation(load_model(MODELS_DIR / name).to_scheme()).spectral
    assert np.array_equal(sd.eigenvalues, np.linalg.eigvals(sd.matrix))
