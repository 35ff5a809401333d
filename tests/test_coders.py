import contextlib
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcls import coders, linalg
from rcls.coders import (
    DEPENDENT_ATOM_TOL,
    _l1_columns,
    _omp_columns,
    build_gram_sum,
    fit_crc,
    fit_procrc,
    l1_solve,
    omp,
)
from rcls.bench import FittedSa, fit_method
from rcls.data import Dataset, SynthSpec, normalize_columns, synth, take_columns
from rcls.errors import (
    ConvergenceWarning,
    DatasetError,
    DimensionError,
    NormalizationError,
    ParameterError,
)
from rcls.linalg import Dictionary


@contextlib.contextmanager
def l1_budget(max_iter):
    """``coders.MAX_ITER``, the l1 solver's iteration budget, set to
    ``max_iter`` inside the with-block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coders, "MAX_ITER", max_iter)
        yield


@contextlib.contextmanager
def omp_tol(tol):
    """``coders.RESIDUAL_TOL``, the residual norm at which OMP stops, set
    to ``tol`` inside the with-block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coders, "RESIDUAL_TOL", tol)
        yield


def unit_columns(rng, m, n):
    X = rng.standard_normal((m, n))
    return X / np.linalg.norm(X, axis=0)


def naive_gram_sum(G, sizes):
    """Reference S: zero class i's rows and columns of G, sum over classes."""
    n = G.shape[0]
    S = np.zeros((n, n))
    start = 0
    for size in sizes:
        keep = np.ones(n, dtype=bool)
        keep[start:start + size] = False
        masked = G * np.outer(keep, keep)
        S += masked
        start += size
    return S


def procrc_objective(X, sizes, lam, gamma, y, alpha):
    """Reference objective: data fit + ridge + per-class consistency sum."""
    C = len(sizes)
    val = np.sum((X @ alpha - y) ** 2) + lam * np.sum(alpha ** 2)
    start = 0
    for size in sizes:
        Xi_ai = X[:, start:start + size] @ alpha[start:start + size]
        val += (gamma / C) * np.sum((X @ alpha - Xi_ai) ** 2)
        start += size
    return val


def procrc_gradient(X, sizes, lam, gamma, y, alpha):
    """Analytic gradient assembled from the naive masked-sum S."""
    C = len(sizes)
    S = naive_gram_sum(X.T @ X, sizes)
    return 2.0 * X.T @ (X @ alpha - y) + 2.0 * lam * alpha + (2.0 * gamma / C) * (S @ alpha)


def test_fit_crc_orthonormal_analytic():
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((10, 6)))
    lam = 0.3
    proj = fit_crc(Q, lam)
    y = rng.standard_normal(10)
    assert np.allclose(proj.code(y), Q.T @ y / (1.0 + lam), rtol=0, atol=1e-12)


def test_fit_crc_heavy_shrinkage():
    rng = np.random.default_rng(1)
    X = unit_columns(rng, 8, 5)
    y = rng.standard_normal(8)
    y /= np.linalg.norm(y)
    alpha = fit_crc(X, 1e6).code(y)
    assert np.linalg.norm(alpha) < 1e-5


def test_fit_crc_stationarity():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 30))
    lam = 0.001
    proj = fit_crc(X, lam)
    for _ in range(5):
        y = rng.standard_normal(20)
        alpha = proj.code(y)
        grad = 2.0 * X.T @ (X @ alpha - y) + 2.0 * lam * alpha
        assert np.abs(grad).max() <= 1e-8


def test_fit_crc_projector_invariant():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((12, 9))
    lam = 0.05
    proj = fit_crc(X, lam)
    lhs = (X.T @ X + lam * np.eye(9)) @ proj.P
    assert np.linalg.norm(lhs - X.T) <= 1e-8 * np.linalg.norm(X.T)


def test_fit_crc_rejects_bad_lambda():
    with pytest.raises(ParameterError):
        fit_crc(np.eye(3), 0.0)
    with pytest.raises(ParameterError):
        fit_crc(np.eye(3), -1.0)


def test_fit_procrc_gamma_zero_reduces_to_crc():
    rng = np.random.default_rng(4)
    for m in (10, 6):
        X = rng.standard_normal((m, 8))
        crc = fit_crc(X, 0.001)
        pro = fit_procrc(X, [3, 5], 0.001, 0.0)
        assert np.array_equal(pro.T, crc.P)


def test_fit_procrc_single_class_reduces_to_crc():
    rng = np.random.default_rng(5)
    for m in (9, 4):
        X = rng.standard_normal((m, 6))
        crc = fit_crc(X, 0.01)
        pro = fit_procrc(X, [6], 0.01, 0.7)
        assert np.array_equal(pro.T, crc.P)


def test_fit_procrc_stationarity():
    rng = np.random.default_rng(6)
    X = rng.standard_normal((24, 18))
    sizes = [6, 6, 6]
    lam, gamma = 0.001, 0.5
    proj = fit_procrc(X, sizes, lam, gamma)
    for _ in range(5):
        y = rng.standard_normal(24)
        alpha = proj.code(y)
        grad = procrc_gradient(X, sizes, lam, gamma, y, alpha)
        assert np.abs(grad).max() <= 1e-7


def test_procrc_gradient_matches_finite_differences():
    # The analytic gradient itself is checked at random (non-stationary)
    # points, where the finite-difference quotient is well conditioned.
    rng = np.random.default_rng(7)
    X = rng.standard_normal((10, 8))
    sizes = [3, 2, 3]
    lam, gamma = 0.001, 0.5
    y = rng.standard_normal(10)
    for _ in range(3):
        alpha = rng.standard_normal(8)
        grad = procrc_gradient(X, sizes, lam, gamma, y, alpha)
        fd = np.empty(8)
        h = 1e-5
        for i in range(8):
            up = alpha.copy()
            dn = alpha.copy()
            up[i] += h
            dn[i] -= h
            fd[i] = (
                procrc_objective(X, sizes, lam, gamma, y, up)
                - procrc_objective(X, sizes, lam, gamma, y, dn)
            ) / (2.0 * h)
        assert np.linalg.norm(grad - fd) <= 1e-4 * np.linalg.norm(fd)


def test_fit_procrc_validation_errors():
    rng = np.random.default_rng(23)
    for X in (np.eye(4), unit_columns(rng, 3, 4)):  # the n x n and the Woodbury path
        for sizes in ([4, 0], [-1, 5], [0, 4], [True, 3]):
            with pytest.raises(DatasetError, match="size of class [12] must be an integer >= 1"):
                fit_procrc(X, sizes, 0.001, 0.5)
        with pytest.raises(DatasetError, match=r"size of class 1 must be an integer >= 1, got 2\.9"):
            fit_procrc(X, [2.9, 1.9], 0.001, 0.5)
        with pytest.raises(ParameterError):
            fit_procrc(X, [2, 2], 0.0, 0.5)
        with pytest.raises(ParameterError):
            fit_procrc(X, [2, 2], 0.001, -0.1)
        with pytest.raises(DimensionError, match="class sizes sum to 5 but X has 4 columns"):
            fit_procrc(X, [2, 3], 0.001, 0.5)


def test_build_gram_sum_two_classes_keeps_diagonal_blocks():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((6, 6))
    G = M.T @ M
    S = build_gram_sum(G, [2, 4])
    expected = np.zeros((6, 6))
    expected[:2, :2] = G[:2, :2]
    expected[2:, 2:] = G[2:, 2:]
    assert np.allclose(S, expected, rtol=0, atol=1e-14)


def test_build_gram_sum_single_class_is_zero():
    G = np.eye(5)
    assert np.array_equal(build_gram_sum(G, [5]), np.zeros((5, 5)))


def test_build_gram_sum_matches_naive_oracle():
    rng = np.random.default_rng(9)
    for _ in range(10):
        sizes = [int(s) for s in rng.integers(1, 5, size=4)]
        n = sum(sizes)
        M = rng.standard_normal((n, n))
        G = M.T @ M
        assert np.abs(build_gram_sum(G, sizes) - naive_gram_sum(G, sizes)).max() <= 1e-12


def test_build_gram_sum_size_mismatch():
    with pytest.raises(DimensionError):
        build_gram_sum(np.eye(4), [2, 3])
    with pytest.raises(DimensionError):
        build_gram_sum(np.ones((2, 3)), [2])
    for sizes in ([-1, 5], [0, 4], [2.9, 1.1], [2.0, 2.0]):
        with pytest.raises(DatasetError, match="size of class 1 must be an integer >= 1"):
            build_gram_sum(np.eye(4), sizes)
    assert np.array_equal(build_gram_sum(np.eye(4), [np.int64(1), 3]), build_gram_sum(np.eye(4), [1, 3]))


DENSE_CASES = {
    # name: (class sizes of the n atoms, gamma, whether the last atom copies the first)
    "C1": (lambda n: [n], 0.5, False),
    "C2": (lambda n: [n // 2, n - n // 2], 0.5, False),
    "gamma0": (lambda n: [4, n - 4], 0.0, False),
    "unequal": (lambda n: [2, n - 7, 5], 1.5, False),
    "repeated": (lambda n: [3, n - 6, 3], 1.5, False),  # two class blocks of one size
    "duplicate": (lambda n: [n // 2, n - n // 2], 0.5, True),
}


@pytest.mark.parametrize("m, n", [(12, 30), (30, 12), (15, 15)], ids=["m<n", "m>n", "m=n"])
@pytest.mark.parametrize("case", sorted(DENSE_CASES))
def test_dense_operators_match_an_n_by_n_solve(m, n, case):
    sizes_of, gamma, duplicate = DENSE_CASES[case]
    sizes, lam = sizes_of(n), 0.001
    rng = np.random.default_rng(21)
    X = unit_columns(rng, m, n)
    if duplicate:
        X[:, -1] = X[:, 0]
    G = X.T @ X
    ridge = G + lam * np.eye(n)
    crc = np.linalg.solve(ridge, X.T)
    pro = np.linalg.solve(ridge + (gamma / len(sizes)) * naive_gram_sum(G, sizes), X.T)
    for got, ref in ((fit_crc(X, lam).P, crc), (fit_procrc(X, sizes, lam, gamma).T, pro)):
        assert got.shape == (n, m)
        assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max()


def test_dense_fits_below_n_features_solve_m_by_m_and_build_no_gram(monkeypatch):
    from rcls import linalg

    rng = np.random.default_rng(22)
    grams, solves = [], []
    gram, spd_solve = linalg.gram, coders.spd_solve
    monkeypatch.setattr(linalg, "gram", lambda X: grams.append(X.shape) or gram(X))
    monkeypatch.setattr(coders, "spd_solve", lambda A, B: solves.append(A.shape) or spd_solve(A, B))
    X = unit_columns(rng, 8, 20)
    fit_crc(X, 0.01)
    fit_procrc(X, [6, 9, 5], 0.01, 0.5)  # one solve per class block, then one m x m
    fit_procrc(X, [20], 0.01, 0.5)  # C = 1 is the ridge coder
    assert grams == []
    assert solves == [(8, 8), (6, 6), (9, 9), (5, 5), (8, 8), (8, 8)]
    grams.clear()
    solves.clear()
    X = unit_columns(rng, 20, 8)
    fit_crc(X, 0.01)
    fit_procrc(X, [3, 5], 0.01, 0.5)
    assert grams == [(20, 8), (20, 8)] and solves == [(8, 8), (8, 8)]


def ridge_reference(X, lam):
    """(X^T X + lam I)^-1 X^T by least squares on the stacked [X; sqrt(lam) I]
    (for m < n on its push-through form), never forming X^T X."""
    m, n = X.shape
    if m < n:
        M = np.vstack([X.T, np.sqrt(lam) * np.eye(m)])
        return np.linalg.lstsq(M, np.vstack([np.eye(n), np.zeros((m, n))]), rcond=None)[0].T
    M = np.vstack([X, np.sqrt(lam) * np.eye(n)])
    return np.linalg.lstsq(M, np.vstack([np.eye(m), np.zeros((n, m))]), rcond=None)[0]


def procrc_reference(X, sizes, lam, gamma):
    """``fit_procrc``'s T by the Woodbury form, T = W (I + a X W)^-1, with each
    class block of W = B^-1 X^T a least-squares ridge operator."""
    C = len(sizes)
    g = np.sqrt(gamma / C)
    a = 1.0 + gamma * (C - 2) / C
    ends = np.cumsum(sizes)
    W = np.vstack([
        ridge_reference(g * X[:, end - size:end], lam) / g for size, end in zip(sizes, ends)
    ])
    return W @ np.linalg.inv(np.eye(X.shape[0]) + a * (X @ W))  # eigenvalues >= 1


@pytest.mark.parametrize("m, n", [(120, 80), (80, 120)], ids=["m>n", "m<n"])
def test_dense_fits_solve_on_the_accurate_side(m, n):
    # the side a dense fit solves in is an accuracy rule: at lam = 1e-9 the
    # larger side's system has rank min(m, n) plus lam, and a ridge code
    # from it errs by about 4e-7 here, against about 5e-15 from the
    # smaller side
    lam, sizes = 1e-9, [n // 2, n - n // 2]
    rng = np.random.default_rng(23)
    X = unit_columns(rng, m, n)
    Y = unit_columns(rng, m, 20)
    for T, ref in (
        (fit_crc(X, lam).P, ridge_reference(X, lam)),
        (fit_procrc(X, sizes, lam, 0.5).T, procrc_reference(X, sizes, lam, 0.5)),
    ):
        want = ref @ Y
        err = np.linalg.norm(T @ Y - want, axis=0) / np.linalg.norm(want, axis=0)
        assert err.max() <= 1e-9


@pytest.mark.parametrize("spec, train", [
    (SynthSpec(5, 60, 3, 12), 8),  # 40 atoms of rank 15, m >= n
    (SynthSpec(38, 504, 9, 32), 32),  # the Yale-B shape: rank 342, m < n
], ids=["m>=n", "yaleb"])
def test_dense_fits_stay_accurate_when_ill_conditioned(monkeypatch, spec, train):
    # noise-free classes: with lam down to 1e-14 every system has a
    # condition number of 1e9 to 1e16. A solve through the inverse of the
    # system matrix fails the residual check here, even after refinement.
    # The operators themselves are not compared: their parts along X's
    # numerically null directions are rounding divided by lam, and differ
    # between any two solvers. X T X, the reconstructions of the atoms
    # from their dense codes, is determined to about 1e-13.
    keep = [c * spec.per_class + j for c in range(spec.C) for j in range(train)]
    X = normalize_columns(take_columns(synth(spec), keep)).X
    sizes = [train] * spec.C
    residuals = []

    def spd_solve(A, B, solve=coders.spd_solve):
        S = solve(A, B)
        norms = np.linalg.norm(A @ S - B, axis=(-2, -1)) / np.linalg.norm(B, axis=(-2, -1))
        residuals.extend(np.ravel(norms))
        return S

    monkeypatch.setattr(coders, "spd_solve", spd_solve)
    for lam in (1e-9, 1e-12, 1e-14):
        for T, ref in (
            (fit_crc(X, lam).P, ridge_reference(X, lam)),
            (fit_procrc(X, sizes, lam, 0.5).T, procrc_reference(X, sizes, lam, 0.5)),
        ):
            got, want = X @ T @ X, X @ ref @ X
            assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want), lam
    class_blocks = spec.C if X.shape[0] < X.shape[1] else 0
    assert len(residuals) == 3 * (2 + class_blocks) and max(residuals) <= linalg.SOLVE_RTOL


def traced_peak(f):
    """The most bytes ``f()`` held at once beyond what was held before it,
    as tracemalloc counts them (numpy's buffers included)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("m, sizes", [
    (504, [32] * 38),  # the Yale-B shape
    (300, [150, 250, 200, 200]),  # unequal and wide class blocks
    (160, [15] * 4),  # m >= n: one n x n solve, the class term built in place
], ids=["yaleb", "unequal", "m>=n"])
def test_dense_fits_hold_each_large_array_once(m, sizes):
    # a fit's peak, in m x n arrays of the operator's size: besides X (and
    # G, which D holds) a solve holds its result and one working array, and
    # the Woodbury branch W next to them. A fit that keeps spare copies
    # (A S beside B - A S, the class blocks beside W) peaks at 4.15-4.3
    # (crc, m >= n), 6.1 (unequal) and 7.3 (Yale-B).
    n = sum(sizes)
    D = Dictionary(np.asfortranarray(unit_columns(np.random.default_rng(24), m, n)))
    if m >= n:
        D.G
    unit = 8 * m * n
    assert traced_peak(lambda: fit_crc(D, 1e-3)) <= 3 * unit
    assert traced_peak(lambda: fit_procrc(D, sizes, 1e-3, 0.5)) <= (4 if m < n else 3) * unit


def test_omp_canonical_single_atom():
    y = np.array([0.0, 5.0, 0.0])
    sc = omp(np.eye(3), y, 1)
    assert sc.support == (1,)
    assert np.array_equal(sc.coeffs, y)
    assert np.linalg.norm(y - sc.coeffs) == 0.0


def test_omp_canonical_ordered_selection():
    y = np.array([3.0, 0.0, 4.0])
    sc = omp(np.eye(3), y, 2)
    assert sc.support == (2, 0)
    assert np.allclose(sc.coeffs, y, rtol=0, atol=1e-12)
    assert np.linalg.norm(y - sc.coeffs) <= 1e-12


def greedy_replay(X, y, k):
    support = []
    residual = y.copy()
    for _ in range(k):
        corr = np.abs(X.T @ residual)
        corr[support] = -1.0
        support.append(int(np.argmax(corr)))
        sol, _, _, _ = np.linalg.lstsq(X[:, support], y, rcond=None)
        residual = y - X[:, support] @ sol
    return tuple(support)


def test_omp_matches_greedy_replay_oracle():
    rng = np.random.default_rng(10)
    for _ in range(10):
        X = unit_columns(rng, 10, 15)
        support_true = rng.choice(15, size=3, replace=False)
        coeffs_true = rng.uniform(1.0, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
        y = X[:, support_true] @ coeffs_true
        sc = omp(X, y, 3)
        assert sc.support == greedy_replay(X, y, 3)


def low_coherence_instance(rng, m=10, n=15, k=3, delta=0.2):
    """Dictionary whose true support is an orthonormal triple and whose
    remaining atoms have correlation at most delta with that span, so the
    greedy selection provably finds the support."""
    basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
    span = basis[:, :k]
    rest = basis[:, k:]
    support_true = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
    X = np.zeros((m, n))
    for j in range(n):
        if j in support_true:
            X[:, j] = span[:, support_true.index(j)]
        else:
            w = rest @ rng.standard_normal(m - k)
            w /= np.linalg.norm(w)
            e = span @ rng.standard_normal(k)
            e /= np.linalg.norm(e)
            X[:, j] = np.sqrt(1.0 - delta ** 2) * w + delta * e
    coeffs_true = rng.uniform(1.0, 2.0, k) * rng.choice([-1.0, 1.0], k)
    y = X[:, support_true] @ coeffs_true
    return X, y, support_true


def test_omp_recovers_well_separated_support():
    rng = np.random.default_rng(20)
    for _ in range(10):
        X, y, support_true = low_coherence_instance(rng)
        sc = omp(X, y, 3)
        assert set(sc.support) == set(support_true)
        assert sc.support == greedy_replay(X, y, 3)
        assert np.linalg.norm(y - X @ sc.coeffs) <= 1e-10


def test_omp_residual_orthogonal_each_iteration():
    rng = np.random.default_rng(11)
    X = unit_columns(rng, 12, 20)
    y = rng.standard_normal(12)
    for j in range(1, 6):
        with omp_tol(0.0):
            sc = omp(X, y, j)
        residual = y - X @ sc.coeffs
        corr = X[:, list(sc.support)].T @ residual
        assert np.abs(corr).max() <= 1e-8


def test_omp_residual_monotone():
    rng = np.random.default_rng(12)
    X = unit_columns(rng, 15, 25)
    y = rng.standard_normal(15)
    with omp_tol(0.0):
        norms = [np.linalg.norm(y - X @ omp(X, y, j).coeffs) for j in range(1, 10)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_omp_stops_at_residual_tol():
    X = np.eye(4)
    with omp_tol(1e-6):
        sc = omp(X, np.array([0.0, 0.0, 2.0, 0.0]), 3)
    assert sc.support == (2,)


def test_omp_stop_at_an_exact_residual_takes_the_explicit_residual(monkeypatch):
    # canonical atoms, permuted and signed, so every product has one
    # nonzero term: after the p large entries of a sample its residual is
    # exactly |t|, and ||y||^2 - ||z||^2 is t^2 only up to rounding. At
    # RESIDUAL_TOL = |t| the pursuit falls back to the explicit residual and
    # stops there; one ulp below |t| it takes the atom of t as well
    rng = np.random.default_rng(31)
    m, p, t = 12, 5, 0.25
    X = np.eye(m)[:, rng.permutation(m)] * rng.choice([-1.0, 1.0], m)
    atom_of_row = np.abs(X).argmax(axis=1)
    Y = np.zeros((m, 20))
    rows = np.array([rng.choice(m, p + 1, replace=False) for _ in range(20)])
    for y, r in zip(Y.T, rows):
        y[r[:p]] = rng.uniform(1.0, 3.0, p) * rng.choice([-1.0, 1.0], p)
        y[r[p]] = t * rng.choice([-1.0, 1.0])
    explicit = []
    residual_norms = coders._residual_norms
    monkeypatch.setattr(coders, "_residual_norms",
                        lambda X_, Yr, A: explicit.append(len(Yr)) or residual_norms(X_, Yr, A))
    D = Dictionary(X)
    with omp_tol(t):
        codes = _omp_columns(D, Y, m)
    # the stop test's fallback, once, for the 20 columns, which all reach
    # the tolerance at the same step
    assert explicit == [20]
    for y, sc, r in zip(Y.T, codes, rows):
        assert sorted(sc.support) == sorted(atom_of_row[r[:p]])
        assert np.linalg.norm(y - X @ sc.coeffs) == t
    with omp_tol(np.nextafter(t, 0.0)):
        codes = _omp_columns(D, Y, m)
    for y, sc, r in zip(Y.T, codes, rows):
        assert sorted(sc.support) == sorted(atom_of_row[r])
        assert np.linalg.norm(y - X @ sc.coeffs) == 0.0


def test_omp_to_k_equal_m_on_a_full_rank_dictionary_is_least_squares():
    # the small_dict benchmark's shape: 50-dimensional samples over 200
    # training atoms, pursued to k = m, where 49 or 50 atoms are chosen
    per_class = 23
    ds = normalize_columns(synth(SynthSpec(C=10, ambient_dim=50, subspace_dim=5,
                                           per_class=per_class, noise_sigma=0.2, seed=1)))
    is_train = np.arange(ds.n) % per_class < 20
    X, Y = ds.X[:, is_train], np.asfortranarray(ds.X[:, ~is_train])
    codes = _omp_columns(Dictionary(X), Y, 50)
    sizes = set()
    for y, sc in zip(Y.T, codes):
        S = list(sc.support)
        sizes.add(len(S))
        ls = np.linalg.lstsq(X[:, S], y, rcond=None)[0]
        assert np.abs(sc.coeffs[S] - ls).max() <= 1e-9 * np.abs(ls).max()
        assert np.count_nonzero(sc.coeffs) == len(S)
        assert np.linalg.norm(y - X @ sc.coeffs) <= coders.RESIDUAL_TOL
    assert sizes == {49, 50}


def test_omp_input_validation():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((6, 4))  # not normalized
    with pytest.raises(NormalizationError):
        omp(X, np.ones(6), 2)
    Xu = unit_columns(rng, 6, 4)
    with pytest.raises(ParameterError):
        omp(Xu, np.ones(6), 0)
    with pytest.raises(ParameterError):
        omp(Xu, np.ones(6), 5)
    with pytest.raises(DimensionError):
        omp(Xu, np.ones(5), 2)
    # a k that is not a count fails at the boundary
    for k in (2.5, True, 2.0):
        with pytest.raises(ParameterError, match="k must be an integer"):
            omp(Dictionary(Xu), np.ones(6), k)
    with omp_tol(0.0):
        assert omp(Xu, np.ones(6), np.int64(2)).support == omp(Xu, np.ones(6), 2).support
    D = Dictionary(Xu)
    with pytest.raises(DimensionError):
        omp(D, np.ones(5), 2)
    # a Dictionary's Gram matrix cannot be tampered with, and its unit-norm
    # check reads the column norms of X
    with pytest.raises(ValueError):
        D.G[2, 2] = 1.1
    Xt = Xu.copy()
    Xt[:, 2] *= np.sqrt(1.1)
    for coder in (omp, l1_solve):
        with pytest.raises(NormalizationError, match="column 2"):
            coder(Dictionary(Xt), np.ones(6), 2)


def test_sparse_coders_check_their_inputs_before_a_kernel_runs(monkeypatch):
    # omp and l1_solve check X, then the sample, then the unit norms, then
    # k or epsilon; the batch kernels take what they checked
    def kernel(*args):
        raise AssertionError("a kernel ran on unchecked inputs")

    monkeypatch.setattr(coders, "_omp_columns", kernel)
    monkeypatch.setattr(coders, "_l1_columns", kernel)
    rng = np.random.default_rng(32)
    Xu = unit_columns(rng, 6, 4)
    Xt = Xu.copy()
    Xt[:, 3] *= 1.1
    y = rng.standard_normal(6)
    for coder, bad in ((omp, 5), (l1_solve, 0.0)):
        with pytest.raises(NormalizationError, match="column 3 has norm 1.1"):
            coder(Xt, y, 2)
        with pytest.raises(NormalizationError, match="column 3"):
            coder(Xt, y, bad)
        with pytest.raises(ParameterError, match=r"test sample must be nonzero \(column 0\)"):
            coder(Xu, np.zeros(6), bad)
    with pytest.raises(ParameterError, match=r"k must be in \[1, 4\] for 6-dimensional "
                                             r"samples and 4 atoms, got 5"):
        omp(Xu, y, 5)
    with pytest.raises(ParameterError, match="epsilon must be finite and > 0, got 0.0"):
        l1_solve(Xu, y, 0.0)


# A residual this small counts as no correlation left in the oracle; the
# batches below make every such correlation exactly zero in the kernel.
NUMERICAL_ZERO = 1e-12
# The oracle's residual stop, and ``coders.RESIDUAL_TOL`` for the pursuits
# compared with it.
RESIDUAL_TOL = 1e-9


def lstsq_omp(X, y, k, residual_tol):
    """Oracle: the textbook pursuit, one full correlation product and one
    least-squares solve on X[:, support] per iteration. A chosen atom whose
    squared distance from span(X[:, support]), by least squares, is at most
    DEPENDENT_ATOM_TOL of its squared norm ends the pursuit."""
    support = []
    sol = np.zeros(0)
    residual = y.copy()
    for _ in range(k):
        if np.linalg.norm(residual) <= residual_tol:
            break
        corr = np.abs(X.T @ residual)
        corr[support] = -1.0
        j = int(np.argmax(corr))
        if corr[j] <= NUMERICAL_ZERO:
            break
        if support:
            x = X[:, j]
            off = x - X[:, support] @ np.linalg.lstsq(X[:, support], x, rcond=None)[0]
            if off @ off <= DEPENDENT_ATOM_TOL * (x @ x):
                break
        support.append(j)
        sol, _, _, _ = np.linalg.lstsq(X[:, support], y, rcond=None)
        residual = y - X[:, support] @ sol
    coeffs = np.zeros(X.shape[1])
    coeffs[support] = sol
    return tuple(support), coeffs


@st.composite
def pursuit_batches(draw):
    """A unit dictionary, a batch of samples whose pursuits tie exactly and
    stop for every reason at different steps, and k.

    The rows are the tie rows T, the generic rows, two rows p, q and a dead
    row that no atom touches. The tie rows carry signed canonical atoms
    e_t and signed copies of them; the generic atoms have norm 0.2 on T and
    the rest on the generic rows; the pair u = e_p, v = cos(t) e_p +
    sin(t) e_q has sin(t)^2 = DEPENDENT_ATOM_TOL / 100. Each column is one
    of five kinds:

    - "tie": +-c on every tie row, random on the generic rows, with c > 2
      ||y off T||. The |T| tied atoms come first, computed exactly by both
      algorithms (a single nonzero product each); then the copies are
      dependent and the generic atoms decide, with no ties left, to k.
    - "residual": +-c on T only. After the |T| tied atoms the residual is
      exactly zero, so the RESIDUAL_TOL stop ends the pursuit.
    - "zero": c on one tie row plus a dead-row part, or the dead-row part
      alone. Every correlation left after the tie atom (or from the start)
      is one product minus the same product, exactly zero.
    - "dependent": s (e_p + e_q). v comes first; u then has correlation
      about s 1e-6 but is numerically in span{v}.
    - "sparse": a combination of two generic atoms, which stops when its
      residual reaches rounding level, or at k, with a factor of generic
      atoms: the column a pursuit drops while others run on.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    m_core = draw(st.integers(4, 12))
    n_tied = draw(st.integers(1, min(3, m_core - 2)))
    n_copies = draw(st.integers(0, 3))
    n_generic = draw(st.integers(m_core, m_core + 8))
    k = draw(st.integers(1, m_core - 2))
    kinds = draw(st.lists(st.sampled_from(["tie", "residual", "zero", "dependent", "sparse"]),
                          min_size=1, max_size=8))
    rng = np.random.default_rng(seed)
    m = m_core + 3
    p, q, dead = m_core, m_core + 1, m_core + 2
    rows = rng.choice(m_core, size=n_tied, replace=False)
    rest = np.setdiff1d(np.arange(m_core), rows)
    generic = np.zeros((m, n_generic))
    generic[rows] = 0.2 * unit_columns(rng, n_tied, n_generic)
    generic[rest] = np.sqrt(1.0 - 0.2**2) * unit_columns(rng, m_core - n_tied, n_generic)
    canon_rows = np.concatenate([rows, rng.choice(rows, size=n_copies)])
    canon = np.zeros((m, canon_rows.size))
    canon[canon_rows, np.arange(canon_rows.size)] = rng.choice([-1.0, 1.0], canon_rows.size)
    sin2 = DEPENDENT_ATOM_TOL / 100
    pair = np.zeros((m, 2))
    pair[p, 0] = 1.0
    pair[[p, q], 1] = np.sqrt(1.0 - sin2), np.sqrt(sin2)
    atoms = np.hstack([generic, canon, pair])
    X = atoms[:, rng.permutation(atoms.shape[1])]

    Y = np.zeros((m, len(kinds)))
    for col, kind in enumerate(kinds):
        y = Y[:, col]
        if kind == "tie":
            y[rest] = rng.standard_normal(rest.size)
            y[rows] = (2.0 * np.linalg.norm(y[rest]) + 1.0) * rng.choice([-1.0, 1.0], n_tied)
        elif kind == "residual":
            y[rows] = rng.uniform(0.5, 4.0) * rng.choice([-1.0, 1.0], n_tied)
        elif kind == "zero":
            y[dead] = rng.uniform(0.5, 4.0)
            if rng.random() < 0.7:
                y[rng.choice(rows)] = rng.uniform(0.5, 4.0)
        elif kind == "dependent":
            y[[p, q]] = rng.uniform(0.5, 2.0)
        else:
            y[:] = generic[:, rng.choice(n_generic, size=2, replace=False)] @ (
                rng.uniform(1.0, 2.0, 2) * rng.choice([-1.0, 1.0], 2))
    return np.asfortranarray(X), Y, k, kinds, n_tied


@settings(max_examples=300, deadline=None, derandomize=True)
@given(pursuit_batches())
def test_omp_matches_lstsq_oracle_with_exact_ties(case):
    X, Y, k, kinds, n_tied = case
    with omp_tol(RESIDUAL_TOL):
        codes = _omp_columns(Dictionary(X), Y, k)
    assert len(codes) == len(kinds)
    for y, kind, sc in zip(Y.T, kinds, codes):
        support, coeffs = lstsq_omp(X, y, k, residual_tol=RESIDUAL_TOL)
        assert sc.support == support
        first = np.abs(X.T @ y)
        if sc.support:
            assert sc.support[0] == int(np.flatnonzero(first == first.max())[0])
        assert np.abs(sc.coeffs - coeffs).max() <= 1e-10
        r = y - X @ sc.coeffs
        if sc.support:
            assert np.abs(X[:, list(sc.support)].T @ r).max() <= 1e-8
        # each kind but "sparse" stops where it was built to
        expected = {
            "tie": k,
            "residual": min(k, n_tied),
            "zero": min(k, 1 if y[:-1].any() else 0),
            "dependent": 1,
        }.get(kind, len(support))
        assert len(sc.support) == expected


@settings(max_examples=100, deadline=None, derandomize=True)
@given(pursuit_batches(), st.data())
def test_omp_columns_do_not_depend_on_order_batch_or_chunks(case, data):
    X, Y, k, _, _ = case
    D = Dictionary(X)
    N = Y.shape[1]
    with omp_tol(RESIDUAL_TOL):
        alone = [omp(D, y, k) for y in Y.T]
    order = data.draw(st.permutations(range(N)))
    batch = data.draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=N, unique=True))
    column_bytes = 8 * k * sum(X.shape)
    budgets = [coders.CHUNK_BYTES, 1, data.draw(st.integers(column_bytes, 3 * column_bytes))]
    for budget in budgets:
        widths = []

        def pursue(X_, G, Yr, *rest):
            widths.append(Yr.shape[0])  # one sample per row
            return real_pursue(X_, G, Yr, *rest)

        real_pursue = coders._pursue
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(coders, "RESIDUAL_TOL", RESIDUAL_TOL)
            mp.setattr(coders, "CHUNK_BYTES", budget)
            mp.setattr(coders, "_pursue", pursue)
            for cols in (order, batch):
                codes = _omp_columns(D, Y[:, cols], k)
                assert len(codes) == len(cols)
                for j, sc in zip(cols, codes):
                    assert len(set(sc.support)) == len(sc.support)
                    assert sc.support == alone[j].support
                    assert np.abs(sc.coeffs - alone[j].coeffs).max() <= 1e-12
        if budget == 1:
            assert widths == [1] * (N + len(batch))
        assert sum(widths) == N + len(batch)


def test_omp_never_selects_an_atom_and_its_copy():
    rng = np.random.default_rng(16)
    for _ in range(300):
        base = unit_columns(rng, 8, 7)
        copies = rng.choice(7, size=2, replace=False)
        X = np.hstack([base, base[:, copies] * rng.choice([-1.0, 1.0], 2)])
        X = X[:, rng.permutation(9)]
        y = rng.standard_normal(8)
        with omp_tol(0.0):
            sc = omp(X, y, 8)
        S = list(sc.support)
        # 7 independent atoms in R^8: the pursuit takes each once, then
        # finds no correlation left
        assert len(S) == 7
        assert np.linalg.matrix_rank(X[:, S]) == len(S)
        ls = np.linalg.lstsq(X[:, S], y, rcond=None)[0]
        assert np.abs(sc.coeffs[S] - ls).max() <= 1e-9 * np.abs(ls).max()
        r = y - X @ sc.coeffs
        assert np.abs(X[:, S].T @ r).max() <= 1e-8


def test_omp_dependent_atom_tolerance():
    # atom 1 sits at angle theta from atom 0; it is selected while its
    # squared distance from span{atom 0} (sin^2 theta) exceeds the tolerance
    for sin2, selected in ((100 * DEPENDENT_ATOM_TOL, 2), (DEPENDENT_ATOM_TOL / 100, 1)):
        s = np.sqrt(sin2)
        X = np.array([[1.0, np.sqrt(1.0 - sin2)], [0.0, s]])
        y = np.array([1.0, 1.0])
        with omp_tol(0.0):
            assert len(omp(X, y, 2).support) == selected


def test_coders_over_a_dictionary_are_bitwise_equal_and_leave_it_intact():
    rng = np.random.default_rng(19)
    X = unit_columns(rng, 12, 9)
    y = rng.standard_normal(12)
    D = Dictionary(X)
    kept = D.G.copy()
    assert np.array_equal(fit_crc(D, 0.01).P, fit_crc(X, 0.01).P)
    assert np.array_equal(
        fit_procrc(D, [4, 5], 0.01, 0.5).T, fit_procrc(X, [4, 5], 0.01, 0.5).T
    )
    with omp_tol(0.0):
        got, ref = omp(D, y, 5), omp(X, y, 5)
    assert got.support == ref.support
    assert np.array_equal(got.coeffs, ref.coeffs)
    with warnings.catch_warnings(), l1_budget(300):
        warnings.simplefilter("ignore", ConvergenceWarning)
        assert np.array_equal(l1_solve(D, y, 0.05), l1_solve(X, y, 0.05))
    assert np.array_equal(D.G, kept) and np.array_equal(D.X, X)
    with pytest.raises(DimensionError):
        fit_procrc(D, [4, 4], 0.01, 0.5)


def test_fit_procrc_checks_the_gram_matrix_once(monkeypatch):
    from rcls import coders, linalg

    rng = np.random.default_rng(20)
    X = unit_columns(rng, 12, 9)
    D = Dictionary(X)
    checked, solves = [], []
    as_mat, spd_solve = coders.as_mat, coders.spd_solve
    monkeypatch.setattr(coders, "as_mat", lambda a, name: checked.append(name) or as_mat(a, name))
    monkeypatch.setattr(coders, "spd_solve", lambda A, B: solves.append(A) or spd_solve(A, B))
    proj = fit_procrc(D, [4, 5], 0.01, 0.5)
    assert checked == [] and len(solves) == 1
    monkeypatch.undo()
    # the public, checked build_gram_sum gives the same system bitwise
    A = D.G + (0.5 / 2) * build_gram_sum(D.G, [4, 5])
    A[np.diag_indices(9)] += 0.01
    assert np.array_equal(solves[0], A)
    assert np.array_equal(proj.T, linalg.spd_solve(A, D.X.T))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "fit",
    [
        lambda X: fit_crc(X, NAN),
        lambda X: fit_crc(X, INF),
        lambda X: fit_procrc(X, [2, 2], NAN, 0.5),
        lambda X: fit_procrc(X, [2, 2], 0.01, NAN),
        lambda X: fit_procrc(X, [2, 2], 0.01, INF),
        lambda X: l1_solve(X, X[:, 0], NAN),
        lambda X: l1_solve(X, X[:, 0], INF),
    ],
    ids=["crc-lam-nan", "crc-lam-inf", "procrc-lam-nan", "procrc-gamma-nan",
         "procrc-gamma-inf", "l1-epsilon-nan", "l1-epsilon-inf"],
)
def test_non_finite_parameters_raise_parameter_error(fit):
    with pytest.raises(ParameterError, match="must be finite"):
        fit(np.eye(4))


def test_l1_solve_exact_atom_concentrates():
    rng = np.random.default_rng(14)
    X = unit_columns(rng, 10, 8)
    alpha = l1_solve(X, X[:, 0], 0.05)
    assert alpha[0] >= 0.99 * np.abs(alpha).sum()


def test_l1_solve_stops_at_a_residual_equal_to_epsilon():
    # step 1/2 and tau 1/2: one step lands on 0.25 exactly, with residual
    # 0.25, and the next moves nothing
    with warnings.catch_warnings(), l1_budget(2):
        warnings.simplefilter("error", ConvergenceWarning)
        alpha = l1_solve(np.eye(2), np.array([0.5, 0.0]), 0.25)
    assert alpha.tolist() == [0.25, 0.0]


def test_l1_solve_infeasible_warns():
    X = np.eye(3)[:, :2]
    y = np.array([0.0, 0.0, 1.0])
    with pytest.warns(ConvergenceWarning), l1_budget(200):
        alpha = l1_solve(X, y, 0.5)
    assert alpha.shape == (2,)


def test_l1_solve_support_recovery_and_longrun_consistency():
    rng = np.random.default_rng(15)
    X = unit_columns(rng, 15, 25)
    support_true = rng.choice(25, size=3, replace=False)
    alpha_true = np.zeros(25)
    alpha_true[support_true] = rng.uniform(1.0, 2.0, 3) * rng.choice([-1.0, 1.0], 3)
    noise = rng.standard_normal(15)
    y = X @ alpha_true + 0.02 * noise / np.linalg.norm(noise)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        alpha = l1_solve(X, y, 0.01)
        with l1_budget(20000):
            alpha_long = l1_solve(X, y, 0.01)
    top = np.argsort(np.abs(alpha))[-3:]
    assert set(int(i) for i in top) == set(int(i) for i in support_true)
    res = np.linalg.norm(y - X @ alpha)
    res_long = np.linalg.norm(y - X @ alpha_long)
    assert res <= 1.01 * res_long + 1e-12


def test_l1_solve_validation():
    X = np.eye(3)
    with pytest.raises(ParameterError):
        l1_solve(X, np.ones(3), 0.0)
    with pytest.raises(NormalizationError):
        l1_solve(2.0 * np.eye(3), np.ones(3), 0.05)


def padded_row(v, B):
    """``v @ B`` as row 0 of a ``_group_rows(B)``-row GEMM whose other rows
    are zero."""
    P = np.zeros((linalg._group_rows(B), v.shape[0]))
    P[0] = v
    return (P @ B)[0]


def ista_oracle(X, y, epsilon, max_iter, fixed_shape=True):
    """Oracle: the per-sample shrinkage loop, one sample at a time.
    Returns the code, the iterations run, how each stage ended ("delta",
    "cap" or "budget") and whether the residual reached epsilon.

    With ``fixed_shape`` each product is one row of a zero-padded
    ``_group_rows``-row GEMM, each norm a row-wise einsum and lambda_max
    comes from the smaller of X X^T and X^T X, the arithmetic
    ``_l1_columns`` runs; without, the products are matrix-vector products
    and lambda_max comes from X^T X, as ``l1_solve`` ran before it coded
    batches."""
    m, n = X.shape
    if fixed_shape:
        def Xa(a):
            return padded_row(a, X.T)

        def XTr(r):
            return padded_row(r, X)

        def norm(r):
            return float(np.sqrt(np.einsum("rm,rm->r", r[None], r[None]))[0])

        small = X @ X.T if m < n else X.T @ X
    else:
        Xa, XTr, norm, small = X.__matmul__, X.T.__matmul__, np.linalg.norm, X.T @ X
    step = 1.0 / (2.0 * float(np.linalg.eigvalsh(small)[-1]))
    alpha = np.zeros(n)
    best, best_res = alpha, norm(y)
    tau = float(np.max(np.abs(XTr(y))))
    left, stops = max_iter, []
    while left > 0:
        stop = "budget" if left <= 100 else "cap"
        for _ in range(min(100, left)):
            left -= 1
            grad = 2.0 * XTr(Xa(alpha) - y)
            new = alpha - step * grad
            new = np.sign(new) * np.maximum(np.abs(new) - step * tau, 0.0)
            delta = float(np.max(np.abs(new - alpha)))
            alpha = new
            if delta <= 1e-10 * (1.0 + float(np.max(np.abs(alpha)))):
                stop = "delta"
                break
        stops.append(stop)
        res = norm(y - Xa(alpha))
        if res < best_res:
            best, best_res = alpha, res
        if res <= epsilon:
            return alpha, max_iter - left, stops, True
        tau *= 0.5
    return best, max_iter, stops, False


@st.composite
def shrinkage_batches(draw):
    """A unit dictionary, a batch of samples whose shrinkage stops for
    every reason at different stages, epsilon and the iteration budget.

    The rows are the canonical rows, a cluster row p, the generic rows and
    a dead row that no atom touches. The atoms are e_t for each canonical
    row, K >= 10 exact copies of e_p, and a few generic atoms on the
    generic rows; the copies make lambda_max(G) = K, so the gradient step
    is 1 / (2 K). Each column is one of five kinds:

    - "fast": s e_p. The cluster's one direction has eigenvalue K, so a
      step lands on the stage's fixed point (total code shrink(s, tau/2),
      residual tau/2) and the next step moves nothing: every stage ends by
      the delta stop after 2 steps. tau starts at |s| = 2^(j+1) u epsilon,
      u in [0.55, 0.95], so the residual reaches epsilon at stage j, one
      step into it.
    - "slow": s e_t. A canonical coordinate contracts by 1 - 1/K per step,
      so every stage runs into the 100-step cap, again converging at the
      end of stage j.
    - "missed": a fast or slow column plus a dead-row part above epsilon,
      which no code can remove: the budget runs out and it warns.
    - "zero": y = 0, done after one step.
    - "generic": random on the generic rows, stops as it comes.

    A budget below what a fast or slow column needs makes it miss too.
    """
    seed = draw(st.integers(0, 2**32 - 1))
    n_canon = draw(st.integers(1, 3))
    K = draw(st.integers(10, 12))
    m_generic = draw(st.integers(2, 4))
    n_generic = draw(st.integers(1, m_generic))
    kinds = draw(st.lists(st.tuples(st.sampled_from(["fast", "slow", "missed", "zero", "generic"]),
                                    st.integers(0, 3)), min_size=1, max_size=7))
    max_iter = draw(st.integers(1, 450))
    epsilon = draw(st.sampled_from([0.05, 0.01]))
    rng = np.random.default_rng(seed)
    m = n_canon + m_generic + 2
    p, dead = n_canon, m - 1
    generic_rows = np.arange(n_canon + 1, n_canon + 1 + m_generic)
    atoms = np.zeros((m, n_canon + K + n_generic))
    atoms[np.arange(n_canon), np.arange(n_canon)] = 1.0
    atoms[p, n_canon:n_canon + K] = 1.0
    atoms[generic_rows, n_canon + K:] = unit_columns(rng, m_generic, n_generic)
    X = atoms[:, rng.permutation(atoms.shape[1])]

    Y = np.zeros((m, len(kinds)))
    expected = []  # (iterations, converged, stage stops) where they are known
    for col, (kind, j) in enumerate(kinds):
        y = Y[:, col]
        s = epsilon * 2.0 ** (j + 1) * rng.uniform(0.55, 0.95) * rng.choice([-1.0, 1.0])
        if kind in ("fast", "slow", "missed"):
            fast = kind == "fast" or (kind == "missed" and rng.random() < 0.5)
            y[p if fast else rng.integers(n_canon)] = s
        if kind == "missed":
            y[dead] = epsilon * rng.uniform(1.5, 4.0)
            expected.append((max_iter, False, None))
        elif kind == "fast" and max_iter >= 2 * j + 1:
            its = min(max_iter, 2 * j + 2)
            expected.append((its, True, ["delta"] * j + ["delta" if its > 2 * j + 1 else "budget"]))
        elif kind == "slow" and max_iter >= 100 * (j + 1):
            last = "budget" if max_iter == 100 * (j + 1) else "cap"
            expected.append((100 * (j + 1), True, ["cap"] * j + [last]))
        elif kind in ("fast", "slow") and max_iter <= 100 * j:
            expected.append((max_iter, False, None))  # stops before stage j
        elif kind == "zero":
            expected.append((1, True, ["delta"]))
        else:
            if kind == "generic":
                y[generic_rows] = rng.standard_normal(m_generic)
            expected.append(None)
    return np.asfortranarray(X), Y, epsilon, max_iter, [k for k, _ in kinds], expected


@settings(max_examples=150, deadline=None, derandomize=True)
@given(shrinkage_batches())
def test_l1_columns_match_the_per_sample_oracle(case):
    X, Y, epsilon, max_iter, kinds, expected = case
    with warnings.catch_warnings(record=True) as caught, l1_budget(max_iter):
        warnings.simplefilter("always")
        A = _l1_columns(Dictionary(X), Y, epsilon)
    missed = []
    for j, (y, kind, exp) in enumerate(zip(Y.T, kinds, expected)):
        code, its, stops, converged = ista_oracle(X, y, epsilon, max_iter)
        assert np.array_equal(A[:, j], code)
        # the matrix-vector loop rounds differently, but stops alike
        gemv_code, gemv_its, _, _ = ista_oracle(X, y, epsilon, max_iter, fixed_shape=False)
        assert np.abs(code - gemv_code).max() <= 1e-9
        assert its == gemv_its
        if not converged:
            missed.append(j)
        # each kind stops where it was built to
        if exp is not None:
            assert (its, converged) == exp[:2]
            assert exp[2] is None or stops == exp[2]
        if not converged:
            assert its == max_iter
    assert all(w.category is ConvergenceWarning for w in caught)
    assert [str(w.message).split(":")[1] for w in caught] == [f" column {j}" for j in missed]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(shrinkage_batches(), st.data())
def test_l1_columns_do_not_depend_on_order_batch_or_chunks(case, data):
    X, Y, epsilon, max_iter, _, _ = case
    D = Dictionary(X)
    N = Y.shape[1]
    alone, missed = [], set()
    for j in range(N):
        with warnings.catch_warnings(record=True) as caught, l1_budget(max_iter):
            warnings.simplefilter("always")
            alone.append(_l1_columns(D, Y[:, [j]], epsilon))
        if caught:
            missed.add(j)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        order = data.draw(st.permutations(range(N)))
        batch = data.draw(st.lists(st.integers(0, N - 1), min_size=1, max_size=N, unique=True))
        column_bytes = 8 * (4 * X.shape[1] + 2 * X.shape[0])
        budgets = [coders.CHUNK_BYTES, 1, data.draw(st.integers(column_bytes, 3 * column_bytes))]
        for budget in budgets:
            widths = []

            def shrink(X_, Y_, *args):
                widths.append(Y_.shape[1])
                return real_shrink(X_, Y_, *args)

            real_shrink = coders._shrink
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(coders, "CHUNK_BYTES", budget)
                mp.setattr(coders, "MAX_ITER", max_iter)
                mp.setattr(coders, "_shrink", shrink)
                for cols in (order, batch):
                    caught.clear()
                    A = _l1_columns(D, Y[:, cols], epsilon)
                    for c, j in enumerate(cols):
                        assert np.array_equal(A[:, c], alone[j][:, 0])
                    named = [str(w.message).split(":")[1] for w in caught]
                    assert named == [f" column {c}" for c, j in enumerate(cols) if j in missed]
            if budget == 1:
                assert widths == [1] * (N + len(batch))
            assert sum(widths) == N + len(batch)


def test_l1_columns_do_not_depend_on_the_batch_at_a_realistic_shape(monkeypatch):
    # m=50, n=200, as in the small_dict benchmark: above the size at which
    # OpenBLAS leaves its small-matrix GEMM kernel, which the hypothesis
    # shapes never reach
    ds = normalize_columns(synth(SynthSpec(C=10, ambient_dim=50, subspace_dim=5, per_class=24,
                                           noise_sigma=0.2, seed=3)))
    train = (np.arange(240) % 24) < 20  # 20 train and 4 test samples per class
    X, Y = ds.X[:, train], ds.X[:, ~train]
    assert X.shape == (50, 200) and Y.shape == (50, 40)
    D = Dictionary(X)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        alone = [_l1_columns(D, Y[:, [j]], 0.05) for j in range(40)]
        order = np.random.default_rng(3).permutation(40)
        runs = [_l1_columns(D, Y, 0.05), _l1_columns(D, Y[:, order], 0.05)]
        monkeypatch.setattr(coders, "CHUNK_BYTES", 7 * 8 * (4 * 200 + 2 * 50))
        runs.append(_l1_columns(D, Y[:, order], 0.05))
    for cols, A in zip((range(40), order, order), runs):
        for c, j in enumerate(cols):
            assert np.array_equal(A[:, c], alone[j][:, 0])


def grouped_row_products(A, B):
    """``A @ B`` for a C-order A as a loop of ``_group_rows(B)``-row GEMMs,
    the last one over zero-padded rows: the arithmetic ``_row_products``
    runs as one batched GEMM."""
    G, w = linalg._group_rows(B), A.shape[0]
    out = np.empty((-(-w // G) * G, B.shape[1]))
    full = w - w % G
    for g in range(0, full, G):
        np.matmul(A[g:g + G], B, out=out[g:g + G])
    if full < w:
        pad = np.zeros((G, A.shape[1]))
        pad[:w - full] = A[full:]
        np.matmul(pad, B, out=out[full:])
    return out[:w]


def test_row_products_do_not_depend_on_the_other_rows():
    # the Yale-B shape, with every operand layout the callers pass: the
    # samples (C order) by X and by X^T, as the sparse coders do, by the
    # transpose of a column-major operator, as the dense coders do, and a
    # strided slice of the codes' transpose by a class block's transpose,
    # as the residual rules do; and the small_dict shape, whose operands
    # take 16-row groups
    rng = np.random.default_rng(23)
    X = np.asfortranarray(unit_columns(rng, 504, 1216))
    M = np.asfortranarray(rng.standard_normal((1216, 504)))
    codes = rng.standard_normal((1216, 130))
    block = slice(64, 96)
    small = np.asfortranarray(unit_columns(rng, 50, 200))
    cases = [
        (rng.standard_normal((130, 1216)), X.T),
        (rng.standard_normal((130, 504)), X),
        (rng.standard_normal((130, 504)), np.ascontiguousarray(X)),
        (rng.standard_normal((130, 504)), M.T),
        (codes.T[:, block], X[:, block].T),
        (rng.standard_normal((130, 200)), small.T),
        (rng.standard_normal((130, 50)), small),
    ]
    # group edges at 15-17 and 31-33 rows (16-row groups) and at 63-65
    # and 128-129 rows (64-row groups)
    widths = list(range(1, 41)) + [63, 64, 65, 128, 129]
    for rows, B in cases:
        alone = np.vstack([linalg._row_products(rows[[i]], B) for i in range(130)])
        for w in widths:
            batch = linalg._row_products(rows[:w], B)
            assert np.array_equal(batch, alone[:w])
            if rows.flags.c_contiguous:
                assert np.array_equal(batch, grouped_row_products(rows[:w], B))


@pytest.mark.parametrize("shape, height", [
    ((504, 1216), 64),  # X at the Yale-B shape, and its transpose
    ((1216, 504), 64),
    ((50, 200), 16),  # X at the small_dict shape
    ((504, 32), 16),  # a Yale-B class block
    ((255, 257), 16),  # 2^16 - 1 values: the largest of 16-row groups
    ((256, 256), 64),
], ids=["yaleb-X", "yaleb-XT", "small_dict-X", "yaleb-block", "below-2^16", "2^16"])
def test_row_products_group_height_follows_the_operand_size(shape, height, monkeypatch):
    stacks = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, a, b):
            stacks.append(a.shape)
            return np.matmul(a, b)

    monkeypatch.setattr(linalg, "np", Numpy())
    B = np.ones(shape)
    assert linalg._group_rows(B) == height
    for w in (1, height - 1, height, height + 1, 3 * height):
        stacks.clear()
        out = linalg._row_products(np.ones((w, shape[0])), B)
        assert out.shape == (w, shape[1])
        assert stacks == [(-(-w // height), height, shape[0])]


def test_omp_columns_multiply_the_batch_by_x_once(monkeypatch):
    # X^T y is one product of the whole batch, however the pursuit is
    # chunked, and no residual is taken: none is near the tolerance
    rng = np.random.default_rng(30)
    D = Dictionary(unit_columns(rng, 30, 80))
    Y = rng.standard_normal((30, 20))
    alone = [omp(D, y, 5) for y in Y.T]
    products, norms = [], []

    def row_products(A, B):
        products.append((A.shape[0], B.shape))
        return linalg._row_products(A, B)

    def residual_norms(X, Yr, A):
        norms.append(Yr.shape[0])
        return linalg._residual_norms(X, Yr, A)

    monkeypatch.setattr(coders, "_row_products", row_products)
    monkeypatch.setattr(coders, "_residual_norms", residual_norms)
    # one chunk, chunks of one column and chunks of three
    for budget in (coders.CHUNK_BYTES, 1, 3 * 8 * (5 * (80 + 5 + 2) + 2 * 80 + 30)):
        products.clear()
        norms.clear()
        monkeypatch.setattr(coders, "CHUNK_BYTES", budget)
        codes = _omp_columns(D, Y, 5)
        assert products == [(20, (30, 80))]
        assert norms == []
        for sc, a in zip(codes, alone):
            assert sc.support == a.support
            assert np.array_equal(sc.coeffs, a.coeffs)


@pytest.mark.parametrize("method", ["crc", "procrc", "sa_crc", "sa_procrc"])
@pytest.mark.parametrize("C, m, s, sigma, train", [
    (10, 50, 5, 0.2, 20),  # the small_dict benchmark
    (38, 504, 9, 0.1, 32),  # the Yale-B shape
])
def test_dense_and_sa_columns_do_not_depend_on_the_batch_at_realistic_shapes(
        method, C, m, s, sigma, train):
    # above the size at which OpenBLAS leaves its small-matrix GEMM kernel:
    # each of 40 shuffled test columns is coded, scored and decided
    # bitwise as it is alone
    per_class = train + -(-40 // C)  # at least 40 test columns
    ds = normalize_columns(synth(SynthSpec(C=C, ambient_dim=m, subspace_dim=s,
                                           per_class=per_class, noise_sigma=sigma, seed=1)))
    is_train = np.arange(ds.n) % per_class < train
    Y = np.asfortranarray(ds.X[:, ~is_train][:, :40])
    state = fit_method(method, Dataset(X=ds.X[:, is_train], labels=ds.labels[is_train], C=C))
    order = np.random.default_rng(1).permutation(40)
    codes = state.compute_codes(Y[:, order])
    predicted = state.decide_all(codes, Y[:, order])[0]
    for c, j in enumerate(order):
        code, y = state.compute_code(Y[:, j]), Y[:, j]
        if isinstance(state, FittedSa):
            assert np.array_equal(codes[c].dense, code.dense)
            assert np.array_equal(codes[c].sparse.coeffs, code.sparse.coeffs)
            assert np.array_equal(codes[c].fused, code.fused)
            batch_scores = state.decide(codes[c], y).scores
        else:
            assert np.array_equal(codes[:, c], code)
            batch_scores = state.rule(state.blocks, Y[:, order], codes)[:, c]
        alone = state.decide(code, y)
        assert np.array_equal(batch_scores, alone.scores)
        assert predicted[c] == alone.predicted_class


@pytest.mark.parametrize("method", ["src", "crc", "procrc", "sa_crc", "sa_procrc"])
@pytest.mark.parametrize("C, m, s, sigma, train, test", [
    (10, 50, 5, 0.2, 20, 3),  # the small_dict benchmark
    (38, 504, 9, 0.1, 32, 1),  # the Yale-B shape
])
def test_decisions_do_not_depend_on_atom_order(method, C, m, s, sigma, train, test):
    # the training atoms of each class permuted: every decision is the same;
    # the classes relabelled and regrouped, the atoms of each class in
    # order: every decision is relabelled but for exact ties, which go to
    # the lowest class (src on its first 4 test samples)
    per_class = train + test
    for seed in (1, 2):
        ds = normalize_columns(synth(SynthSpec(C=C, ambient_dim=m, subspace_dim=s,
                                               per_class=per_class, noise_sigma=sigma,
                                               seed=seed)))
        is_train = np.arange(ds.n) % per_class < train
        X, labels = ds.X[:, is_train], ds.labels[is_train]
        Y = np.asfortranarray(ds.X[:, ~is_train][:, :4 if method == "src" else None])
        rng = np.random.default_rng(seed)
        perm = np.concatenate([c * train + rng.permutation(train) for c in range(C)])
        relabel = rng.permutation(C) + 1  # class c becomes class relabel[c - 1]
        relabelled = relabel[labels - 1]
        regroup = np.argsort(relabelled, kind="stable")
        decisions = []
        for order, lab in ((np.arange(X.shape[1]), labels), (perm, labels),
                           (regroup, relabelled)):
            state = fit_method(method, Dataset(X=X[:, order], labels=lab[order], C=C))
            decisions.append(state.decide_all(state.compute_codes(Y), Y))
        (first, tie), (permuted, _), (moved, moved_tie) = decisions
        assert np.array_equal(first, permuted)
        untied = ~(tie | moved_tie)
        assert np.array_equal(relabel[first - 1][untied], moved[untied])


def test_l1_columns_warn_once_for_the_column_that_misses_epsilon():
    rng = np.random.default_rng(21)
    X = unit_columns(rng, 12, 8)
    D = Dictionary(X)
    Y = X @ (rng.standard_normal((8, 6)) * (rng.random((8, 6)) < 0.4))
    Y[:, 0] = X[:, 5]
    # column 3 keeps a part outside span(X) far above epsilon
    Q, _ = np.linalg.qr(X, mode="complete")
    Y[:, 3] += 0.5 * Q[:, 8:] @ unit_columns(rng, 4, 1)[:, 0]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        A = _l1_columns(D, Y, 0.05)
    assert len(caught) == 1 and caught[0].category is ConvergenceWarning
    assert "column 3: residual" in str(caught[0].message)
    for j in (0, 1, 2, 4, 5):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConvergenceWarning)
            code = _l1_columns(D, Y[:, [j]], 0.05)
        assert np.array_equal(A[:, j], code[:, 0])
        assert np.linalg.norm(Y[:, j] - X @ A[:, j]) <= 0.05


def test_projector_reuse_bitwise():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((10, 7))
    proj = fit_crc(X, 0.001)
    for _ in range(5):
        y = rng.standard_normal(10)
        again = fit_crc(X, 0.001)
        assert np.array_equal(proj.code(y), again.code(y))
