import warnings

import numpy as np
import pytest

from rcls.coders import (
    build_gram_sum,
    fit_crc,
    fit_procrc,
    l1_solve,
    omp,
)
from rcls.errors import (
    ConvergenceWarning,
    DatasetError,
    DimensionError,
    NormalizationError,
    ParameterError,
)


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
    X = rng.standard_normal((10, 8))
    crc = fit_crc(X, 0.001)
    pro = fit_procrc(X, [3, 5], 0.001, 0.0)
    assert np.abs(pro.T - crc.P).max() <= 1e-10


def test_fit_procrc_single_class_reduces_to_crc():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((9, 6))
    crc = fit_crc(X, 0.01)
    pro = fit_procrc(X, [6], 0.01, 0.7)
    assert np.abs(pro.T - crc.P).max() <= 1e-10


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
    X = np.eye(4)
    with pytest.raises(DatasetError):
        fit_procrc(X, [4, 0], 0.001, 0.5)
    with pytest.raises(ParameterError):
        fit_procrc(X, [2, 2], 0.0, 0.5)
    with pytest.raises(ParameterError):
        fit_procrc(X, [2, 2], 0.001, -0.1)
    with pytest.raises(DimensionError):
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


def test_omp_canonical_single_atom():
    sc = omp(np.eye(3), np.array([0.0, 5.0, 0.0]), 1)
    assert sc.support == (1,)
    assert np.array_equal(sc.coeffs, np.array([0.0, 5.0, 0.0]))
    assert sc.final_residual_norm == 0.0


def test_omp_canonical_ordered_selection():
    sc = omp(np.eye(3), np.array([3.0, 0.0, 4.0]), 2)
    assert sc.support == (2, 0)
    assert np.allclose(sc.coeffs, [3.0, 0.0, 4.0], rtol=0, atol=1e-12)
    assert sc.final_residual_norm <= 1e-12


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
        assert sc.final_residual_norm <= 1e-10


def test_omp_residual_orthogonal_each_iteration():
    rng = np.random.default_rng(11)
    X = unit_columns(rng, 12, 20)
    y = rng.standard_normal(12)
    for j in range(1, 6):
        sc = omp(X, y, j, residual_tol=0.0)
        residual = y - X @ sc.coeffs
        corr = X[:, list(sc.support)].T @ residual
        assert np.abs(corr).max() <= 1e-8


def test_omp_residual_monotone():
    rng = np.random.default_rng(12)
    X = unit_columns(rng, 15, 25)
    y = rng.standard_normal(15)
    norms = [omp(X, y, j, residual_tol=0.0).final_residual_norm for j in range(1, 10)]
    assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


def test_omp_stops_at_residual_tol():
    X = np.eye(4)
    sc = omp(X, np.array([0.0, 0.0, 2.0, 0.0]), 3, residual_tol=1e-6)
    assert sc.support == (2,)


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


def test_l1_solve_exact_atom_concentrates():
    rng = np.random.default_rng(14)
    X = unit_columns(rng, 10, 8)
    alpha = l1_solve(X, X[:, 0], 0.05)
    assert alpha[0] >= 0.99 * np.abs(alpha).sum()


def test_l1_solve_infeasible_warns():
    X = np.eye(3)[:, :2]
    y = np.array([0.0, 0.0, 1.0])
    with pytest.warns(ConvergenceWarning):
        alpha = l1_solve(X, y, 0.5, max_iter=200)
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
        alpha = l1_solve(X, y, 0.01, max_iter=2000)
        alpha_long = l1_solve(X, y, 0.01, max_iter=20000)
    top = np.argsort(np.abs(alpha))[-3:]
    assert set(int(i) for i in top) == set(int(i) for i in support_true)
    res = np.linalg.norm(y - X @ alpha)
    res_long = np.linalg.norm(y - X @ alpha_long)
    assert res <= 1.01 * res_long + 1e-12


def test_l1_solve_validation():
    X = np.eye(3)
    with pytest.raises(ParameterError):
        l1_solve(X, np.ones(3), 0.0)
    with pytest.raises(ParameterError):
        l1_solve(X, np.ones(3), 0.05, max_iter=0)
    with pytest.raises(NormalizationError):
        l1_solve(2.0 * np.eye(3), np.ones(3), 0.05)


def test_projector_reuse_bitwise():
    rng = np.random.default_rng(16)
    X = rng.standard_normal((10, 7))
    proj = fit_crc(X, 0.001)
    for _ in range(5):
        y = rng.standard_normal(10)
        again = fit_crc(X, 0.001)
        assert np.array_equal(proj.code(y), again.code(y))
