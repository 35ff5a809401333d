import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcls.coders import (
    DEPENDENT_ATOM_TOL,
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
from rcls.linalg import Dictionary


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
    D = Dictionary(Xu)
    with pytest.raises(DimensionError):
        omp(D, np.ones(5), 2)
    # a Dictionary's Gram matrix cannot be tampered with, and the unit-norm
    # check reads its diagonal
    with pytest.raises(ValueError):
        D.G[2, 2] = 1.1
    Xt = Xu.copy()
    Xt[:, 2] *= np.sqrt(1.1)
    for coder in (omp, l1_solve):
        with pytest.raises(NormalizationError, match="column 2"):
            coder(Dictionary(Xt), np.ones(6), 2)


def lstsq_omp(X, y, k, residual_tol):
    """Oracle: the textbook pursuit, one full correlation product and one
    least-squares solve on X[:, support] per iteration."""
    support = []
    sol = np.zeros(0)
    residual = y.copy()
    for _ in range(k):
        if np.linalg.norm(residual) <= residual_tol:
            break
        corr = np.abs(X.T @ residual)
        corr[support] = -1.0
        j = int(np.argmax(corr))
        if corr[j] <= 0.0:
            break
        support.append(j)
        sol, _, _, _ = np.linalg.lstsq(X[:, support], y, rcond=None)
        residual = y - X[:, support] @ sol
    coeffs = np.zeros(X.shape[1])
    coeffs[support] = sol
    return tuple(support), coeffs


@st.composite
def tied_pursuits(draw):
    """A unit dictionary and a sample whose first pursuit steps are exact
    ties, plus k.

    The tie rows T carry signed canonical atoms e_t and signed copies of
    them; the sample is +-c on every row of T. Every correlation of a
    canonical atom is then computed exactly by both algorithms while the
    support holds only canonical atoms, so the ties are exact. The generic
    atoms have norm 0.2 on T and c > 2 ||y off T||, so no generic atom
    reaches c and the |T| tied atoms come first; after them the copies are
    dependent and the generic atoms decide, with no ties left."""
    seed = draw(st.integers(0, 2**32 - 1))
    m = draw(st.integers(4, 12))
    n_tied = draw(st.integers(1, min(3, m - 2)))
    n_copies = draw(st.integers(0, 3))
    n_generic = draw(st.integers(m, m + 8))
    k = draw(st.integers(1, m - 2))
    rng = np.random.default_rng(seed)
    rows = rng.choice(m, size=n_tied, replace=False)
    rest = np.setdiff1d(np.arange(m), rows)
    generic = np.zeros((m, n_generic))
    generic[rows] = 0.2 * unit_columns(rng, n_tied, n_generic)
    generic[rest] = np.sqrt(1.0 - 0.2**2) * unit_columns(rng, m - n_tied, n_generic)
    canon_rows = np.concatenate([rows, rng.choice(rows, size=n_copies)])
    canon = np.zeros((m, canon_rows.size))
    canon[canon_rows, np.arange(canon_rows.size)] = rng.choice([-1.0, 1.0], canon_rows.size)
    X = np.hstack([generic, canon])[:, rng.permutation(n_generic + canon_rows.size)]
    y = rng.standard_normal(m)
    y[rows] = (2.0 * np.linalg.norm(y[rest]) + 1.0) * rng.choice([-1.0, 1.0], n_tied)
    return np.asfortranarray(X), y, k


@settings(max_examples=300, deadline=None, derandomize=True)
@given(tied_pursuits())
def test_omp_matches_lstsq_oracle_with_exact_ties(case):
    X, y, k = case
    sc = omp(X, y, k, residual_tol=0.0)
    support, coeffs = lstsq_omp(X, y, k, residual_tol=0.0)
    assert sc.support == support
    first = np.abs(X.T @ y)
    assert sc.support[0] == int(np.flatnonzero(first == first.max())[0])
    assert np.abs(sc.coeffs - coeffs).max() <= 1e-10
    r = y - X @ sc.coeffs
    assert np.abs(X[:, list(sc.support)].T @ r).max() <= 1e-8
    assert sc.final_residual_norm == pytest.approx(np.linalg.norm(r), rel=1e-12)


def test_omp_never_selects_an_atom_and_its_copy():
    rng = np.random.default_rng(16)
    for _ in range(300):
        base = unit_columns(rng, 8, 7)
        copies = rng.choice(7, size=2, replace=False)
        X = np.hstack([base, base[:, copies] * rng.choice([-1.0, 1.0], 2)])
        X = X[:, rng.permutation(9)]
        y = rng.standard_normal(8)
        sc = omp(X, y, 8, residual_tol=0.0)
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
        assert len(omp(X, y, 2, residual_tol=0.0).support) == selected


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
    got, ref = omp(D, y, 5, residual_tol=0.0), omp(X, y, 5, residual_tol=0.0)
    assert got.support == ref.support
    assert np.array_equal(got.coeffs, ref.coeffs)
    assert got.final_residual_norm == ref.final_residual_norm
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ConvergenceWarning)
        assert np.array_equal(
            l1_solve(D, y, 0.05, max_iter=300), l1_solve(X, y, 0.05, max_iter=300)
        )
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
