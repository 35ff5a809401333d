import numpy as np
import pytest

from rcls.errors import DataError, DimensionError, NumericalError, SingularMatrixError
from rcls.linalg import Dictionary, as_dictionary, as_mat, as_vec, gram, spd_solve


def test_as_mat_validation():
    with pytest.raises(DimensionError):
        as_mat(np.ones(3))
    with pytest.raises(DimensionError):
        as_mat(np.ones((0, 2)))
    with pytest.raises(DataError):
        as_mat(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(DataError):
        as_mat(np.array([[np.inf]]))
    m = as_mat([[1, 2], [3, 4]])
    assert m.dtype == np.float64
    assert m.flags.f_contiguous


def test_as_vec_validation():
    with pytest.raises(DimensionError):
        as_vec(np.ones((2, 2)))
    with pytest.raises(DimensionError):
        as_vec(np.array([]))
    with pytest.raises(DataError):
        as_vec(np.array([1.0, np.nan]))
    v = as_vec([1, 2, 3])
    assert v.dtype == np.float64


def test_gram_identity_columns():
    assert np.array_equal(gram(np.eye(2)), np.eye(2))


def test_gram_single_column():
    G = gram(np.array([[1.0], [2.0]]))
    assert G.shape == (1, 1)
    assert G[0, 0] == 5.0


def test_gram_matches_naive_oracle():
    rng = np.random.default_rng(7)
    X = rng.standard_normal((6, 4))
    G = gram(X)
    for p in range(4):
        for q in range(4):
            dot = sum(X[r, p] * X[r, q] for r in range(6))
            assert abs(G[p, q] - dot) <= 1e-12


def test_gram_bitwise_symmetric():
    # gram relies on numpy's symmetric product for X.T @ X; shapes cover
    # m = 1, n = 1, m > n and m < n
    rng = np.random.default_rng(11)
    for m in (1, 2, 7, 50, 504):
        for n in (1, 3, 16, 200, 1216):
            G = gram(rng.standard_normal((m, n)))
            assert np.array_equal(G, G.T), (m, n)


def test_spd_solve_identity_system():
    rng = np.random.default_rng(0)
    B = rng.standard_normal((4, 3))
    S = spd_solve(np.eye(4), B)
    assert np.allclose(S, B, rtol=0, atol=1e-14)


def test_spd_solve_scalar_system():
    S = spd_solve(2.0 * np.eye(3), np.eye(3))
    assert np.allclose(S, 0.5 * np.eye(3), rtol=0, atol=1e-15)


def test_spd_solve_random_residual_contract():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 40))
        M = rng.standard_normal((n, n))
        A = M.T @ M + np.eye(n)
        B = rng.standard_normal((n, int(rng.integers(1, 5))))
        S = spd_solve(A, B)
        assert np.linalg.norm(A @ S - B) <= 1e-8 * np.linalg.norm(B)


def test_spd_solve_self_gives_identity_up_to_200():
    rng = np.random.default_rng(9)
    for n in (10, 80, 200):
        M = rng.standard_normal((n, n))
        A = M.T @ M + np.eye(n)
        S = spd_solve(A, A)
        assert np.abs(S - np.eye(n)).max() <= 1e-8


def test_spd_solve_names_failing_pivot():
    A = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(SingularMatrixError) as exc:
        spd_solve(A, np.eye(3))
    assert exc.value.pivot == 2
    with pytest.raises(SingularMatrixError) as exc:
        spd_solve(np.zeros((2, 2)), np.ones((2, 1)))
    assert exc.value.pivot == 0


def test_spd_solve_is_a_numerical_error():
    with pytest.raises(NumericalError):
        spd_solve(np.zeros((2, 2)), np.ones((2, 1)))


def test_spd_solve_shape_errors():
    with pytest.raises(DimensionError):
        spd_solve(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(DimensionError):
        spd_solve(np.eye(3), np.ones((2, 2)))
    with pytest.raises(DimensionError, match="B must be 2-D"):
        spd_solve(np.eye(3), np.ones(3))


def test_dictionary_checks_once_and_keeps_the_callers_array_writeable():
    rng = np.random.default_rng(4)
    X = np.asfortranarray(rng.standard_normal((6, 4)))
    D = Dictionary(X)
    assert X.flags.writeable
    assert np.shares_memory(D.X, X) and np.array_equal(D.X, X)
    assert np.array_equal(D.G, gram(X))
    for a in (D.X, D.G):
        with pytest.raises(ValueError):
            a[0, 0] = 0.0
    assert as_dictionary(D) is D
    with pytest.raises(DataError):
        Dictionary(np.array([[1.0, np.nan]]))
    with pytest.raises(DimensionError):
        Dictionary(np.ones(3))


def test_dictionary_lipschitz_is_computed_once_on_first_use(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    D = Dictionary(np.diag([1.0, 2.0, 3.0]))
    assert calls == []
    assert D.lipschitz == 18.0  # 2 * lambda_max(diag(1, 4, 9))
    assert D.lipschitz == 18.0
    assert calls == [(3, 3)]
