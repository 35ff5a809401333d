import subprocess
import sys
import warnings

import numpy as np
import pytest

from rcls import coders, data, linalg
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


def indefinite(k, m=64):
    """A dense m x m matrix L D L^T whose leading k x k block is positive
    definite and whose Schur complement at pivot k is -1, so that a
    Cholesky factorization fails at pivot k (LAPACK's dpotrf: info k+1)."""
    rng = np.random.default_rng(k)
    L = np.tril(rng.standard_normal((m, m)), -1) / np.sqrt(m) + np.eye(m)
    d = np.ones(m)
    d[k] = -1.0
    return (L * d) @ L.T


def test_spd_solve_names_failing_pivot():
    A = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(SingularMatrixError) as exc:
        spd_solve(A, np.eye(3))
    assert exc.value.pivot == 2
    with pytest.raises(SingularMatrixError) as exc:
        spd_solve(np.zeros((2, 2)), np.ones((2, 1)))
    assert exc.value.pivot == 0
    for k in (0, 1, 17, 40, 63):
        with pytest.raises(SingularMatrixError, match=f"^matrix is not positive definite: pivot {k} failed$") as exc:
            spd_solve(indefinite(k), np.ones((64, 2)))
        assert exc.value.pivot == k


def test_each_array_layout_has_one_owner(tmp_path, monkeypatch):
    # spd_solve returns the layout its GEMMs give; Dataset lays out
    # samples, gram its G and the projectors their operators, each once
    S = spd_solve(np.eye(3) + 0.1, np.ones((3, 5)))
    assert S.shape == (3, 5) and S.dtype == np.float64

    rng = np.random.default_rng(8)
    ds = data.Dataset(X=np.ascontiguousarray(rng.standard_normal((6, 8))),
                      labels=[1, 1, 1, 1, 2, 2, 2, 2], C=2)
    data.save_csv(ds, tmp_path / "d.csv")
    data.save_bin(ds, tmp_path / "d.rcls")
    made = [
        ds,
        data.load_csv(tmp_path / "d.csv"),
        data.load_bin(tmp_path / "d.rcls"),
        data.synth(data.SynthSpec(C=2, ambient_dim=6, subspace_dim=2, per_class=4)),
        data.normalize_columns(ds),
        data.random_project(ds, 4, seed=1),
        data.take_columns(ds, [7, 0, 3]),
    ]
    assert all(d.X.flags.f_contiguous for d in made)

    X = ds.X
    G = Dictionary(X).G
    assert G.flags.f_contiguous and np.array_equal(G, G.T)
    assert G.tobytes() == (X.T @ X).tobytes()

    solved = []
    monkeypatch.setattr(coders, "spd_solve",
                        lambda A, B: solved.append(spd_solve(A, B)) or solved[-1])
    for m, n in ((6, 8), (8, 6)):
        X = rng.standard_normal((m, n))
        for fit in (lambda: coders.fit_crc(X, 0.1).P,
                    lambda: coders.fit_procrc(X, (n // 2, n - n // 2), 0.1, 0.5).T):
            op = fit()
            assert op.flags.f_contiguous
            assert np.shares_memory(op, solved[-1]) == (m < n)


def test_spd_solve_refinement_rescues_a_system():
    # eigenvalues from 1 down to 1e-9: the first solve misses the residual
    # bound and one step of refinement meets it. The in-place refinement
    # gives bitwise the out-of-place arithmetic S0 + L^-T (L^-1 (B - A S0)).
    rng = np.random.default_rng(1)
    Q, _ = np.linalg.qr(rng.standard_normal((50, 50)))
    A = (Q * np.logspace(0, -9, 50)) @ Q.T
    B = rng.standard_normal((50, 4))
    inv = linalg._tril_inverse(np.linalg.cholesky(A))
    S0 = inv.T @ (inv @ B)
    bound = linalg.SOLVE_RTOL * np.linalg.norm(B)
    assert np.linalg.norm(B - A @ S0) > 2 * bound
    S1 = S0 + inv.T @ (inv @ (B - A @ S0))
    S = spd_solve(A, B)
    assert S.tobytes() == S1.tobytes()
    assert np.linalg.norm(B - A @ S) <= bound


def test_spd_solve_is_a_numerical_error():
    with pytest.raises(NumericalError):
        spd_solve(np.zeros((2, 2)), np.ones((2, 1)))


def test_spd_solve_non_finite_solution_is_a_numerical_error():
    # the solution overflows: its residual is NaN, which must fail the check
    with pytest.raises(NumericalError, match="residual exceeds tolerance"):
        spd_solve(1e-200 * np.eye(2), np.full((2, 1), 1e200))


@pytest.mark.parametrize("name, index, value", [
    ("A", (1, 1), np.nan), ("A", (0, 2), np.nan), ("A", (2, 0), np.inf),
    ("B", (1, 1), np.nan), ("B", (2, 0), np.inf),
])
def test_spd_solve_rejects_non_finite_operands(name, index, value):
    # dpotrf reads only A's lower triangle: a NaN above it fails the
    # residual check instead
    operands = {"A": np.eye(3) + 0.1, "B": np.ones((3, 2))}
    operands[name][index] = value
    with pytest.raises(DataError, match=f"{name} contains non-finite entries"):
        spd_solve(operands["A"], operands["B"])


@pytest.mark.parametrize("A, B, text", [
    (np.eye(2) + 0j, np.ones((2, 1)), "A must hold real numbers, got dtype complex128"),
    (np.eye(2), np.ones((2, 1)) + 1j, "B must hold real numbers, got dtype complex128"),
    (np.array([["1", "0"], ["0", "1"]]), np.ones((2, 1)), "A must hold real numbers, got dtype <U1"),
    (np.eye(2), np.array([[b"1"], [b"1"]]), "B must hold real numbers, got dtype |S1"),
])
def test_spd_solve_rejects_complex_and_text_operands(A, B, text):
    # float64 would drop an imaginary part or read text as numbers
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError) as raised:
            spd_solve(A, B)
    assert type(raised.value) is DataError
    assert str(raised.value) == text


def test_spd_solve_scans_for_non_finite_entries_only_when_it_fails(monkeypatch):
    calls = []
    check_finite = linalg._check_finite
    monkeypatch.setattr(linalg, "_check_finite", lambda a, name: calls.append(name) or check_finite(a, name))
    spd_solve(2.0 * np.eye(3), np.ones((3, 2)))
    assert calls == []
    with pytest.raises(SingularMatrixError):
        spd_solve(-np.eye(3), np.ones((3, 2)))
    assert calls == ["A", "B"]


def test_spd_solve_shape_errors():
    with pytest.raises(DimensionError):
        spd_solve(np.ones((2, 3)), np.ones((2, 1)))
    with pytest.raises(DimensionError):
        spd_solve(np.eye(3), np.ones((2, 2)))
    with pytest.raises(DimensionError, match="B must be 2-D"):
        spd_solve(np.eye(3), np.ones(3))
    with pytest.raises(DimensionError, match="A must be square, 2-D"):  # one system, not a stack
        spd_solve(np.stack([np.eye(3)] * 2), np.ones((2, 3, 1)))


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


def test_dictionary_lipschitz_comes_from_the_smaller_gram(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    rng = np.random.default_rng(6)
    for m, n in ((4, 9), (9, 4), (5, 5)):
        X = rng.standard_normal((m, n))
        D = Dictionary(X)
        calls.clear()
        exact = 2.0 * eigvalsh(X.T @ X)[-1]
        assert abs(D.lipschitz - exact) <= 1e-13 * exact
        assert calls == [(min(m, n), min(m, n))]
        assert ("G" in vars(D)) == (m >= n)  # no n x n Gram when m < n


def test_importing_rcls_does_not_load_scipy():
    # rcls runs on numpy alone; tests/test_cli.py checks that fits and CLI
    # commands load no scipy either
    subprocess.run(
        [sys.executable, "-c", "import rcls, sys; assert 'scipy' not in sys.modules"],
        check=True,
    )


def test_importing_rcls_does_not_load_yaml():
    # PyYAML is loaded by the first config read, not on import
    subprocess.run(
        [sys.executable, "-c", "import rcls, sys; assert 'yaml' not in sys.modules"],
        check=True,
    )
