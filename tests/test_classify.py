import logging
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from rcls.classify import (
    build_label_matrix,
    classify_regularized_residual,
    classify_residual,
    fuse_coefficients,
    residual_scores,
    score,
    split_blocks,
)
from rcls.bench import FittedSa, fit_method
from rcls.coders import fit_crc, omp
from rcls.data import Dataset
from rcls.linalg import Dictionary
from rcls.errors import (
    DatasetError,
    DegenerateDecisionError,
    DegenerateFusionError,
    DimensionError,
)


def unit_columns(rng, m, n):
    X = rng.standard_normal((m, n))
    return X / np.linalg.norm(X, axis=0)


def fit_sa(X, labels, method="sa_procrc", **params):
    """A fitted SA state over the columns of X, grouped by ``labels``."""
    return fit_method(method, Dataset(X=X, labels=labels, C=max(labels)), **params)


def classify_one(state, y):
    return state.decide(state.compute_code(y), y)


def one_hot(labels, C):
    """The paper's C x n label matrix, built independently of rcls."""
    return np.eye(C)[np.asarray(labels, dtype=np.int64) - 1].T


def dense_rows(L):
    """The C x n matrix whose rows are 1 exactly at ``L.class_indices``."""
    M = np.zeros((len(L.class_indices), L.n_atoms))
    for i, ix in enumerate(L.class_indices):
        M[i, ix] = 1.0
    return M


def test_build_label_matrix_basic():
    L = build_label_matrix([1, 1, 2], 2)
    assert np.array_equal(dense_rows(L), np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
    assert L.n_atoms == 3
    assert [ix.tolist() for ix in L.class_indices] == [[0, 1], [2]]


def test_build_label_matrix_identity_case():
    L = build_label_matrix([1, 2, 3], 3)
    assert np.array_equal(dense_rows(L), np.eye(3))


def test_build_label_matrix_counting_oracle():
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(1, 5), 5)
    rng.shuffle(labels)
    L = build_label_matrix(labels, 4)
    assert np.array_equal(dense_rows(L), one_hot(labels, 4))
    assert np.array_equal(dense_rows(L).sum(axis=1), np.full(4, 5.0))
    assert np.array_equal(dense_rows(L).sum(axis=0), np.ones(20))
    for c in range(1, 5):
        assert np.array_equal(L.class_indices[c - 1], np.flatnonzero(labels == c))


def test_build_label_matrix_errors():
    with pytest.raises(DatasetError):
        build_label_matrix([1, 3], 2)
    with pytest.raises(DatasetError):
        build_label_matrix([0, 1], 2)
    with pytest.raises(DatasetError):
        build_label_matrix([1, 1, 3], 3)  # class 2 empty
    with pytest.raises(DatasetError, match="label 1.9 is not an integer"):
        build_label_matrix([1.9, 2.5], 2)
    for labels in ([True, True], np.array([True, True]), [1, True], [1.0, True]):
        with pytest.raises(DatasetError, match="^label True is not an integer$"):
            build_label_matrix(labels, 1)
    for labels in ([[1, 2]], []):
        with pytest.raises(DatasetError, match="labels must be a nonempty 1-D sequence"):
            build_label_matrix(labels, 2)
    for C in (2.0, True, None, "2"):
        with pytest.raises(DatasetError, match=f"C must be an integer >= 1, got {C!r}"):
            build_label_matrix([1, 2], C)
    assert np.array_equal(dense_rows(build_label_matrix([1.0, 2.0], 2)), np.eye(2))


@pytest.mark.parametrize(
    "labels, C",
    [
        ([1, 2], 2.0),
        ([1, 2], True),
        ([1, 2], None),
        ([1, 2], "2"),
        ([1, 3], 2),
        ([0, 1], 2),
        ([1, 1, 3], 3),
        ([1.5, 2.0], 2),
        ([[1, 2]], 2),
        ([], 2),
        ([True, True], 1),
        (np.array([True, True]), 1),
        ([1, True], 1),
    ],
    ids=["C-float", "C-bool", "C-None", "C-str", "label-above-C", "label-0",
         "class-missing", "label-not-integer", "labels-2-D", "labels-empty",
         "labels-bool", "labels-bool-array", "label-bool-among-ints"],
)
def test_every_entry_point_gives_the_same_label_error(labels, C):
    n = max(np.size(labels), 1)
    with pytest.raises(DatasetError) as from_dataset:
        Dataset(X=np.ones((2, n)), labels=labels, C=C)
    with pytest.raises(DatasetError) as from_matrix:
        build_label_matrix(labels, C)
    assert type(from_dataset.value) is type(from_matrix.value)
    assert str(from_dataset.value) == str(from_matrix.value)


@pytest.mark.parametrize("labels, bad", [
    (["1", "2"], "'1'"),
    ([b"1", b"2"], "b'1'"),
    (["a", "b"], "'a'"),
    ([1, "2"], "'2'"),
    (np.array(["1", "2"]), "'1'"),
    ([1 + 0j, 2], "(1+0j)"),
    (np.array([1 + 0j, 2]), "(1+0j)"),
])
def test_text_and_complex_labels_are_not_integers_at_every_entry_point(labels, bad):
    # neither read as numbers nor failed with a bare ValueError or a
    # ComplexWarning: one DatasetError naming the first such label
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DatasetError) as from_dataset:
            Dataset(X=np.ones((2, 2)), labels=labels, C=2)
        with pytest.raises(DatasetError) as from_matrix:
            build_label_matrix(labels, 2)
    assert str(from_dataset.value) == str(from_matrix.value) == f"label {bad} is not an integer"


def test_classify_residual_exact_reconstruction():
    rng = np.random.default_rng(1)
    blocks = [rng.standard_normal((6, 2)) for _ in range(3)]
    a1 = rng.standard_normal(2)
    y = blocks[0] @ a1
    alpha = np.concatenate([a1, np.zeros(4)])
    d = classify_residual(blocks, y, alpha)
    assert d.predicted_class == 1
    assert d.scores[0] <= 1e-12


def test_classify_residual_zero_alpha_ties_to_class_one():
    rng = np.random.default_rng(2)
    blocks = [rng.standard_normal((5, 2)) for _ in range(3)]
    y = rng.standard_normal(5)
    d = classify_residual(blocks, y, np.zeros(6))
    assert d.predicted_class == 1
    assert d.tie
    assert np.array_equal(d.scores, np.full(3, np.linalg.norm(y)))


def test_classify_residual_matches_naive_oracle():
    rng = np.random.default_rng(3)
    for _ in range(10):
        blocks = [rng.standard_normal((7, int(rng.integers(1, 4)))) for _ in range(3)]
        alpha = rng.standard_normal(sum(b.shape[1] for b in blocks))
        y = rng.standard_normal(7)
        d = classify_residual(blocks, y, alpha)
        start = 0
        for i, B in enumerate(blocks):
            a_i = alpha[start:start + B.shape[1]]
            start += B.shape[1]
            ref = np.sqrt(np.sum((y - B @ a_i) ** 2))
            assert abs(d.scores[i] - ref) <= 1e-12


def test_classify_residual_dimension_error():
    with pytest.raises(DimensionError):
        classify_residual([np.eye(3)], np.ones(3), np.ones(4))
    with pytest.raises(DimensionError):
        classify_residual([np.eye(3)], np.ones(2), np.ones(3))
    with pytest.raises(DimensionError):
        classify_residual([], np.ones(3), np.ones(3))
    # the batch rule itself: a block of another row count than Y
    with pytest.raises(DimensionError, match="block row count does not match y"):
        residual_scores([np.eye(3), np.ones((2, 1))], np.ones((3, 2)), np.ones((4, 2)))


def test_regularized_residual_crc_picks_own_atom():
    rng = np.random.default_rng(4)
    X = unit_columns(rng, 8, 6)
    blocks = split_blocks(X, [2, 2, 2])
    proj = fit_crc(X, 1e-4)
    y = X[:, 0]
    d = classify_regularized_residual(blocks, y, proj.code(y))
    assert d.predicted_class == 1


def test_regularized_residual_zero_block_is_infinite():
    blocks = [np.eye(2)[:, :1], np.eye(2)[:, 1:]]
    alpha = np.array([1.0, 0.0])
    d = classify_regularized_residual(blocks, np.array([1.0, 0.5]), alpha)
    assert d.scores[1] == np.inf
    assert d.predicted_class == 1


def test_regularized_residual_all_zero_degenerate():
    blocks = [np.eye(2)[:, :1], np.eye(2)[:, 1:]]
    with pytest.raises(DegenerateDecisionError):
        classify_regularized_residual(blocks, np.ones(2), np.zeros(2))


def test_regularization_flips_decision():
    # class 1: atom orthogonal to y with a large coefficient; class 2: the
    # atom y itself with a small one. The raw residual prefers class 2, the
    # coefficient-norm scaling prefers class 1.
    y = np.array([1.0, 0.0])
    blocks = [np.array([[0.0], [1.0]]), np.array([[1.0], [0.0]])]
    alpha = np.array([2.0, 0.4])
    plain = classify_residual(blocks, y, alpha)
    reg = classify_regularized_residual(blocks, y, alpha)
    assert plain.predicted_class == 2
    assert reg.predicted_class == 1


def test_fuse_coefficients_basic():
    fused = fuse_coefficients(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(fused, [1.0 / np.sqrt(2.0)] * 2, rtol=0, atol=1e-15)


def test_fuse_coefficients_cancellation_raises():
    a = np.array([0.3, -0.7])
    with pytest.raises(DegenerateFusionError):
        fuse_coefficients(a, -a)


def test_fuse_coefficients_norm_and_collinearity():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a = rng.standard_normal(12)
        b = rng.standard_normal(12)
        fused = fuse_coefficients(a, b)
        assert abs(np.linalg.norm(fused) - 1.0) <= 1e-12
        s = a + b
        assert np.allclose(fused * np.linalg.norm(s), s, rtol=1e-12, atol=1e-12)


def test_fuse_scale_invariance():
    rng = np.random.default_rng(6)
    a = rng.standard_normal(9)
    b = rng.standard_normal(9)
    base = fuse_coefficients(a, b)
    assert np.array_equal(fuse_coefficients(2.0 * a, 2.0 * b), base)
    assert np.allclose(fuse_coefficients(3.0 * a, 3.0 * b), base, rtol=1e-14, atol=0)


def test_fuse_length_mismatch():
    with pytest.raises(DimensionError):
        fuse_coefficients(np.ones(3), np.ones(4))


def test_score_basic():
    L = build_label_matrix([1, 2], 2)
    assert np.array_equal(score(L, np.array([0.6, 0.8])), np.array([0.6, 0.8]))


def test_score_one_hot():
    L = build_label_matrix([1, 2, 3, 3], 3)
    alpha = np.array([0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(score(L, alpha), np.array([0.0, 0.0, 1.0]))


def test_score_matches_exact_index_sum_oracle():
    rng = np.random.default_rng(7)
    labels = np.repeat(np.arange(1, 5), 6)
    rng.shuffle(labels)
    L = build_label_matrix(labels, 4)
    for _ in range(5):
        alpha = rng.standard_normal(24)
        q = score(L, alpha)
        for i in range(4):
            exact = sum(Fraction(float(alpha[j])) for j in L.class_indices[i])
            assert q[i] == float(exact)


def test_score_sum_identity_exact_over_partition():
    # The class index sets partition the atom indices, so the exact class
    # sums add up to the exact total of the fused vector.
    rng = np.random.default_rng(8)
    labels = np.repeat(np.arange(1, 4), 5)
    rng.shuffle(labels)
    L = build_label_matrix(labels, 3)
    alpha = rng.standard_normal(15)
    class_sums = [
        sum(Fraction(float(alpha[j])) for j in L.class_indices[i]) for i in range(3)
    ]
    total = sum(Fraction(float(v)) for v in alpha)
    assert sum(class_sums) == total
    all_indices = np.concatenate(L.class_indices)
    assert np.array_equal(np.sort(all_indices), np.arange(15))
    q = score(L, alpha)
    assert abs(math.fsum(q) - math.fsum(alpha)) <= 1e-15 * (1.0 + abs(math.fsum(alpha)))


def test_score_dimension_error():
    L = build_label_matrix([1, 2], 2)
    with pytest.raises(DimensionError):
        score(L, np.ones(3))


def test_classify_sa_singleton_classes():
    rng = np.random.default_rng(9)
    Q, _ = np.linalg.qr(rng.standard_normal((6, 4)))
    state = fit_sa(Q, [1, 2, 3, 4], lam=0.001, gamma=0.5, k=2)
    for j in range(4):
        d = classify_one(state, Q[:, j])
        assert d.predicted_class == j + 1


def test_classify_sa_matches_step_replay_oracle():
    rng = np.random.default_rng(10)
    sizes = [4, 3, 5]
    n = sum(sizes)
    X = unit_columns(rng, 9, n)
    labels = np.repeat([1, 2, 3], sizes)
    L = one_hot(labels, 3)
    lam, gamma, k = 0.001, 0.5, 4
    state = fit_sa(X, labels, lam=lam, gamma=gamma, k=k)
    for _ in range(5):
        y = rng.standard_normal(9)
        d = classify_one(state, y)

        # independent replay of all four steps
        G = X.T @ X
        S = np.zeros((n, n))
        start = 0
        for size in sizes:
            keep = np.ones(n, dtype=bool)
            keep[start:start + size] = False
            S += G * np.outer(keep, keep)
            start += size
        A = G + (gamma / 3.0) * S + lam * np.eye(n)
        dense = np.linalg.solve(A, X.T @ y)
        support = []
        residual = y.copy()
        for _ in range(k):
            corr = np.abs(X.T @ residual)
            corr[support] = -1.0
            support.append(int(np.argmax(corr)))
            sol, _, _, _ = np.linalg.lstsq(X[:, support], y, rcond=None)
            residual = y - X[:, support] @ sol
        sparse = np.zeros(n)
        sparse[support] = sol
        fused = (sparse + dense) / np.linalg.norm(sparse + dense)
        q_ref = L @ fused

        assert d.predicted_class == int(np.argmax(q_ref)) + 1
        assert np.allclose(d.scores, q_ref, rtol=1e-10, atol=1e-12)


def test_classify_sa_full_support_orthonormal_self_consistency():
    # with k = n and an orthonormal dictionary the pursuit reduces to the
    # full least-squares code X^T y; the decision must match the max-score
    # rule on the normalized sum of the two full-support codes
    rng = np.random.default_rng(11)
    Q, _ = np.linalg.qr(rng.standard_normal((8, 6)))
    labels = [1, 1, 2, 2, 3, 3]
    L = one_hot(labels, 3)
    state = fit_sa(Q, labels, lam=0.001, gamma=0.5, k=6)
    y = rng.standard_normal(8)
    d = classify_one(state, y)
    sparse_full = Q.T @ y
    dense = state.projector.code(y)
    fused = (sparse_full + dense) / np.linalg.norm(sparse_full + dense)
    q_ref = L @ fused
    assert d.predicted_class == int(np.argmax(q_ref)) + 1
    assert np.allclose(d.scores, q_ref, rtol=1e-10, atol=1e-12)


class _NegatingProjector:
    """Test double returning the negation of the sparse code so fusion
    cancels exactly."""

    def __init__(self, X, k):
        self.X = X
        self.k = k

    def code(self, Y):
        return np.column_stack([-omp(self.X, y, self.k).coeffs for y in Y.T])


def test_classify_sa_degenerate_fusion_zero_dense_code_raises(caplog):
    # y is orthogonal to every atom: the pursuit selects nothing and the
    # dense code is zero, so there is no dense code to fall back to either
    state = fit_sa(np.eye(3)[:, :2], [1, 2], method="sa_crc", k=1)
    with caplog.at_level(logging.WARNING, logger="rcls.bench"):
        with pytest.raises(DegenerateFusionError):
            state.compute_code(np.array([0.0, 0.0, 1.0]))
    assert not any("falling back" in r.message for r in caplog.records)


def test_classify_sa_dense_only_fallback_logged(caplog):
    X = np.eye(2)
    L = build_label_matrix([1, 2], 2)
    state = FittedSa(
        "sa_crc", _NegatingProjector(X, 1), Dictionary(X), L, 1, split_blocks(X, [1, 1])
    )
    y = np.array([1.0, 0.0])
    with caplog.at_level(logging.WARNING, logger="rcls.bench"):
        codes = state.compute_code(y)
        d = state.decide(codes, y)
    assert any("degenerate fusion" in r.message for r in caplog.records)
    assert codes.dense_only
    # dense code is (-1, 0): class 2 has the larger (zero) score
    assert d.predicted_class == 2
    assert np.array_equal(d.scores, np.array([-1.0, 0.0]))


def test_max_score_tie_flags_lowest_class():
    state = fit_sa(np.eye(2), [1, 2], method="sa_crc", lam=0.001, k=2)
    # y loads both atoms equally, so both class scores are the same number
    d = classify_one(state, np.array([1.0, 1.0]))
    assert d.scores[0] == d.scores[1]
    assert d.predicted_class == 1
    assert d.tie


def test_split_blocks_views_and_validation():
    X = np.asfortranarray(np.arange(12.0).reshape(3, 4))
    blocks = split_blocks(X, [1, 3])
    assert blocks[0].shape == (3, 1)
    assert blocks[1].shape == (3, 3)
    assert np.shares_memory(blocks[0], X)
    with pytest.raises(DimensionError, match="class sizes sum to 5 but X has 4 columns"):
        split_blocks(X, [2, 3])
    for sizes in ([-1, 5], [0, 4], [2.9, 1.1]):
        with pytest.raises(DatasetError, match="size of class 1 must be an integer >= 1"):
            split_blocks(X, sizes)
    for bad in (np.ones(3), np.ones((1, 3, 1))):
        with pytest.raises(DimensionError, match=f"X must be 2-D, got ndim={bad.ndim}"):
            split_blocks(bad, [3])
