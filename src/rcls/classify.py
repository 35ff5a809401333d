"""Decision rules.

Class-wise residual rules for the coder baselines, and the
fuse-then-score rule that sums a unit-normalized augmented coefficient per
class over the nonzero columns of the paper's one-hot label matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDecisionError, DegenerateFusionError, DimensionError
from .linalg import (
    _frozen_array, _residual_norms, as_mat, as_sample, as_vec, check_labels, class_slices,
)


@dataclass(frozen=True)
class LabelMatrix:
    """The paper's C x n one-hot label matrix L, held as the nonzero
    columns of its rows: ``class_indices[i]`` holds the 0-based indices of
    the atoms of class i+1, where row i of L is 1. ``n_atoms`` is n.
    """

    class_indices: tuple
    n_atoms: int

    def __post_init__(self):
        object.__setattr__(
            self, "class_indices", tuple(_frozen_array(ix) for ix in self.class_indices)
        )


@dataclass(frozen=True)
class ClassDecision:
    """Predicted class (1-based) plus the full per-class score vector.

    For residual rules the winner attains the minimum score, for the
    max-score rule the maximum. ``tie`` flags an exact score tie, broken to
    the lowest class index.
    """

    predicted_class: int
    scores: np.ndarray
    tie: bool

    def __post_init__(self):
        object.__setattr__(self, "scores", _frozen_array(self.scores))


def build_label_matrix(labels, C):
    """The label matrix of dense labels, after ``linalg.check_labels``,
    the check that ``Dataset`` makes too."""
    labels = check_labels(labels, C)
    indices = tuple(np.flatnonzero(labels == c) for c in range(1, C + 1))
    return LabelMatrix(class_indices=indices, n_atoms=labels.size)


def _winners(scores, best):
    """Per column of ``scores`` (classes are rows): the 0-based index of the
    first class whose score equals ``best``, the column's minimum or
    maximum, and whether a second class does too (an exact tie, broken to
    the lowest class). A 1-D ``scores`` is one column."""
    hits = scores == best
    return hits.argmax(axis=0), hits.sum(axis=0) > 1


def _pick_class(scores, best):
    """The decision for one sample's score vector."""
    winner, tie = _winners(scores, best)
    return ClassDecision(predicted_class=int(winner) + 1, scores=scores, tie=bool(tie))


def residual_scores(X_blocks, Y, A):
    """Plain residual rule for the samples in the columns of Y with codes in
    the columns of A, split over the blocks in order: scores[i, j] =
    ||Y_j - X_i A_ij||_2, from the rows of ``Y^T - A_i^T X_i^T``: one
    ``_row_products`` per class and one sum per row, so column j's scores
    do not depend on the other columns. Column j's winner is its argmin.
    The blocks arrive checked (``split_blocks``, ``_decide_one``): the
    kernel converts nothing and checks only shapes."""
    n = sum(B.shape[1] for B in X_blocks)
    if A.shape != (n, Y.shape[1]):
        raise DimensionError(
            f"codes have shape {A.shape} but blocks hold {n} atoms for {Y.shape[1]} samples"
        )
    if any(B.shape[0] != Y.shape[0] for B in X_blocks):
        raise DimensionError("block row count does not match y")
    Yr = np.ascontiguousarray(Y.T)
    ends = np.cumsum([B.shape[1] for B in X_blocks])[:-1]
    scores = np.empty((len(X_blocks), Y.shape[1]))
    for i, (B, A_i) in enumerate(zip(X_blocks, np.split(A.T, ends, axis=1))):
        scores[i] = _residual_norms(B, Yr, A_i)
    return scores


def regularized_residual_scores(X_blocks, Y, A):
    """Residual rule with each class residual divided by its coefficient
    norm ||A_ij||_2, summed over a contiguous row like the residual.

    A class with a zero coefficient block scores +inf and cannot win; a
    column where every class does is a degenerate decision.
    """
    residuals = residual_scores(X_blocks, Y, A)
    ends = np.cumsum([B.shape[1] for B in X_blocks])[:-1]
    norms = np.array([np.sqrt(np.einsum("rn,rn->r", A_i, A_i))
                      for A_i in np.split(np.ascontiguousarray(A.T), ends, axis=1)])
    scores = np.full(residuals.shape, np.inf)
    np.divide(residuals, norms, out=scores, where=norms != 0.0)
    dead = np.flatnonzero(~np.isfinite(scores).any(axis=0))
    if dead.size:
        raise DegenerateDecisionError(
            f"every class has a zero coefficient block (column {dead[0]})"
        )
    return scores


def _decide_one(rule, X_blocks, y, alpha):
    """One sample y's decision by a batch residual rule, with code alpha;
    each block is checked first, by ``as_mat`` as "class 2 block" and so on."""
    if not len(X_blocks):
        raise DimensionError("X_blocks must hold at least one class block")
    blocks = [as_mat(B, f"class {i} block") for i, B in enumerate(X_blocks, 1)]
    Y = as_sample(y, blocks[0].shape[0])
    scores = rule(blocks, Y, as_vec(alpha, "alpha")[:, None])[:, 0]
    return _pick_class(scores, scores.min())


def classify_residual(X_blocks, y, alpha):
    """Assign y to the class whose block reconstructs it best.

    scores[i] = ||y - X_i alpha_i||_2, winner = argmin. Each block is
    checked by ``as_mat``, y by ``as_sample`` and alpha by ``as_vec``.
    """
    return _decide_one(residual_scores, X_blocks, y, alpha)


def classify_regularized_residual(X_blocks, y, alpha):
    """Residual rule with each class residual divided by its coefficient norm.

    A class with a zero coefficient block scores +inf and cannot win; if
    every class does, the decision is degenerate. Checks as ``classify_residual``.
    """
    return _decide_one(regularized_residual_scores, X_blocks, y, alpha)


def fuse_coefficients(alpha_sparse, alpha_dense):
    """Sum the sparse and dense codes and normalize to unit l2 norm."""
    a = as_vec(alpha_sparse, "alpha_sparse")
    b = as_vec(alpha_dense, "alpha_dense")
    if a.shape[0] != b.shape[0]:
        raise DimensionError(
            f"coefficient lengths differ: {a.shape[0]} vs {b.shape[0]}"
        )
    s = a + b
    nrm = float(np.linalg.norm(s))
    if nrm == 0.0:
        raise DegenerateFusionError("sparse and dense coefficients cancel exactly")
    return s / nrm


def score(L, alpha_fused):
    """Per-class score q = L @ alpha: the sum of fused coefficients over
    each class's atoms.

    Each class sum is ``math.fsum`` over Python floats (one ``tolist`` of
    the class's coefficients), exact and correctly rounded, so the result
    is independent of atom ordering.
    """
    alpha = as_vec(alpha_fused, "alpha_fused")
    if alpha.shape[0] != L.n_atoms:
        raise DimensionError(
            f"alpha has length {alpha.shape[0]} but label matrix has {L.n_atoms} columns"
        )
    return np.array([math.fsum(alpha[ix].tolist()) for ix in L.class_indices])


def split_blocks(X, class_sizes):
    """Views of X's contiguous class blocks, after ``as_mat`` (no copy of a Dataset's X)."""
    X = as_mat(X, "X")
    n = X.shape[1]
    return [X[:, sl] for sl in class_slices(class_sizes, n, f"X has {n} columns")]
