"""Decision rules.

Class-wise residual rules for the coder baselines, and the
fuse-then-score rule that sums a unit-normalized augmented coefficient per
class through the one-hot label matrix.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DatasetError,
    DegenerateDecisionError,
    DegenerateFusionError,
    DimensionError,
)
from .linalg import _frozen_array, as_labels, as_vec


@dataclass(frozen=True)
class LabelMatrix:
    """C x n one-hot label matrix.

    Column j carries a single 1 in the row of sample j's class. Class
    indices are 1-based; ``class_indices[i]`` holds the 0-based atom indices
    of class i+1.
    """

    L: np.ndarray
    class_indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "L", _frozen_array(self.L))
        object.__setattr__(
            self, "class_indices", tuple(_frozen_array(ix) for ix in self.class_indices)
        )

    @property
    def n_classes(self):
        return self.L.shape[0]

    @property
    def n_atoms(self):
        return self.L.shape[1]


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
    """Build the one-hot label matrix for dense 1..C labels."""
    labels = as_labels(labels)
    if labels.ndim != 1 or labels.size == 0:
        raise DatasetError("labels must be a nonempty 1-D sequence")
    if labels.min() < 1 or labels.max() > C:
        bad = labels[(labels < 1) | (labels > C)][0]
        raise DatasetError(f"label {bad} outside 1..{C}")
    n = labels.size
    L = np.zeros((C, n))
    L[labels - 1, np.arange(n)] = 1.0
    indices = tuple(np.flatnonzero(labels == c) for c in range(1, C + 1))
    for c, ix in enumerate(indices, start=1):
        if ix.size == 0:
            raise DatasetError(f"class {c} has no samples")
    return LabelMatrix(L=L, class_indices=indices)


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
    ||Y_j - X_i A_ij||_2, one block GEMM per class. Column j's winner is
    its argmin."""
    X_blocks = [np.asarray(B) for B in X_blocks]
    n = sum(B.shape[1] for B in X_blocks)
    if A.shape != (n, Y.shape[1]):
        raise DimensionError(
            f"codes have shape {A.shape} but blocks hold {n} atoms for {Y.shape[1]} samples"
        )
    if any(B.shape[0] != Y.shape[0] for B in X_blocks):
        raise DimensionError("block row count does not match y")
    scores = np.empty((len(X_blocks), Y.shape[1]))
    start = 0
    for i, B in enumerate(X_blocks):
        scores[i] = np.linalg.norm(Y - B @ A[start:start + B.shape[1]], axis=0)
        start += B.shape[1]
    return scores


def regularized_residual_scores(X_blocks, Y, A):
    """Residual rule with each class residual divided by its coefficient
    norm ||A_ij||_2.

    A class with a zero coefficient block scores +inf and cannot win; a
    column where every class does is a degenerate decision.
    """
    residuals = residual_scores(X_blocks, Y, A)
    ends = np.cumsum([np.shape(B)[1] for B in X_blocks])[:-1]
    norms = np.array([np.linalg.norm(A_i, axis=0) for A_i in np.split(A, ends)])
    scores = np.full(residuals.shape, np.inf)
    np.divide(residuals, norms, out=scores, where=norms != 0.0)
    dead = np.flatnonzero(~np.isfinite(scores).any(axis=0))
    if dead.size:
        raise DegenerateDecisionError(
            f"every class has a zero coefficient block (column {dead[0]})"
        )
    return scores


def _decide_one(rule, X_blocks, y, alpha):
    """The decision of a batch residual rule for one sample y with code alpha."""
    scores = rule(X_blocks, as_vec(y, "y")[:, None], as_vec(alpha, "alpha")[:, None])[:, 0]
    return _pick_class(scores, scores.min())


def classify_residual(X_blocks, y, alpha):
    """Assign y to the class whose block reconstructs it best.

    scores[i] = ||y - X_i alpha_i||_2, winner = argmin.
    """
    return _decide_one(residual_scores, X_blocks, y, alpha)


def classify_regularized_residual(X_blocks, y, alpha):
    """Residual rule with each class residual divided by its coefficient norm.

    A class with a zero coefficient block scores +inf and cannot win; if
    every class does, the decision is degenerate.
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

    Class sums are computed with exact (correctly rounded) summation so the
    result is independent of atom ordering.
    """
    alpha = as_vec(alpha_fused, "alpha_fused")
    if alpha.shape[0] != L.n_atoms:
        raise DimensionError(
            f"alpha has length {alpha.shape[0]} but label matrix has {L.n_atoms} columns"
        )
    q = np.empty(L.n_classes)
    for i, ix in enumerate(L.class_indices):
        q[i] = math.fsum(alpha[ix])
    return q


def split_blocks(X, class_sizes):
    """Views of X's contiguous per-class column blocks."""
    X = np.asarray(X)
    sizes = [int(s) for s in class_sizes]
    if sum(sizes) != X.shape[1]:
        raise DimensionError(
            f"class sizes sum to {sum(sizes)} but X has {X.shape[1]} columns"
        )
    blocks = []
    start = 0
    for size in sizes:
        blocks.append(X[:, start:start + size])
        start += size
    return blocks
