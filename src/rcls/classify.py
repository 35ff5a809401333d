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
from .linalg import _frozen_array, as_vec

RULE_RESIDUAL = "residual"
RULE_REGULARIZED_RESIDUAL = "regularized_residual"
RULE_MAX_SCORE = "max_score"


@dataclass(frozen=True)
class LabelMatrix:
    """C x n one-hot label matrix.

    Column j carries a single 1 in the row of sample j's class. Class
    indices are 1-based; ``class_indices[i]`` holds the 0-based atom indices
    of class i+1.
    """

    L: np.ndarray
    class_sizes: tuple
    class_indices: tuple

    def __post_init__(self):
        object.__setattr__(self, "L", _frozen_array(self.L))
        object.__setattr__(self, "class_sizes", tuple(int(s) for s in self.class_sizes))
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
    rule: str
    tie: bool = False

    def __post_init__(self):
        object.__setattr__(self, "scores", _frozen_array(self.scores))


def build_label_matrix(labels, C):
    """Build the one-hot label matrix for dense 1..C labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1 or labels.size == 0:
        raise DatasetError("labels must be a nonempty 1-D sequence")
    if labels.min() < 1 or labels.max() > C:
        bad = labels[(labels < 1) | (labels > C)][0]
        raise DatasetError(f"label {bad} outside 1..{C}")
    n = labels.size
    L = np.zeros((C, n))
    L[labels - 1, np.arange(n)] = 1.0
    indices = tuple(np.flatnonzero(labels == c) for c in range(1, C + 1))
    sizes = tuple(ix.size for ix in indices)
    if any(s == 0 for s in sizes):
        empty = sizes.index(0) + 1
        raise DatasetError(f"class {empty} has no samples")
    return LabelMatrix(L=L, class_sizes=sizes, class_indices=indices)


def _argmin_decision(scores, rule):
    scores = np.asarray(scores)
    best = scores.min()
    winners = np.flatnonzero(scores == best)
    return ClassDecision(
        predicted_class=int(winners[0]) + 1,
        scores=scores,
        rule=rule,
        tie=winners.size > 1,
    )


def _split_alpha(X_blocks, y, alpha):
    y = as_vec(y, "y")
    alpha = as_vec(alpha, "alpha")
    widths = [np.asarray(B).shape[1] for B in X_blocks]
    if sum(widths) != alpha.shape[0]:
        raise DimensionError(
            f"alpha has length {alpha.shape[0]} but blocks hold {sum(widths)} atoms"
        )
    for B in X_blocks:
        if np.asarray(B).shape[0] != y.shape[0]:
            raise DimensionError("block row count does not match y")
    offsets = np.cumsum([0] + widths)
    return y, alpha, offsets


def classify_residual(X_blocks, y, alpha):
    """Assign y to the class whose block reconstructs it best.

    scores[i] = ||y - X_i alpha_i||_2, winner = argmin.
    """
    y, alpha, offsets = _split_alpha(X_blocks, y, alpha)
    scores = np.empty(len(X_blocks))
    for i, B in enumerate(X_blocks):
        a_i = alpha[offsets[i]:offsets[i + 1]]
        scores[i] = np.linalg.norm(y - np.asarray(B) @ a_i)
    return _argmin_decision(scores, RULE_RESIDUAL)


def classify_regularized_residual(X_blocks, y, alpha):
    """Residual rule with each class residual divided by its coefficient norm.

    A class with a zero coefficient block scores +inf and cannot win; if
    every class does, the decision is degenerate.
    """
    y, alpha, offsets = _split_alpha(X_blocks, y, alpha)
    scores = np.empty(len(X_blocks))
    for i, B in enumerate(X_blocks):
        a_i = alpha[offsets[i]:offsets[i + 1]]
        denom = np.linalg.norm(a_i)
        if denom == 0.0:
            scores[i] = np.inf
        else:
            scores[i] = np.linalg.norm(y - np.asarray(B) @ a_i) / denom
    if not np.isfinite(scores).any():
        raise DegenerateDecisionError("every class has a zero coefficient block")
    return _argmin_decision(scores, RULE_REGULARIZED_RESIDUAL)


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
