"""Representation solvers.

Dense coders with precomputed projectors (ridge-regularized collaborative
coding and its class-consistent variant), a greedy orthogonal-matching-pursuit
sparse coder, and an iterative-shrinkage l1 solver for the sparse-residual
baseline.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceWarning,
    DatasetError,
    DimensionError,
    NormalizationError,
    ParameterError,
)
from .linalg import _frozen_array, as_mat, as_vec, gram, norm2, spd_solve

# Column norms OMP will accept as "unit".
UNIT_NORM_TOL = 1e-6
DEFAULT_RESIDUAL_TOL = 1e-6
DEFAULT_SPARSITY = 50


@dataclass(frozen=True)
class CrcProjector:
    """Precomputed ridge solve operator P = (X^T X + lam I)^-1 X^T.

    Coding a test sample is a single product: ``code(y) = P @ y``.
    """

    P: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", _frozen_array(self.P))

    def code(self, y):
        return self.P @ as_vec(y, "y")


@dataclass(frozen=True)
class ProCrcProjector:
    """Precomputed solve operator for the class-consistent dense coder.

    ``T = (X^T X + (gamma/C) S + lam I)^-1 X^T`` where S is the summed
    leave-one-class-out Gram matrix (see ``build_gram_sum``).
    """

    T: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "T", _frozen_array(self.T))

    def code(self, y):
        return self.T @ as_vec(y, "y")


@dataclass(frozen=True)
class SparseCode:
    """Result of a greedy sparse solve.

    ``coeffs`` is dense of length n and zero off ``support``; ``support``
    lists the atoms in selection order.
    """

    coeffs: np.ndarray
    support: tuple
    final_residual_norm: float

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_array(self.coeffs))
        object.__setattr__(self, "support", tuple(int(i) for i in self.support))
        if len(set(self.support)) != len(self.support):
            raise ParameterError("support indices must be distinct")


def fit_crc(X, lam):
    """Fit the ridge-regularized dense coder.

    Solves (X^T X + lam I) P = X^T by Cholesky so that P maps a test sample
    straight to its dense coefficients.
    """
    X = as_mat(X, "X")
    if lam <= 0:
        raise ParameterError(f"lam must be > 0, got {lam}")
    n = X.shape[1]
    A = gram(X)
    A[np.diag_indices(n)] += lam
    P = spd_solve(A, X.T)
    return CrcProjector(P=P)


def build_gram_sum(G, class_sizes):
    """Summed leave-one-class-out Gram matrix.

    For contiguous class blocks, zeroing class i's rows and columns of G and
    summing over all classes leaves every within-class block C-1 times and
    every cross-class block C-2 times, i.e. S = (C-2) G + blockdiag(G).
    """
    G = as_mat(G, "G")
    n = G.shape[0]
    if G.shape[0] != G.shape[1]:
        raise DimensionError(f"G must be square, got shape {G.shape}")
    sizes = [int(s) for s in class_sizes]
    if sum(sizes) != n:
        raise DimensionError(
            f"class sizes sum to {sum(sizes)} but G is {n}x{n}"
        )
    C = len(sizes)
    S = (C - 2.0) * G
    start = 0
    for size in sizes:
        sl = slice(start, start + size)
        S[sl, sl] += G[sl, sl]
        start += size
    return np.asfortranarray(S)


def fit_procrc(X, class_sizes, lam, gamma):
    """Fit the class-consistent dense coder.

    Adds a per-class consistency penalty, weight gamma/C, on top of the ridge
    objective. gamma = 0 reduces exactly to the plain ridge coder. Columns of
    X must be grouped by class in ``class_sizes`` order.
    """
    X = as_mat(X, "X")
    if lam <= 0:
        raise ParameterError(f"lam must be > 0, got {lam}")
    if gamma < 0:
        raise ParameterError(f"gamma must be >= 0, got {gamma}")
    sizes = [int(s) for s in class_sizes]
    if len(sizes) < 1:
        raise ParameterError("need at least one class")
    if any(s < 1 for s in sizes):
        raise DatasetError(f"every class must be nonempty, got sizes {sizes}")
    n = X.shape[1]
    if sum(sizes) != n:
        raise DimensionError(f"class sizes sum to {sum(sizes)} but X has {n} columns")
    C = len(sizes)
    G = gram(X)
    A = G + (gamma / C) * build_gram_sum(G, sizes)
    A[np.diag_indices(n)] += lam
    return ProCrcProjector(T=spd_solve(A, X.T))


def _check_unit_columns(X):
    norms = np.linalg.norm(X, axis=0)
    bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)
    if bad.size:
        raise NormalizationError(
            f"columns must be unit-normalized; column {bad[0]} has norm "
            f"{norms[bad[0]]:.6g}"
        )


def omp(X, y, k, residual_tol=DEFAULT_RESIDUAL_TOL):
    """Greedy orthogonal matching pursuit.

    Per iteration: pick the atom with the largest |correlation| against the
    current residual (ties to the lowest index), re-solve least squares on
    the accrued support, update the residual. Stops after k atoms, when the
    residual norm drops to ``residual_tol``, or when the residual has no
    correlation left with any unselected atom.
    """
    X = as_mat(X, "X")
    y = as_vec(y, "y")
    m, n = X.shape
    if y.shape[0] != m:
        raise DimensionError(f"y has length {y.shape[0]}, X has {m} rows")
    _check_unit_columns(X)
    if not 1 <= k <= min(m, n):
        raise ParameterError(f"k must be in [1, {min(m, n)}], got {k}")

    support = []
    sol = np.zeros(0)
    residual = y.copy()
    for _ in range(k):
        res_norm = norm2(residual)
        if res_norm <= residual_tol:
            break
        corr = np.abs(X.T @ residual)
        if support:
            corr[support] = -1.0
        j = int(np.argmax(corr))
        if corr[j] <= 0.0:
            break
        support.append(j)
        sol, _, _, _ = np.linalg.lstsq(X[:, support], y, rcond=None)
        residual = y - X[:, support] @ sol

    coeffs = np.zeros(n)
    if support:
        coeffs[support] = sol
    return SparseCode(
        coeffs=coeffs,
        support=tuple(support),
        final_residual_norm=norm2(residual),
    )


def _soft_threshold(x, t):
    return np.sign(x) * np.maximum(np.abs(x) - t, 0.0)


def l1_solve(X, y, epsilon, max_iter=2000, lipschitz=None):
    """Approximate solver for the error-constrained l1 coding problem.

    Runs iterative shrinkage on the penalized form
    ``min ||y - X a||^2 + tau ||a||_1`` with tau decreased geometrically
    (continuation) until the residual norm reaches ``epsilon`` or the
    iteration budget is spent. On non-convergence the best iterate seen (by
    residual norm) is returned and a ConvergenceWarning is issued.

    ``lipschitz`` may carry a precomputed bound 2 * lambda_max(X^T X) so
    batch callers avoid re-estimating it per sample.
    """
    X = as_mat(X, "X")
    y = as_vec(y, "y")
    if y.shape[0] != X.shape[0]:
        raise DimensionError(f"y has length {y.shape[0]}, X has {X.shape[0]} rows")
    _check_unit_columns(X)
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be > 0, got {epsilon}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")

    n = X.shape[1]
    if lipschitz is None:
        lipschitz = 2.0 * float(np.linalg.eigvalsh(gram(X))[-1])
    step = 1.0 / lipschitz

    alpha = np.zeros(n)
    best = alpha
    best_res = norm2(y)
    tau_max = 2.0 * float(np.max(np.abs(X.T @ y)))
    tau = 0.5 * tau_max

    iters_left = max_iter
    inner_cap = 100
    while iters_left > 0:
        for _ in range(min(inner_cap, iters_left)):
            iters_left -= 1
            grad = 2.0 * (X.T @ (X @ alpha - y))
            new = _soft_threshold(alpha - step * grad, step * tau)
            delta = float(np.max(np.abs(new - alpha)))
            alpha = new
            if delta <= 1e-10 * (1.0 + float(np.max(np.abs(alpha)))):
                break
        res = norm2(y - X @ alpha)
        if res < best_res:
            best, best_res = alpha, res
        if res <= epsilon:
            return alpha
        tau *= 0.5

    warnings.warn(
        f"l1_solve: residual {best_res:.4g} did not reach epsilon={epsilon:.4g} "
        f"within {max_iter} iterations",
        ConvergenceWarning,
        stacklevel=2,
    )
    return best
