"""Representation solvers.

Dense coders with precomputed projectors (ridge-regularized collaborative
coding and its class-consistent variant), a greedy orthogonal-matching-pursuit
sparse coder, and an iterative-shrinkage l1 solver for the sparse-residual
baseline. Both sparse coders code a batch of samples in lockstep.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceWarning,
    DimensionError,
    ParameterError,
)
from .linalg import (
    _frozen_array,
    _residual_norms,
    _row_products,
    as_dictionary,
    as_mat,
    as_sample,
    as_samples,
    check_integer,
    check_param,
    class_slices,
    spd_solve,
)

DEFAULT_SPARSITY = 50
RESIDUAL_TOL = 1e-6  # the residual norm at or below which OMP stops
# The l1 solver's iteration budget per sample.
MAX_ITER = 2000
# Squared distance from the span of the support, relative to the atom's
# squared norm, at or below which OMP treats a chosen atom as dependent
# (sin of its angle to the span at most 1e-5).
DEPENDENT_ATOM_TOL = 1e-10
# Bytes of per-column solver state that ``_omp_columns`` and
# ``_l1_columns`` hold at a time; wider batches are coded in chunks of
# columns.
CHUNK_BYTES = 8 << 20


def _project(M, y):
    """``M @ y`` for a column-major n x m solve operator: a 1-D sample's code
    (``as_sample``) or the codes of the columns of a matrix (``as_samples``),
    as one ``_row_products`` of the samples as rows and ``M^T``. Only the
    projectors lay M out, so that M^T is read by rows; an m < n fit's M, an
    ``spd_solve`` result transposed, already is column-major."""
    Y = (as_sample if np.ndim(y) == 1 else as_samples)(y, M.shape[1])
    return _row_products(Y.T, M.T).T.reshape(M.shape[0], *np.shape(y)[1:])


@dataclass(frozen=True)
class CrcProjector:
    """Precomputed ridge solve operator P = (X^T X + lam I)^-1 X^T, an
    n x m matrix stored column-major (see ``fit_crc`` for how it is
    solved). Coding test samples is one product: ``code(Y) = P @ Y``."""

    P: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "P", _frozen_array(np.asfortranarray(self.P)))

    def code(self, y):
        return _project(self.P, y)


@dataclass(frozen=True)
class ProCrcProjector:
    """Precomputed solve operator for the class-consistent dense coder.

    ``T = (X^T X + (gamma/C) S + lam I)^-1 X^T``, an n x m matrix stored
    column-major, where S is the summed leave-one-class-out Gram matrix
    (``build_gram_sum``; ``fit_procrc`` solves T). ``code(Y) = T @ Y``.
    """

    T: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "T", _frozen_array(np.asfortranarray(self.T)))

    def code(self, y):
        return _project(self.T, y)


@dataclass(frozen=True)
class SparseCode:
    """Result of a greedy sparse solve, a record that checks nothing:
    ``coeffs`` (read-only) is dense of length n and zero off ``support``,
    the tuple of distinct atoms ``_pursue`` chose, in selection order."""

    coeffs: np.ndarray
    support: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _frozen_array(self.coeffs))
        object.__setattr__(self, "support", tuple(self.support))


def fit_crc(X, lam):
    """Fit the ridge-regularized dense coder.

    Returns P = (X^T X + lam I)^-1 X^T, which maps a test sample straight to
    its dense coefficients: ``_dense_operator`` of the m x n ``X`` (a matrix
    or a Dictionary) as one class, solved on the smaller, accurate side.
    """
    D = as_dictionary(X)
    check_param("lambda", lam)
    return CrcProjector(P=_dense_operator(D, [slice(0, D.X.shape[1])], lam, 0.0))


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
    return _gram_sum(G, class_slices(class_sizes, n, f"G is {n}x{n}"))


def _gram_sum(G, slices):
    """``build_gram_sum`` for a checked G and its checked class slices."""
    S = (len(slices) - 2.0) * G
    for sl in slices:
        S[sl, sl] += G[sl, sl]
    return S


def fit_procrc(X, class_sizes, lam, gamma):
    """Fit the class-consistent dense coder.

    Adds a per-class consistency penalty, weight gamma/C, on top of the ridge
    objective; columns of X (a matrix or a Dictionary) must be grouped by
    class in ``class_sizes`` order. Returns
    T = (X^T X + (gamma/C) S + lam I)^-1 X^T with S = (C-2) G + blockdiag(G)
    (``build_gram_sum``), solved by ``_dense_operator`` on the smaller,
    accurate side; with C = 1 or gamma = 0 it is ``fit_crc``'s P.
    """
    D = as_dictionary(X)
    check_param("lambda", lam)
    check_param("gamma", gamma, zero_ok=True)
    n = D.X.shape[1]
    slices = class_slices(class_sizes, n, f"X has {n} columns")
    return ProCrcProjector(T=_dense_operator(D, slices, lam, gamma))


def _dense_operator(D, slices, lam, gamma):
    """(G + (gamma/C) S + lam I)^-1 X^T, S = ``_gram_sum``, for the
    Dictionary D (m x n X, G = X^T X), C checked class slices and checked
    ``lam`` and ``gamma``: the one place a dense fit picks its side. m >= n:
    one n x n Cholesky solve over G, the class term added if C > 1 and
    gamma > 0. m < n without it: X^T (X X^T + lam I)^-1, one m x m solve.
    m < n with it: Woodbury on a G + B (a = 1 + gamma (C-2)/C,
    B = (gamma/C) blockdiag(G) + lam I) gives W (I + a X W)^-1, with
    W = B^-1 X^T solved one class block at a time, then one m x m
    solve. The smaller side is the accurate one, as the larger side's
    system has rank min(m, n) plus lam: at lam = 1e-9 a unit sample's ridge
    code errs by 4e-7 relative from an m x m solve at m = 120 > n = 80
    (n x n: 4e-15), by 4e-7 from an n x n solve at m = 80 < n = 120 (m x m:
    6e-15). Woodbury stays accurate at m > n (3e-15 to lam = 1e-12), but
    there the class term shares the n x n branch, 3x faster at 3000 x 1500.

    Each large array is held once. W is filled class by class, each block
    solve holding arrays of its block's size only; K is symmetrized and
    the class term added in place. So a fit holds at most 3 m x n arrays
    at once, plus its m x m or n x n matrices (see ``spd_solve``).
    """
    X = D.X
    m, n = X.shape
    C = len(slices)
    ridge = C == 1 or gamma == 0
    if m >= n:
        if ridge:
            A = np.array(D.G)
        else:
            A = _gram_sum(D.G, slices)
            A *= gamma / C
            A += D.G
        A[np.diag_indices(n)] += lam
        return spd_solve(A, X.T)
    if ridge:
        A = X @ X.T  # one syrk: exactly symmetric
        A[np.diag_indices(m)] += lam
        return spd_solve(A, X).T
    a = 1.0 + gamma * (C - 2) / C
    W = np.empty((n, m))
    for sl in slices:
        Xi = X[:, sl]  # a view of the class block
        B = Xi.T @ Xi
        B *= gamma / C
        B[np.diag_indices(sl.stop - sl.start)] += lam
        W[sl] = spd_solve(B, Xi.T)
    del B  # the last class's system, as large as its block is wide
    K = X @ W  # X B^-1 X^T, symmetric up to rounding
    K += K.T
    K *= 0.5 * a
    K[np.diag_indices(m)] += 1.0
    return spd_solve(K, W.T).T


def check_sparsity(k, m, n):
    """Raise ParameterError unless ``k`` is an integer (not a bool) in
    [1, min(m, n)] for m-dimensional samples over n atoms."""
    check_integer("k", k)
    if not 1 <= k <= min(m, n):
        raise ParameterError(
            f"k must be in [1, {min(m, n)}] for {m}-dimensional samples and "
            f"{n} atoms, got {k}"
        )


def omp(X, y, k):
    """Greedy orthogonal matching pursuit of one sample.

    Per iteration: pick the atom with the largest |correlation| against the
    current residual (ties to the lowest index), extend the least-squares
    fit on the accrued support, update the correlations and the residual
    norm (explicitly near ``RESIDUAL_TOL``). Stops after k atoms, when the
    residual norm drops to ``RESIDUAL_TOL``, or when the residual has no
    correlation left with any unselected atom. The chosen atom counts as
    having no correlation left when it is numerically in the span of the
    support: when its squared distance from that span (the new Cholesky
    pivot) is at most ``DEPENDENT_ATOM_TOL`` times its squared norm. So an
    atom and an exact copy of it are never both selected.

    ``X`` is a matrix or, to build G = X^T X once for many samples, a
    Dictionary. X, y, X's unit norms and k are checked here, in that order;
    ``_omp_columns``, which codes many samples at once, codes the column.
    """
    D = as_dictionary(X)
    Y = as_sample(y, D.X.shape[0])
    D.unit_norms
    check_sparsity(k, *D.X.shape)
    return _omp_columns(D, Y, k)[0]


def _omp_columns(D, Y, k):
    """``omp`` of every column of Y (m x N) over the Dictionary D, all
    checked: one SparseCode per column.

    The columns are pursued in lockstep, in chunks whose state fits
    ``CHUNK_BYTES`` and that share one allocation of it; a column's support
    does not depend on the other columns. X^T Y is one ``_row_products``
    for the whole batch, so that no chunk pads it to a whole GEMM group,
    and is held for the batch (N x n), as the codes are.
    """
    X, G = D.X, D.G
    m, n = X.shape
    N = Y.shape[1]
    # per column: U, L^T, z, the support and a few n- and m-vectors
    chunks = _chunks(N, 8 * (k * (n + k + 2) + 2 * n + m))
    w = min(N, chunks[0].stop)
    panels = (np.empty((w, k, n)), np.empty((w, k, k)), np.empty((w, k)),
              np.empty((w, k), dtype=np.intp))
    Yr = np.ascontiguousarray(Y.T)  # N x m, one sample per row
    corr = _row_products(Yr, X)  # X^T y per row
    coeffs = np.empty((N, n))
    supports = [s for cols in chunks
                for s in _pursue(X, G, Yr[cols], corr[cols], k, panels, coeffs[cols])]
    return [SparseCode(coeffs=a, support=s) for a, s in zip(coeffs, supports)]


def _chunks(N, column_bytes):
    """Slices of N columns, each as wide as ``CHUNK_BYTES`` of
    ``column_bytes`` per column allows, and at least one column wide."""
    width = max(1, CHUNK_BYTES // column_bytes)
    return [slice(start, start + width) for start in range(0, N, width)]


def _pursue(X, G, Yr, corr, k, panels, coeffs):
    """Lockstep OMP (Batch-OMP, Rubinstein, Zibulevsky and Elad 2008) of
    the samples in the rows of Yr, whose X^T y are the rows of ``corr``
    (updated in place), in ``panels``, the state of at least as many
    samples. Writes each sample's coefficients into its row of ``coeffs``
    and returns the supports, in row order. Row r of each state array
    belongs to the live sample ``cols[r]``; a sample that stops is
    recorded and its rows dropped. With L the Cholesky factor of G[S, S],
    a sample keeps L^T, z = L^-1 b_S (b = X^T y), U = L^-1 G[S, :] and its
    correlations b - U^T z. Atom J adds v = U[:, J], d = sqrt(G[J, J] -
    v.v), z_i = corr[J] / d and the row (G[J, :] - v^T U) / d of U, the
    step's one product. J's correlation, then 0 up to rounding, is set
    to 0: a chosen atom is the best again only when no atom has
    correlation left, or by rounding alone with a pivot of about 0, and
    either way the sample stops. The residual test reads
    ||y||^2 - ||z||^2, or the explicit residual within 8 (i + 1) eps
    ||y||^2 of ``RESIDUAL_TOL``^2, where rounding could decide it. The
    coefficients solve L^T x = z. The explicit residuals are
    ``_row_products`` and every other product one per sample, so a
    sample's code does not depend on the others.
    """
    n, N = G.shape[0], Yr.shape[0]
    U, LT, z, S = panels  # LT[r] holds L^T, upper triangular
    rest = np.einsum("rm,rm->r", Yr, Yr)  # ||y||^2 - ||z||^2
    band = (8 * np.finfo(np.float64).eps) * rest  # rest's rounding per atom
    tol2 = RESIDUAL_TOL ** 2
    cols = rows_all = np.arange(N)
    supports = [None] * N

    def solve(rows, i):
        """The codes of the live rows ``rows`` at i atoms: L^T x = z."""
        T, x = LT[rows, :i, :i], z[rows, :i].copy()
        for j in range(i - 1, -1, -1):
            x[:, j] -= np.einsum("ri,ri->r", T[:, j, j + 1:], x[:, j + 1:])
            x[:, j] /= T[:, j, j]
        A = np.zeros((rows.size, n))
        A[rows_all[:rows.size, None], S[rows, :i]] = x
        return A

    def record(rows, i):
        coeffs[cols[rows]] = solve(rows, i)
        for c, support in zip(cols[rows].tolist(), S[rows, :i].tolist()):
            supports[c] = support

    for i in range(k):
        w = len(cols)
        live = rows_all[:w]
        small = rest <= tol2
        near = np.flatnonzero(np.abs(rest - tol2) <= (i + 1) * band)
        if near.size:
            small[near] = _residual_norms(X, Yr[cols[near]], solve(near, i)) <= RESIDUAL_TOL
        a = np.abs(corr)
        J = a.argmax(axis=1)
        v = U[live, :i, J]
        gjj = G[J, J]
        pivot = gjj - np.einsum("ri,ri->r", v, v)
        stop = small | (a[live, J] <= 0.0) | (pivot <= DEPENDENT_ATOM_TOL * gjj)
        if stop.any():
            record(np.flatnonzero(stop), i)
            keep = np.flatnonzero(~stop)
            w = keep.size
            if not w:
                break
            cols, J, v, pivot, corr, rest, band = (
                x[keep] for x in (cols, J, v, pivot, corr, rest, band))
            # move the kept rows up in place, one at a time, so that no
            # copy of the panels is made
            for dst, src in enumerate(keep):
                if dst != src:
                    for x in (U, LT, z, S):
                        x[dst, :i] = x[src, :i]
        d = np.sqrt(pivot)
        zi = corr[rows_all[:w], J] / d
        LT[:w, :i, i] = v
        LT[:w, i, i] = d
        z[:w, i] = zi
        S[:w, i] = J
        U[:w, i] = (G.T[J] - np.matmul(v[:, None, :], U[:w, :i])[:, 0]) / d[:, None]
        corr -= zi[:, None] * U[:w, i]
        corr[rows_all[:w], J] = 0.0  # so that a chosen atom has none left
        rest -= zi * zi
    else:
        record(rows_all[:len(cols)], k)
    return supports


def l1_solve(X, y, epsilon):
    """Approximate solver for the error-constrained l1 coding problem.

    Runs iterative shrinkage on the penalized form
    ``min ||y - X a||^2 + tau ||a||_1`` with tau decreased geometrically
    (continuation) until the residual norm reaches ``epsilon`` or
    ``MAX_ITER`` steps are spent. On non-convergence the best iterate seen
    (by residual norm) is returned and a ConvergenceWarning is issued.

    ``X`` is a matrix or, to compute the step bound 2 * lambda_max(X^T X)
    once for many samples, a Dictionary. X, y, X's unit norms and epsilon
    are checked here, in that order; ``_l1_columns`` codes y as one column.
    """
    D = as_dictionary(X)
    Y = as_sample(y, D.X.shape[0])
    D.unit_norms
    check_param("epsilon", epsilon)
    return _l1_columns(D, Y, epsilon)[:, 0]


def _l1_columns(D, Y, epsilon):
    """``l1_solve`` of every column of Y (m x N) over the Dictionary D, all
    checked: the codes, n x N.

    The columns are shrunk in lockstep, in chunks whose state fits
    ``CHUNK_BYTES``; a column's code is bitwise the same whatever the
    other columns, their order or the chunks. A column that misses
    ``epsilon`` in ``MAX_ITER`` steps issues one ConvergenceWarning naming it.
    """
    X = D.X
    m, n = X.shape
    step = 1.0 / D.lipschitz
    N = Y.shape[1]
    codes = np.empty((n, N))
    Xr = np.ascontiguousarray(X)  # row-major, for the products by X
    # per column: the iterate, the best one, the gradient and a scratch
    # n-vector, the sample and its residual
    for cols in _chunks(N, 8 * (4 * n + 2 * m)):
        codes[:, cols], missed = _shrink(X, Y[:, cols], epsilon, step, Xr)
        for j, res in missed:
            warnings.warn(
                f"l1_solve: column {cols.start + j}: residual {res:.4g} did not reach "
                f"epsilon={epsilon:.4g} within {MAX_ITER} iterations",
                ConvergenceWarning,
                stacklevel=3,
            )
    return codes


def _shrink(X, Y, epsilon, step, Xr):
    """Lockstep iterative shrinkage of the columns of Y over the
    column-major X, whose row-major copy is ``Xr``: the codes (n x N) and
    ``(column, best residual)`` of each column that missed ``epsilon``.

    Per column: tau starts at max |X^T y| and halves after every stage; a
    stage ends after 100 steps, when no coefficient moved by more than
    1e-10 (1 + max |a|), or when ``MAX_ITER`` steps are spent. At a stage
    end the residual is taken: at or below ``epsilon`` the column is done,
    and when the budget is spent it returns the iterate with the smallest
    residual seen. Row ``r`` of each state array belongs to the live column
    ``cols[r]``; a column that is done is recorded and its rows dropped, so
    none steps past its own stop.

    Every product (X a - y and X^T of that per step, the stage-end
    residuals and the first X^T y) is a ``_row_products`` GEMM over the
    live columns, its right operand read row-major (X^T, a view of X, and
    ``Xr``), and a norm is a sum over one row. So a column's arithmetic
    is the same whatever the batch. This matters for a column that cannot
    reach ``epsilon``: late in the continuation its stage residuals differ
    by rounding alone, and it picks its best iterate among them.
    """
    XT = X.T
    cols = np.arange(Y.shape[1])
    Yr = np.ascontiguousarray(Y.T)  # one sample per row
    A = np.zeros((len(cols), X.shape[1]))
    best = A.copy()
    best_res = np.sqrt(np.einsum("rm,rm->r", Yr, Yr))
    tau = np.abs(_row_products(Yr, Xr)).max(axis=1)
    inner = np.zeros(len(cols), dtype=np.intp)
    codes = np.empty_like(A)
    grad_step = 2.0 * step
    for it in range(1, MAX_ITER + 1):
        R = _row_products(A, XT)
        R -= Yr
        new = _row_products(R, Xr)
        new *= grad_step
        np.subtract(A, new, out=new)
        t = (step * tau)[:, None]
        scratch = np.maximum(new, -t)
        np.minimum(scratch, t, out=scratch)
        new -= scratch  # the soft threshold of new at t: new - clip(new, -t, t)
        np.subtract(new, A, out=scratch)
        delta = np.abs(scratch, out=scratch).max(axis=1)
        A = new
        inner += 1
        amax = np.abs(A, out=scratch).max(axis=1)
        end = (delta <= 1e-10 * (1.0 + amax)) | (inner == 100) | (it == MAX_ITER)
        if not end.any():
            continue
        e = np.flatnonzero(end)
        res = _residual_norms(X, Yr[e], A[e])
        better = res < best_res[e]
        best[e[better]] = A[e[better]]
        best_res[e[better]] = res[better]
        done = e[res <= epsilon]
        codes[cols[done]] = A[done]
        tau[e] *= 0.5
        inner[e] = 0
        if done.size:
            keep = np.ones(len(cols), dtype=bool)
            keep[done] = False
            if not keep.any():
                return codes.T, []
            cols, A, best, best_res, tau, inner, Yr = (
                x[keep] for x in (cols, A, best, best_res, tau, inner, Yr)
            )
    codes[cols] = best
    return codes.T, list(zip(cols.tolist(), best_res.tolist()))
