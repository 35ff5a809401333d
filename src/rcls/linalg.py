"""Dense linear algebra: checked arrays and dictionaries, Gram, SPD solves.

Everything is 64-bit floating point. A layout is chosen once, by the
array's owner: ``as_mat`` and ``as_samples`` store samples column-major so
one (a column) is contiguous, and test samples are multiplied as rows
(``_row_products``); other results keep the layout their products give.
Everything runs on numpy alone: an SPD system is solved through its
Cholesky factor L, by GEMMs with L^-1 (``spd_solve``); the inverse of the
system matrix is never formed.
"""

import functools
import math
import numbers

import numpy as np

from .errors import (
    DataError,
    DatasetError,
    DimensionError,
    NormalizationError,
    NumericalError,
    ParameterError,
    SingularMatrixError,
)

# Relative Frobenius residual an SPD solve must achieve.
SOLVE_RTOL = 1e-8
# Rows of a GEMM of test samples by a small operand (see ``_group_rows``).
GEMM_ROWS = 16
# Column norms a Dictionary accepts as "unit" (see ``Dictionary.unit_norms``).
UNIT_NORM_TOL = 1e-6


def _frozen_array(a):
    """A read-only view of ``a``, for the fields of frozen records; the
    caller's array stays writeable."""
    a = np.asarray(a).view()
    a.setflags(write=False)
    return a


def _real_array(a, name):
    """``a`` as an array, DataError if complex or text, whose conversion to
    float64 drops or parses: the dtype check of every ``as_*`` checker."""
    a = np.asarray(a)
    if a.dtype.kind in "cUS":
        raise DataError(f"{name} must hold real numbers, got dtype {a.dtype}")
    return a


def as_mat(a, name="matrix"):
    """Validate and return ``a`` as a float64 column-major 2-D array.

    Rejects complex and text dtypes, empty shapes and non-finite entries.
    """
    m = np.asfortranarray(_real_array(a, name), dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionError(f"{name} must be nonempty, got shape {m.shape}")
    _check_finite(m, name)
    return m


def _check_finite(a, name):
    if not np.isfinite(a).all():
        raise DataError(f"{name} contains non-finite entries")


def as_vec(a, name="vector"):
    """Validate and return ``a`` as a finite float64 1-D array; complex and
    text dtypes are rejected."""
    v = np.ascontiguousarray(_real_array(a, name), dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got ndim={v.ndim}")
    if v.shape[0] == 0:
        raise DimensionError(f"{name} must be nonempty")
    _check_finite(v, name)
    return v


def as_samples(Y, m):
    """Test samples, the columns of ``Y``, checked once for the batch: a
    float64 column-major m x N matrix, real, finite and with no zero
    column. The error for a bad sample names its column. This is the one
    check of a test sample: every coder and residual rule makes it."""
    Y = np.asfortranarray(_real_array(Y, "y"), dtype=np.float64)
    if Y.ndim != 2 or Y.shape[1] == 0:
        raise DimensionError(f"test samples must be a nonempty matrix, got shape {Y.shape}")
    if Y.shape[0] != m:
        raise DimensionError(f"y has length {Y.shape[0]}, X has {m} rows")
    bad = np.flatnonzero(~np.isfinite(Y).all(axis=0))
    if bad.size:
        raise DataError(f"y contains non-finite entries (column {bad[0]})")
    zero = np.flatnonzero(~Y.any(axis=0))
    if zero.size:
        raise ParameterError(f"test sample must be nonzero (column {zero[0]})")
    return Y


def as_sample(y, m):
    """One test sample, a 1-D ``y``, checked by ``as_samples`` as m x 1."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise DimensionError(f"y must be 1-D, got ndim={y.ndim}")
    return as_samples(y[:, None], m)


def _group_rows(B):
    """The height of each GEMM of ``_row_products`` by B: ``GEMM_ROWS``
    when B holds fewer than 2^16 values (512 KiB), else 4 times that. It
    depends on B alone, so every product by B has one shape. OpenBLAS
    packs all of B once per call, and on one thread 64-row groups took
    0.60-0.81 times as long as 16-row groups by a B of 65,536 to 612,864
    values (100 to 1,000 rows), but 1.08-2.54 times as long by one of
    16,128 to 48,000 values (20 to 304 rows)."""
    return GEMM_ROWS if B.size < 1 << 16 else 4 * GEMM_ROWS


def _row_products(A, B):
    """``A @ B`` for the rows of A (w x p, any layout): one batched GEMM
    over groups of exactly ``_group_rows(B)`` rows, the last padded with
    zeros. Every coder and residual rule multiplies test samples (or
    their codes) by X, a class block or a fitted operator this way. Each
    BLAS call by B has one shape, so row i of the result is bitwise the
    same whatever w and the other rows; one GEMM over all w rows would
    not do, as OpenBLAS picks its kernel, and so its rounding, by the
    product's size. A lone row pays for a whole group: by a 504 x 1216 X,
    1.7 ms in a 64-row group against 0.75 ms in a 16-row group. B is
    fastest row-major, such as the transpose of a column-major matrix."""
    w, p = A.shape
    g = _group_rows(B)
    padded = np.empty((-(-w // g), g, p))
    rows = padded.reshape(-1, p)
    rows[:w] = A
    rows[w:] = 0.0
    return np.matmul(padded, B).reshape(-1, B.shape[1])[:w]


def _residual_norms(X, Yr, A):
    """||y - X a|| for the samples and codes in the rows of Yr and A."""
    R = _row_products(A, X.T)
    R -= Yr  # the negated residual, in place
    return np.sqrt(np.einsum("rm,rm->r", R, R))


def check_labels(labels, C):
    """The one check of dense labels: ``labels`` as an int64 array when C
    is an integer >= 1 and the labels are a nonempty 1-D vector of
    integers in 1..C in which every class appears; DatasetError, naming
    the first bad value, otherwise. A label such as 1.7, True, "1" or
    1+0j is rejected, not truncated or read as 1. Unless labels is an
    integer or float array, each entry must be a real number, not a bool:
    ``np.asarray([1, True])`` is an int array and float64 parses text."""
    check_integer("C", C, 1, DatasetError)
    if not (isinstance(labels, np.ndarray) and labels.dtype.kind in "iuf"):
        for v in np.array(labels, dtype=object).flat:
            if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
                v = v.item() if isinstance(v, np.generic) else v
                raise DatasetError(f"label {v!r} is not an integer")
    a = np.asarray(labels)
    if a.dtype.kind not in "biu":
        f = a.astype(np.float64)
        bad = ~((np.abs(f) < 2.0**62) & (f == np.trunc(f)))
        if bad.any():
            raise DatasetError(f"label {a[bad].flat[0]} is not an integer")
        a = f
    labels = a.astype(np.int64, copy=False)
    if labels.ndim != 1 or labels.size == 0:
        raise DatasetError("labels must be a nonempty 1-D sequence")
    outside = (labels < 1) | (labels > C)
    if outside.any():
        raise DatasetError(f"label {labels[outside][0]} outside 1..{C}")
    empty = np.bincount(labels, minlength=C + 1)[1:] == 0
    if empty.any():
        raise DatasetError(f"class {int(np.flatnonzero(empty)[0]) + 1} has no samples")
    return labels


def check_param(name, value, zero_ok=False, error=ParameterError):
    """Raise ``error`` unless ``value`` is a number (not a bool), finite
    and > 0 (>= 0 if ``zero_ok``)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    if not (math.isfinite(value) and (value >= 0 if zero_ok else value > 0)):
        bound = ">=" if zero_ok else ">"
        raise error(f"{name} must be finite and {bound} 0, got {value}")


def check_integer(name, value, minimum=None, error=ParameterError):
    """Raise ``error`` unless ``value`` is an integer (not a bool), and at
    least ``minimum`` when one is given."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or minimum is not None and value < minimum
    ):
        bound = "" if minimum is None else f" >= {minimum}"
        raise error(f"{name} must be an integer{bound}, got {value!r}")


def class_slices(class_sizes, n, what):
    """The column slices of contiguous class blocks of ``class_sizes``.
    Each size must be an integer >= 1 (DatasetError) and they must sum to
    ``n`` (DimensionError, ending with ``what``)."""
    slices = []
    start = 0
    for i, size in enumerate(class_sizes):
        check_integer(f"size of class {i + 1}", size, 1, error=DatasetError)
        end = start + int(size)
        slices.append(slice(start, end))
        start = end
    if start != n:
        raise DimensionError(f"class sizes sum to {start} but {what}")
    return slices


def gram(X):
    """Gram matrix G with G[p, q] = column_p . column_q.

    numpy computes ``X.T @ X`` of one buffer with a symmetric rank-k update
    (BLAS syrk) and copies one triangle into the other, so the result is
    exactly symmetric (bitwise equal across the diagonal). Its transpose,
    a view, is then the same matrix column-major, like X, with no copy.
    """
    X = as_mat(X, "X")
    return (X.T @ X).T


def spd_solve(A, B):
    """Solve A S = B for a symmetric positive definite k x k A and a k x r B.

    ``np.linalg.cholesky`` factors A = L L^T, and is the check that A is
    positive definite. L^-1 is formed by halves (``_tril_inverse``) and
    applied twice, S = L^-T (L^-1 B), as two GEMMs. The inverse of A,
    L^-T L^-1, is never formed: at cond(A) = 1e13 a solve through it
    failed the residual check even after refinement, where L^-1 applied
    twice left residuals below 1e-12 (see README.md).

    The residual is checked, ||A S - B||_F <= SOLVE_RTOL * ||B||_F, and a
    solve that falls short gets one step of iterative refinement through
    the same two GEMMs; a residual that is not finite fails the check. An
    A that is not positive definite raises SingularMatrixError naming its
    failing pivot. The operands are scanned for non-finite entries
    (DataError) only when the solve fails, since a non-finite entry makes
    it fail. S has the layout the GEMMs give it (row-major); a caller that
    needs another layout makes it.

    Memory: besides A, B and L^-1 (L is dropped once L^-1 is formed), the
    solve holds two arrays of B's size at a time: S with ``L^-1 B``, then S
    with the residual, ``A S`` less B in one buffer. Refinement corrects S
    and that residual in place.
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise DimensionError(f"A must be square, 2-D and nonempty, got shape {A.shape}")
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise DimensionError(f"B must be 2-D, got ndim={B.ndim}")
    if B.shape[0] != A.shape[0] or B.size == 0:
        raise DimensionError(f"B must be nonempty with the rows of A {A.shape}, got shape {B.shape}")

    def fail(error):
        _check_finite(A, "A")
        _check_finite(B, "B")
        raise error

    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        pivot = _failing_pivot(A)
        fail(SingularMatrixError(
            f"matrix is not positive definite: pivot {pivot} failed", pivot=pivot,
        ))

    # overflow and NaN show as a residual that fails the check, not as
    # RuntimeWarnings; the residual must be finite also when ||B|| is not
    with np.errstate(over="ignore", invalid="ignore"):
        inv = _tril_inverse(L)
        del L
        S = inv.T @ (inv @ B)
        norm_b = _frobenius(B)
        bound = SOLVE_RTOL * norm_b
        R = A @ S
        R -= B  # the negated residual, in place
        norm = _frobenius(R)
        if not (np.isfinite(norm) and norm <= bound):
            S -= inv.T @ (inv @ R)
            np.matmul(A, S, out=R)
            R -= B
            norm = _frobenius(R)
            if not (np.isfinite(norm) and norm <= bound):
                fail(NumericalError(
                    f"SPD solve residual exceeds tolerance after refinement "
                    f"({norm:.3e} > {SOLVE_RTOL:.0e} * {norm_b:.3e})"
                ))
    return S


def _frobenius(a):
    """The Frobenius norm of the matrix ``a``, in one pass without the
    temporary that ``np.linalg.norm`` makes."""
    return np.sqrt(np.einsum("ij,ij->", a, a))


def _tril_inverse(L):
    """The inverse of the lower-triangular k x k L, by halves: the inverse
    of [[L11, 0], [L21, L22]] is [[L11^-1, 0], [-L22^-1 L21 L11^-1, L22^-1]].
    A diagonal block of at most 32 rows is inverted by ``np.linalg.inv``;
    the rest is GEMMs."""
    k = L.shape[0]
    if k <= 32:
        return np.linalg.inv(L)
    h = k // 2
    inv11 = _tril_inverse(L[:h, :h])
    inv22 = _tril_inverse(L[h:, h:])
    inv = np.zeros(L.shape)
    inv[:h, :h] = inv11
    inv[h:, h:] = inv22
    inv[h:, :h] = -(inv22 @ (L[h:, :h] @ inv11))
    return inv


def _failing_pivot(A):
    """The failing pivot (0-based) of the k x k A, which is not positive
    definite: the leading block whose Cholesky factorization fails first,
    found by bisection."""
    ok, fails = 0, A.shape[0]  # sizes of leading blocks that factor, fail
    while fails - ok > 1:
        mid = (ok + fails) // 2
        if _factors(A[:mid, :mid]):
            ok = mid
        else:
            fails = mid
    return fails - 1


def _factors(M):
    """Whether the Cholesky factorization of M succeeds."""
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return False
    return True


class Dictionary:
    """A dictionary X (columns are atoms) checked once, with what coding
    needs from it alone, each computed on first use: ``unit_norms``, the
    sparse coders' check of X; ``G = gram(X)``, which OMP and the m >= n
    dense fits read; the l1 step bound ``lipschitz`` = 2 lambda_max(X^T X),
    from the smaller of X X^T and G, so with m < n no n x n matrix is built.
    ``X`` and ``G`` are read-only; the caller's array stays writeable."""

    def __init__(self, X):
        self.X = _frozen_array(as_mat(X, "X"))

    @functools.cached_property
    def unit_norms(self):
        """X's column norms, read once: NormalizationError names the first
        that is not 1 within ``UNIT_NORM_TOL``."""
        norms = np.sqrt(np.einsum("mn,mn->n", self.X, self.X))
        bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_NORM_TOL)
        if bad.size:
            raise NormalizationError(f"columns must be unit-normalized; column {bad[0]} "
                                     f"has norm {norms[bad[0]]:.6g}")
        return _frozen_array(norms)

    @functools.cached_property
    def G(self):
        return _frozen_array(gram(self.X))

    @functools.cached_property
    def lipschitz(self):
        m, n = self.X.shape
        small = self.X @ self.X.T if m < n else self.G  # X @ X.T is one syrk
        return 2.0 * float(np.linalg.eigvalsh(small)[-1])


def as_dictionary(X):
    """``X`` itself when it is a Dictionary, else ``Dictionary(X)``."""
    return X if isinstance(X, Dictionary) else Dictionary(X)
