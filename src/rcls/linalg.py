"""Dense linear algebra: checked arrays and dictionaries, Gram, SPD solves.

Everything is 64-bit floating point. Matrices are stored column-major so a
sample (one column) is contiguous. Inverses are never formed explicitly;
systems are solved through a Cholesky factorization.
"""

import functools

import numpy as np
from scipy.linalg import lapack

from .errors import (
    DataError,
    DatasetError,
    DimensionError,
    NumericalError,
    ParameterError,
    SingularMatrixError,
)

# Relative Frobenius residual an SPD solve must achieve.
SOLVE_RTOL = 1e-8


def _frozen_array(a):
    """A read-only view of ``a``, for the fields of frozen records; the
    caller's array stays writeable."""
    a = np.asarray(a).view()
    a.setflags(write=False)
    return a


def as_mat(a, name="matrix"):
    """Validate and return ``a`` as a float64 column-major 2-D array.

    Rejects empty shapes and non-finite entries.
    """
    m = np.asfortranarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.shape[0] == 0 or m.shape[1] == 0:
        raise DimensionError(f"{name} must be nonempty, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise DataError(f"{name} contains non-finite entries")
    return m


def as_vec(a, name="vector"):
    """Validate and return ``a`` as a finite float64 1-D array."""
    v = np.ascontiguousarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionError(f"{name} must be 1-D, got ndim={v.ndim}")
    if v.shape[0] == 0:
        raise DimensionError(f"{name} must be nonempty")
    if not np.isfinite(v).all():
        raise DataError(f"{name} contains non-finite entries")
    return v


def as_samples(Y, m):
    """Test samples, the columns of ``Y``, checked once for the batch: a
    float64 column-major m x N matrix, finite and with no zero column. The
    error for a bad sample names its column."""
    Y = np.asfortranarray(Y, dtype=np.float64)
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


def as_labels(labels):
    """``labels`` as an int64 array; a value that is not an integer raises
    DatasetError instead of being truncated."""
    a = np.asarray(labels)
    if a.dtype.kind not in "biu":
        f = a.astype(np.float64)
        bad = ~((np.abs(f) < 2.0**62) & (f == np.trunc(f)))
        if bad.any():
            raise DatasetError(f"label {a[bad].flat[0]} is not an integer")
        a = f
    return a.astype(np.int64, copy=False)


def gram(X):
    """Gram matrix G with G[p, q] = column_p . column_q.

    numpy computes ``X.T @ X`` of one buffer with a symmetric rank-k update
    (BLAS syrk) and copies one triangle into the other, so the result is
    exactly symmetric (bitwise equal across the diagonal).
    """
    X = as_mat(X, "X")
    return np.asfortranarray(X.T @ X)


def spd_solve(A, B):
    """Solve A S = B for symmetric positive definite A.

    Uses a Cholesky factorization (never an explicit inverse) and verifies
    the residual ||A S - B||_F <= SOLVE_RTOL * ||B||_F, applying one step of
    iterative refinement if the first solve falls short. ``B`` is a matrix.
    """
    A = as_mat(A, "A")
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"A must be square, got shape {A.shape}")
    B = as_mat(B, "B")
    if B.shape[0] != A.shape[0]:
        raise DimensionError(
            f"A has {A.shape[0]} rows but B has {B.shape[0]}"
        )

    c, info = lapack.dpotrf(A, lower=1)
    if info > 0:
        raise SingularMatrixError(
            f"matrix is not positive definite: pivot {info - 1} failed",
            pivot=info - 1,
        )
    if info < 0:
        raise SingularMatrixError(f"dpotrf: illegal argument {-info}")

    S, info = lapack.dpotrs(c, B, lower=1)
    if info != 0:
        raise SingularMatrixError(f"dpotrs failed with info={info}")

    norm_b = np.linalg.norm(B)
    resid = B - A @ S
    if np.linalg.norm(resid) > SOLVE_RTOL * norm_b:
        dS, info = lapack.dpotrs(c, resid, lower=1)
        if info == 0:
            S = S + dS
            resid = B - A @ S
        if np.linalg.norm(resid) > SOLVE_RTOL * norm_b:
            raise NumericalError(
                "SPD solve residual exceeds tolerance after refinement "
                f"({np.linalg.norm(resid):.3e} > {SOLVE_RTOL:.0e} * {norm_b:.3e})"
            )
    return np.asfortranarray(S)


class Dictionary:
    """A dictionary X (columns are atoms) checked once, with what coding
    needs from it alone: ``G = gram(X)``, built on construction, and the l1
    step bound ``lipschitz`` = 2 * lambda_max(G), computed on first use.
    ``X`` and ``G`` are read-only; the caller's array stays writeable."""

    def __init__(self, X):
        X = as_mat(X, "X")
        self.X = _frozen_array(X)
        self.G = _frozen_array(gram(X))

    @functools.cached_property
    def lipschitz(self):
        return 2.0 * float(np.linalg.eigvalsh(self.G)[-1])


def as_dictionary(X):
    """``X`` itself when it is a Dictionary, else ``Dictionary(X)``."""
    return X if isinstance(X, Dictionary) else Dictionary(X)
