"""Dense linear algebra: checked arrays and dictionaries, Gram, SPD solves.

Everything is 64-bit floating point. Matrices are stored column-major so a
sample (one column) is contiguous. Inverses are never formed explicitly;
systems are solved through a Cholesky factorization.
"""

import functools

import numpy as np
from scipy.linalg import lapack

from .errors import DataError, DimensionError, SingularMatrixError, NumericalError

# Relative Frobenius residual an SPD solve must achieve.
SOLVE_RTOL = 1e-8


def _frozen_array(a):
    """``a`` as an array marked read-only, for the fields of frozen records."""
    a = np.asarray(a)
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


def gram(X):
    """Gram matrix G with G[p, q] = column_p . column_q.

    One triangle is computed and mirrored, so the result is exactly
    symmetric (bitwise equal across the diagonal).
    """
    X = as_mat(X, "X")
    G = X.T @ X
    G = np.triu(G) + np.triu(G, 1).T
    return np.asfortranarray(G)


def spd_solve(A, B):
    """Solve A S = B for symmetric positive definite A.

    Uses a Cholesky factorization (never an explicit inverse) and verifies
    the residual ||A S - B||_F <= SOLVE_RTOL * ||B||_F, applying one step of
    iterative refinement if the first solve falls short.

    ``B`` may be a vector or a matrix; the result has the same ndim.
    """
    A = as_mat(A, "A")
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"A must be square, got shape {A.shape}")
    b_was_vec = np.ndim(B) == 1
    Bm = as_mat(B[:, None] if b_was_vec else B, "B")
    if Bm.shape[0] != A.shape[0]:
        raise DimensionError(
            f"A has {A.shape[0]} rows but B has {Bm.shape[0]}"
        )

    c, info = lapack.dpotrf(A, lower=1)
    if info > 0:
        raise SingularMatrixError(
            f"matrix is not positive definite: pivot {info - 1} failed",
            pivot=info - 1,
        )
    if info < 0:
        raise SingularMatrixError(f"dpotrf: illegal argument {-info}")

    S, info = lapack.dpotrs(c, Bm, lower=1)
    if info != 0:
        raise SingularMatrixError(f"dpotrs failed with info={info}")

    norm_b = np.linalg.norm(Bm)
    resid = Bm - A @ S
    if np.linalg.norm(resid) > SOLVE_RTOL * norm_b:
        dS, info = lapack.dpotrs(c, resid, lower=1)
        if info == 0:
            S = S + dS
            resid = Bm - A @ S
        if np.linalg.norm(resid) > SOLVE_RTOL * norm_b:
            raise NumericalError(
                "SPD solve residual exceeds tolerance after refinement "
                f"({np.linalg.norm(resid):.3e} > {SOLVE_RTOL:.0e} * {norm_b:.3e})"
            )
    return S[:, 0] if b_was_vec else np.asfortranarray(S)


class Dictionary:
    """A dictionary X (columns are atoms) checked once, with what coding
    needs from it alone: ``G = gram(X)``, built on construction, and the l1
    step bound ``lipschitz`` = 2 * lambda_max(G), computed on first use.
    ``X`` and ``G`` are read-only; the caller's array stays writeable."""

    def __init__(self, X):
        X = as_mat(X, "X")
        self.X = _frozen_array(X.view())
        self.G = _frozen_array(gram(X))

    @functools.cached_property
    def lipschitz(self):
        return 2.0 * float(np.linalg.eigvalsh(self.G)[-1])


def as_dictionary(X):
    """``X`` itself when it is a Dictionary, else ``Dictionary(X)``."""
    return X if isinstance(X, Dictionary) else Dictionary(X)
