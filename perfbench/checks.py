"""Oracles and correctness checks for the rcls benchmark.

Everything here is written from the documented behaviour of rcls, not from
its code, and uses only numpy and the standard library: the data generator
and split, the two file formats, the normal equations of the dense coders
(ProCRC's built from the paper's sum of masked per-class terms), the
residual rules, a greedy replay of OMP and exact per-class score sums.

Each ``check_*`` function raises ``CheckError`` on a wrong answer and
returns nothing otherwise.
"""

import math
import struct

import numpy as np

# Relative tolerance for a dense code against the benchmark's own solve.
CODE_RTOL = 1e-6
# Two class scores closer than this (relative) are a near tie; such samples
# may be decided either way without failing the accuracy check.
TIE_RTOL = 1e-9
# Absolute tolerance for orthogonality, unit norm and greedy-replay checks
# on unit-norm data.
ORTHO_ATOL = 1e-8


class CheckError(AssertionError):
    """The program's output disagrees with the benchmark's oracle."""


def _fail(msg):
    raise CheckError(msg)


# --- inputs -----------------------------------------------------------------

def synth(C, m, s, per_class, sigma, seed):
    """Per-class random subspace cones, columns grouped by class: an
    orthonormal basis (QR of a Gaussian m x s block), uniform [0, 1)
    coefficients, plus Gaussian noise of scale ``sigma``; one PCG64 stream
    drawn in that order, class by class."""
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(C):
        basis, _ = np.linalg.qr(rng.standard_normal((m, s)))
        block = basis @ rng.uniform(0.0, 1.0, (s, per_class))
        if sigma > 0:
            block = block + sigma * rng.standard_normal(block.shape)
        blocks.append(block)
    labels = np.repeat(np.arange(1, C + 1), per_class)
    return np.asfortranarray(np.hstack(blocks)), labels


def split(labels, C, per_class_train, seed):
    """Seeded split: for each class in turn, a PCG64 permutation of its
    members; the first ``per_class_train`` (sorted) train, the rest test."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for c in range(1, C + 1):
        perm = rng.permutation(np.flatnonzero(labels == c))
        train.append(np.sort(perm[:per_class_train]))
        test.append(np.sort(perm[per_class_train:]))
    return np.concatenate(train), np.concatenate(test)


def normalize(X):
    return X / np.linalg.norm(X, axis=0)[None, :]


# --- file formats -------------------------------------------------------------

def write_rcls(path, X, labels, C):
    """RCLS binary: b"RCLS", u32 version 1, u32 m, n, C, n u32 labels, then
    m*n float64 values column-major, all little-endian."""
    m, n = X.shape
    with open(path, "wb") as fh:
        fh.write(b"RCLS" + struct.pack("<IIII", 1, m, n, C))
        fh.write(np.asarray(labels, dtype="<u4").tobytes())
        fh.write(np.asarray(X, dtype="<f8").tobytes(order="F"))


def write_csv(path, X, labels):
    """One row per sample: integer label, then repr() of each feature."""
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(X.shape[1]):
            fh.write(",".join([str(int(labels[j]))] + [repr(v) for v in X[:, j].tolist()]))
            fh.write("\n")


def read_csv(path):
    """Parse a headerless label-first CSV into (labels, X with samples as
    columns)."""
    labels, rows = [], []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.rstrip("\n").split(",")
            try:
                labels.append(int(fields[0]))
                rows.append([float(f) for f in fields[1:]])
            except ValueError:
                _fail(f"{path}: line {lineno} does not parse")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        _fail(f"{path}: rows have differing widths {sorted(widths)}")
    return np.array(labels, dtype=np.int64), np.array(rows, dtype=np.float64).T


# --- dense coders and residual rules -----------------------------------------

def class_slices(sizes):
    edges = np.concatenate([[0], np.cumsum(sizes)])
    return [slice(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:])]


def crc_codes(X, Y, lam):
    """Solve (X^T X + lam I) A = X^T Y by LU."""
    G = X.T @ X
    return np.linalg.solve(G + lam * np.eye(G.shape[0]), X.T @ Y)


def procrc_codes(X, sizes, Y, lam, gamma):
    """Solve the ProCRC normal equations

        (X^T X + (gamma/C) sum_i M_i X^T X M_i + lam I) A = X^T Y,

    where M_i zeroes class i's atoms: the gradient of the paper's objective
    ||y - X a||^2 + (gamma/C) sum_i ||X a - X_i a_i||^2 + lam ||a||^2."""
    G = X.T @ X
    n, C = G.shape[0], len(sizes)
    S = np.zeros_like(G)
    for sl in class_slices(sizes):
        masked = G.copy()  # M_i G M_i: class i's rows and columns zeroed
        masked[sl, :] = 0.0
        masked[:, sl] = 0.0
        S += masked
    return np.linalg.solve(G + (gamma / C) * S + lam * np.eye(n), X.T @ Y)


def residual_scores(X, sizes, Y, A, regularized):
    """C x N class scores ||y - X_i a_i||, divided by ||a_i|| when
    ``regularized`` (a zero block scores +inf)."""
    out = np.empty((len(sizes), Y.shape[1]))
    for i, sl in enumerate(class_slices(sizes)):
        out[i] = np.linalg.norm(Y - X[:, sl] @ A[sl], axis=0)
        if regularized:
            nrm = np.linalg.norm(A[sl], axis=0)
            with np.errstate(divide="ignore"):
                out[i] = np.where(nrm > 0, out[i] / nrm, np.inf)
    return out


def argmin_decisions(scores):
    """1-based argmin per column (lowest index on ties) and a mask of near
    ties: columns whose two smallest scores are within TIE_RTOL."""
    pred = np.argmin(scores, axis=0) + 1
    two = np.sort(scores, axis=0)[:2]
    near = (two[1] - two[0]) <= TIE_RTOL * np.abs(two[0])
    return pred, near


# --- checks -----------------------------------------------------------------

def check_same_data(name, X_prog, labels_prog, X_own, labels_own):
    """The program's dataset equals the benchmark's own generation."""
    if X_prog.shape != X_own.shape:
        _fail(f"{name}: shape {X_prog.shape} != {X_own.shape}")
    if not np.array_equal(np.asarray(labels_prog), labels_own):
        _fail(f"{name}: labels differ")
    if not np.allclose(X_prog, X_own, rtol=1e-12, atol=1e-15):
        _fail(f"{name}: values differ by {np.max(np.abs(X_prog - X_own)):.3g}")


def check_dense_codes(name, A_prog, A_own):
    """Each column of A_prog matches the benchmark's own solve."""
    if A_prog.shape != A_own.shape:
        _fail(f"{name}: code shape {A_prog.shape} != {A_own.shape}")
    err = np.max(np.abs(A_prog - A_own), axis=0)
    scale = np.max(np.abs(A_own), axis=0)
    bad = np.flatnonzero(err > CODE_RTOL * scale)
    if bad.size:
        j = int(bad[0])
        _fail(f"{name}: code of test sample {j} off by {err[j]:.3g} "
              f"(scale {scale[j]:.3g})")


def check_accuracy(name, reported_pct, own_pred, truth, near_tie):
    """The reported accuracy (percent) equals the benchmark's own count of
    correct decisions, up to the samples decided within a near tie."""
    n = len(truth)
    correct = reported_pct * n / 100.0
    if abs(correct - round(correct)) > 1e-6 * n:
        _fail(f"{name}: {reported_pct}% is not a whole count of {n} samples")
    own = int(np.sum(own_pred == truth))
    slack = int(np.sum(near_tie))
    if abs(round(correct) - own) > slack:
        _fail(f"{name}: reported {round(correct)}/{n} correct, "
              f"benchmark counts {own} (near ties {slack})")


def check_sa_sample(name, X, sizes, y, k, support, sparse, dense, dense_own,
                    fused, scores, predicted, dense_only=False):
    """One sparsity-augmented classification, step by step.

    The OMP support has at most k distinct atoms and each atom attained the
    largest |correlation| with the residual when it was chosen (greedy
    replay); the sparse coefficients are the least-squares fit on the
    support, so the residual is orthogonal to the selected atoms; the dense
    code matches the own solve; the fused code is the unit-normalized sum;
    the scores are the exact per-class sums; the winner is their argmax.
    """
    support = [int(j) for j in support]
    if not 1 <= len(support) <= k or len(set(support)) != len(support):
        _fail(f"{name}: support of {len(support)} atoms (k={k}) or repeats")
    off = np.setdiff1d(np.arange(X.shape[1]), support)
    if np.any(sparse[off] != 0.0):
        _fail(f"{name}: sparse code is nonzero off its support")
    for i, j in enumerate(support):
        S = support[:i]
        r = y - X[:, S] @ np.linalg.lstsq(X[:, S], y, rcond=None)[0] if S else y
        corr = np.abs(X.T @ r)
        corr[S] = -1.0
        if corr[j] < corr.max() - ORTHO_ATOL:
            _fail(f"{name}: step {i} chose atom {j} (|corr| {corr[j]:.6g}) "
                  f"over atom {int(np.argmax(corr))} ({corr.max():.6g})")
    ls = np.linalg.lstsq(X[:, support], y, rcond=None)[0]
    if not np.allclose(sparse[support], ls, rtol=1e-6, atol=1e-9):
        _fail(f"{name}: sparse coefficients are not the least-squares fit")
    resid = y - X @ sparse
    if np.max(np.abs(X[:, support].T @ resid)) > ORTHO_ATOL:
        _fail(f"{name}: residual is not orthogonal to the selected atoms")
    check_dense_codes(name + " dense", dense[:, None], dense_own[:, None])
    if abs(np.linalg.norm(fused) - 1.0) > 1e-12:
        _fail(f"{name}: fused code has norm {np.linalg.norm(fused)!r}")
    s = dense if dense_only else sparse + dense
    if not np.allclose(fused, s / np.linalg.norm(s), rtol=1e-9, atol=1e-15):
        _fail(f"{name}: fused code is not the normalized sum of the codes")
    exact = [math.fsum(fused[sl]) for sl in class_slices(sizes)]
    if list(np.asarray(scores, dtype=float)) != exact:
        _fail(f"{name}: class scores are not the exact per-class sums")
    if predicted != int(np.argmax(exact)) + 1:
        _fail(f"{name}: predicted class {predicted}, argmax is "
              f"{int(np.argmax(exact)) + 1}")


def check_src_sample(name, X, sizes, y, code, epsilon, warned, predicted):
    """The l1 code meets the residual target or a ConvergenceWarning was
    issued, and the winner is the argmin of the class residuals."""
    res = float(np.linalg.norm(y - X @ code))
    if res > epsilon * (1 + 1e-9) and not warned:
        _fail(f"{name}: residual {res:.4g} > epsilon {epsilon} without a warning")
    scores = residual_scores(X, sizes, y[:, None], code[:, None], False)[:, 0]
    pred, near = argmin_decisions(scores[:, None])
    if predicted != pred[0] and not near[0]:
        _fail(f"{name}: predicted class {predicted}, argmin is {pred[0]}")


def check_csv_roundtrip(name, path, X_src, labels_src):
    """A CSV written by the program parses back bit for bit."""
    labels, X = read_csv(path)
    if not np.array_equal(labels, labels_src):
        _fail(f"{name}: labels differ from the source")
    if X.shape != X_src.shape:
        _fail(f"{name}: shape {X.shape} != source {X_src.shape}")
    if not np.array_equal(X.view(np.uint64), np.asarray(X_src, dtype=np.float64).view(np.uint64)):
        _fail(f"{name}: values are not bit-exact against the source")


def check_classify_output(name, stdout, test_labels, label_space, library_preds):
    """``rcls classify`` output: one label per test row, from the train
    file's label space, equal to the library's predictions, then an
    accuracy line that equals the benchmark's own count of matches."""
    lines = stdout.splitlines()
    n = len(test_labels)
    if len(lines) != n + 1:
        _fail(f"{name}: {len(lines)} lines for {n} test rows")
    try:
        preds = [int(t) for t in lines[:n]]
    except ValueError:
        _fail(f"{name}: a prediction line is not an integer label")
    outside = set(preds) - set(label_space)
    if outside:
        _fail(f"{name}: labels {sorted(outside)} are not in the label space")
    if preds != [int(p) for p in library_preds]:
        _fail(f"{name}: predictions differ from the library's")
    own = sum(int(p == t) for p, t in zip(preds, test_labels))
    if lines[n] != f"accuracy: {100.0 * own / n:.2f}":
        _fail(f"{name}: {lines[n]!r}, benchmark counts {own}/{n}")


def check_compare_output(name, stdout, reports):
    """Each ``rcls compare`` table row equals the library's report for the
    same config: (method, mean, std, trials, base_seed)."""
    rows = stdout.splitlines()[1:]
    if len(rows) != len(reports):
        _fail(f"{name}: {len(rows)} rows for {len(reports)} methods")
    for row, rep in zip(rows, reports):
        f = row.split()
        want = (rep["method"], rep["mean"], rep["std"], rep["trials"], rep["base_seed"])
        try:
            got = (f[0], float(f[1]), float(f[2]), int(f[3]), int(f[4]))
        except (IndexError, ValueError):
            _fail(f"{name}: row {row!r} does not parse")
        if (got[0], got[3], got[4]) != (want[0], want[3], want[4]) or any(
            abs(g - w) > 0.005 + 1e-9 for g, w in zip(got[1:3], want[1:3])
        ):
            _fail(f"{name}: row {row!r} != library {want}")
