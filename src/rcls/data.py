"""Dataset ingestion, normalization, random projection, splitting, synthesis.

Samples are stored as columns of a column-major float64 matrix. Labels are
dense 1..C integers; files with arbitrary integer labels are remapped in
first-appearance order and the mapping is recorded.

All randomized operations draw from numpy's default generator (PCG64),
seeded explicitly, so every result is a pure function of (inputs, seed).
"""

import csv
import os
import secrets
import struct
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DataError,
    DatasetError,
    FormatError,
    ParameterError,
    ParseError,
)
from .linalg import _frozen_array, as_labels, as_mat

BIN_MAGIC = b"RCLS"
BIN_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    """Feature matrix X (m x n, columns are samples) with 1..C labels.

    ``label_mapping[i]`` records the original label value that was remapped
    to dense label i+1, when the dataset came from a file.
    """

    X: np.ndarray
    labels: np.ndarray
    C: int
    label_mapping: tuple | None = None

    def __post_init__(self):
        X = as_mat(self.X, "X")
        labels = as_labels(self.labels)
        if labels.ndim != 1 or labels.size != X.shape[1]:
            raise DatasetError(
                f"need one label per sample: {labels.size} labels, "
                f"{X.shape[1]} samples"
            )
        if labels.min() < 1 or labels.max() > self.C:
            raise DatasetError(f"labels must lie in 1..{self.C}")
        counts = np.bincount(labels, minlength=self.C + 1)
        if (counts[1:self.C + 1] == 0).any():
            missing = int(np.flatnonzero(counts[1:self.C + 1] == 0)[0]) + 1
            raise DatasetError(f"class {missing} has no samples")
        object.__setattr__(self, "X", _frozen_array(X))
        object.__setattr__(self, "labels", _frozen_array(labels))

    @property
    def m(self):
        return self.X.shape[0]

    @property
    def n(self):
        return self.X.shape[1]

    @property
    def class_sizes(self):
        counts = np.bincount(self.labels, minlength=self.C + 1)
        return tuple(int(c) for c in counts[1:])


@dataclass(frozen=True)
class Split:
    """Disjoint train/test column indices; the train indices are grouped by
    class."""

    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        train = np.asarray(self.train_indices, dtype=np.int64)
        test = np.asarray(self.test_indices, dtype=np.int64)
        if np.intersect1d(train, test).size:
            raise DatasetError("train and test indices overlap")
        object.__setattr__(self, "train_indices", _frozen_array(train))
        object.__setattr__(self, "test_indices", _frozen_array(test))


@dataclass(frozen=True)
class SynthSpec:
    """Per-class random-subspace generator settings."""

    C: int
    ambient_dim: int
    subspace_dim: int
    per_class: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.C < 1 or self.per_class < 1:
            raise ParameterError("C and per_class must be >= 1")
        if not 1 <= self.subspace_dim <= self.ambient_dim:
            raise ParameterError(
                f"subspace_dim must be in [1, {self.ambient_dim}], "
                f"got {self.subspace_dim}"
            )
        if self.noise_sigma < 0:
            raise ParameterError(f"noise_sigma must be >= 0, got {self.noise_sigma}")


def atomic_write_bytes(path, payload):
    """Write ``payload`` to ``path`` through a temp file + rename so a failed
    run never leaves a partial artifact.

    The file gets mode 0666 less the umask, as ``open`` would give it.
    """
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".rcls-tmp-{os.getpid()}-{secrets.token_hex(8)}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_csv(path):
    """Load a dataset from CSV: one row per sample, integer label first.

    A header row is detected by a non-numeric first field. Labels are
    remapped to dense 1..C in first-appearance order; the original values
    are recorded in ``label_mapping``.
    """
    rows = []
    raw_labels = []
    n_features = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if lineno == 1:
                try:
                    float(row[0])
                except ValueError:
                    continue  # header row
            if len(row) < 2:
                raise ParseError(
                    f"line {lineno}: need a label and at least one feature",
                    line=lineno,
                )
            try:
                label = int(row[0])
            except ValueError:
                raise ParseError(
                    f"line {lineno}: label {row[0]!r} is not an integer",
                    line=lineno,
                ) from None
            feats = []
            for j, fieldtxt in enumerate(row[1:], start=2):
                try:
                    v = float(fieldtxt)
                except ValueError:
                    raise ParseError(
                        f"line {lineno}: field {j} ({fieldtxt!r}) is not a number",
                        line=lineno,
                    ) from None
                if not np.isfinite(v):
                    raise ParseError(
                        f"line {lineno}: field {j} is not finite", line=lineno
                    )
                feats.append(v)
            if n_features is None:
                n_features = len(feats)
            elif len(feats) != n_features:
                raise ParseError(
                    f"line {lineno}: expected {n_features} features, got {len(feats)}",
                    line=lineno,
                )
            raw_labels.append(label)
            rows.append(feats)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    mapping = []
    dense = []
    seen = {}
    for lab in raw_labels:
        if lab not in seen:
            seen[lab] = len(mapping) + 1
            mapping.append(lab)
        dense.append(seen[lab])
    X = np.asfortranarray(np.array(rows, dtype=np.float64).T)
    return Dataset(
        X=X,
        labels=np.array(dense, dtype=np.int64),
        C=len(mapping),
        label_mapping=tuple(mapping),
    )


def save_csv(dataset, path):
    """Write a dataset as CSV (rows are samples). Float values are written
    with repr so a round-trip is bit-exact. Original label values are used
    when a mapping is recorded."""
    lines = []
    for j in range(dataset.n):
        lab = int(dataset.labels[j])
        if dataset.label_mapping is not None:
            lab = dataset.label_mapping[lab - 1]
        fields = [str(lab)] + [repr(float(v)) for v in dataset.X[:, j]]
        lines.append(",".join(fields))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def load_bin(path):
    """Load the RCLS binary format.

    Layout: magic "RCLS", u32 version, u32 m/n/C, n u32 labels, then m*n
    float64 values in column-major order; all little-endian. Errors name
    the byte offset at which the problem was found.
    """
    with open(path, "rb") as fh:
        blob = fh.read()

    def need(offset, nbytes, what):
        if len(blob) < offset + nbytes:
            raise FormatError(
                f"truncated file: {what} needs {nbytes} bytes at offset "
                f"{offset}, file ends at {len(blob)}",
                offset=len(blob),
            )

    need(0, 4, "magic")
    if blob[:4] != BIN_MAGIC:
        raise FormatError(
            f"bad magic {blob[:4]!r} at offset 0 (expected {BIN_MAGIC!r})",
            offset=0,
        )
    need(4, 4, "version")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != BIN_VERSION:
        raise FormatError(
            f"unsupported format version {version} at offset 4", offset=4
        )
    need(8, 12, "dimensions")
    m, n, C = struct.unpack_from("<III", blob, 8)
    if m == 0 or n == 0 or C == 0:
        raise FormatError(f"zero dimension (m={m}, n={n}, C={C}) at offset 8", offset=8)
    need(20, 4 * n, "labels")
    labels = np.frombuffer(blob, dtype="<u4", count=n, offset=20).astype(np.int64)
    payload_at = 20 + 4 * n
    need(payload_at, 8 * m * n, "sample values")
    end = payload_at + 8 * m * n
    if len(blob) != end:
        raise FormatError(
            f"trailing data at offset {end}: file has {len(blob) - end} extra bytes",
            offset=end,
        )
    values = np.frombuffer(blob, dtype="<f8", count=m * n, offset=payload_at)
    X = np.asfortranarray(values.reshape((m, n), order="F"))
    if labels.min() < 1 or labels.max() > C:
        bad = int(np.flatnonzero((labels < 1) | (labels > C))[0])
        raise FormatError(
            f"label {labels[bad]} outside 1..{C} at offset {20 + 4 * bad}",
            offset=20 + 4 * bad,
        )
    return Dataset(X=X, labels=labels, C=int(C))


def save_bin(dataset, path):
    """Write the RCLS binary format (see load_bin)."""
    header = BIN_MAGIC + struct.pack(
        "<IIII", BIN_VERSION, dataset.m, dataset.n, dataset.C
    )
    labels = np.ascontiguousarray(dataset.labels, dtype="<u4").tobytes()
    values = np.asfortranarray(dataset.X, dtype="<f8").tobytes(order="F")
    atomic_write_bytes(path, header + labels + values)


def normalize_columns(dataset):
    """Scale every sample to unit l2 norm."""
    norms = np.linalg.norm(dataset.X, axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"column {int(zero[0])} is zero and cannot be normalized")
    return replace(dataset, X=np.asfortranarray(dataset.X / norms[None, :]))


def random_project(dataset, target_dim, seed):
    """Project samples through a seeded Gaussian map R (target_dim x m)
    with entries N(0, 1)/sqrt(target_dim)."""
    if target_dim > dataset.m:
        raise ParameterError(
            f"target_dim {target_dim} exceeds feature dimension {dataset.m}"
        )
    if target_dim < 1:
        raise ParameterError(f"target_dim must be >= 1, got {target_dim}")
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((target_dim, dataset.m)) / np.sqrt(target_dim)
    return replace(dataset, X=np.asfortranarray(R @ dataset.X))


def split(dataset, per_class_train, seed):
    """Seeded uniform train/test split: exactly ``per_class_train`` training
    samples drawn without replacement from every class."""
    if per_class_train < 1:
        raise ParameterError(f"per_class_train must be >= 1, got {per_class_train}")
    rng = np.random.default_rng(seed)
    train_parts = []
    test_parts = []
    for c in range(1, dataset.C + 1):
        members = np.flatnonzero(dataset.labels == c)
        if members.size <= per_class_train:
            raise DatasetError(
                f"class {c} has {members.size} samples; needs more than "
                f"{per_class_train} to split"
            )
        perm = rng.permutation(members)
        train_parts.append(np.sort(perm[:per_class_train]))
        test_parts.append(np.sort(perm[per_class_train:]))
    return Split(
        train_indices=np.concatenate(train_parts),
        test_indices=np.concatenate(test_parts),
    )


def synth(spec):
    """Generate a dataset of per-class random subspace cones.

    Each class draws an orthonormal basis (QR of a seeded Gaussian block),
    samples nonnegative uniform coefficients in it, and adds isotropic
    Gaussian noise of scale ``noise_sigma``. Columns are grouped by class.

    The nonnegative coefficients make samples of one class positively
    correlated, the way vectorized image data behaves; coefficient-sum
    scores carry class information only under that structure.
    """
    rng = np.random.default_rng(spec.seed)
    blocks = []
    labels = []
    for c in range(1, spec.C + 1):
        basis, _ = np.linalg.qr(
            rng.standard_normal((spec.ambient_dim, spec.subspace_dim))
        )
        coeffs = rng.uniform(0.0, 1.0, (spec.subspace_dim, spec.per_class))
        block = basis @ coeffs
        if spec.noise_sigma > 0:
            block = block + spec.noise_sigma * rng.standard_normal(block.shape)
        blocks.append(block)
        labels.extend([c] * spec.per_class)
    X = np.asfortranarray(np.hstack(blocks))
    return Dataset(X=X, labels=np.array(labels, dtype=np.int64), C=spec.C)


def take_columns(dataset, indices):
    """Sub-dataset of the given columns, in the given order."""
    indices = np.asarray(indices, dtype=np.int64)
    return replace(
        dataset, X=np.asfortranarray(dataset.X[:, indices]), labels=dataset.labels[indices]
    )
