"""Dataset ingestion, normalization, random projection, splitting, synthesis.

Samples are stored as columns of a column-major float64 matrix, laid out
by ``Dataset`` alone (through ``linalg.as_mat``). Labels are dense 1..C
integers; files with arbitrary integer labels are remapped in
first-appearance order and the mapping is recorded.

All randomized operations draw from numpy's default generator (PCG64),
seeded explicitly, so every result is a pure function of (inputs, seed).
"""

import csv
import math
import numbers
import os
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
from .linalg import _frozen_array, as_mat, check_integer, check_labels, check_param

BIN_MAGIC = b"RCLS"
BIN_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    """Feature matrix X (m x n, columns are samples) with 1..C labels.

    C and the labels pass ``linalg.check_labels``, the check that
    ``build_label_matrix`` makes too, and there is one label per sample.
    ``label_mapping`` is None or a tuple of C distinct integers:
    ``label_mapping[i]`` is the file's label that was remapped to dense
    label i+1 (see ``original_label``).
    """

    X: np.ndarray
    labels: np.ndarray
    C: int
    label_mapping: tuple | None = None

    def __post_init__(self):
        labels = check_labels(self.labels, self.C)
        X = as_mat(self.X, "X")
        if labels.size != X.shape[1]:
            raise DatasetError(
                f"need one label per sample: {labels.size} labels, "
                f"{X.shape[1]} samples"
            )
        mapping = self.label_mapping
        if mapping is not None and not (
            isinstance(mapping, tuple)
            and len(mapping) == self.C
            and all(isinstance(v, numbers.Integral) and not isinstance(v, bool) for v in mapping)
            and len(set(mapping)) == self.C
        ):
            raise DatasetError(
                f"label_mapping must be None or a tuple of {self.C} distinct "
                f"integers, got {mapping!r}"
            )
        object.__setattr__(self, "X", _frozen_array(X))
        object.__setattr__(self, "labels", _frozen_array(labels))

    def original_label(self, label):
        """The file's label for dense label ``label`` (1..C): its
        ``label_mapping`` entry, or ``label`` itself without a mapping."""
        return int(label) if self.label_mapping is None else self.label_mapping[label - 1]

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
    """Disjoint train/test column indices, each an integer (not a bool)
    in int64's range and >= 0; the train indices are grouped by class."""

    train_indices: np.ndarray
    test_indices: np.ndarray

    def __post_init__(self):
        train = _column_indices(self.train_indices)
        test = _column_indices(self.test_indices)
        if np.intersect1d(train, test).size:
            raise DatasetError("train and test indices overlap")
        object.__setattr__(self, "train_indices", _frozen_array(train))
        object.__setattr__(self, "test_indices", _frozen_array(test))


@dataclass(frozen=True)
class SynthSpec:
    """Per-class random-subspace generator settings: counts are integers
    >= 1, the seed an integer >= 0 and ``noise_sigma`` finite and >= 0."""

    C: int
    ambient_dim: int
    subspace_dim: int
    per_class: int
    noise_sigma: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("C", "ambient_dim", "subspace_dim", "per_class"):
            check_integer(name, getattr(self, name), 1)
        if self.subspace_dim > self.ambient_dim:
            raise ParameterError(
                f"subspace_dim must be in [1, {self.ambient_dim}], "
                f"got {self.subspace_dim}"
            )
        check_param("noise_sigma", self.noise_sigma, zero_ok=True)
        check_integer("seed", self.seed, 0)


def atomic_write_bytes(path, payload):
    """Write ``payload`` to ``path`` through a temp file + rename so a failed
    run never leaves a partial artifact.

    The file gets mode 0666 less the umask, as ``open`` would give it.
    """
    path = os.fspath(path)
    d = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(d, f".rcls-tmp-{os.getpid()}-{os.urandom(8).hex()}")
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

    The file may start with a UTF-8 byte-order mark. A header is the first
    non-blank row when its first field is not a number. Labels are
    remapped to dense 1..C in first-appearance order; the original values
    are recorded in ``label_mapping``.
    """
    rows = []
    raw_labels = []
    n_features = None
    first = True
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if first:
                first = False
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
                if not math.isfinite(v):
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
    mapping = tuple(dict.fromkeys(raw_labels))
    dense = {lab: c for c, lab in enumerate(mapping, start=1)}
    X = np.array(rows, dtype=np.float64).T
    return Dataset(
        X=X,
        labels=np.array([dense[lab] for lab in raw_labels], dtype=np.int64),
        C=len(mapping),
        label_mapping=mapping,
    )


def save_csv(dataset, path):
    """Write a dataset as CSV (rows are samples). Float values are written
    with repr so a round-trip is bit-exact. Original label values are used
    when a mapping is recorded."""
    lines = []
    for j in range(dataset.n):
        fields = [str(dataset.original_label(dataset.labels[j]))]
        fields += [repr(float(v)) for v in dataset.X[:, j]]
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
    X = values.reshape((m, n), order="F")
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
    values = np.asarray(dataset.X, dtype="<f8").tobytes(order="F")
    atomic_write_bytes(path, header + labels + values)


def normalize_columns(dataset):
    """Scale every sample to unit l2 norm."""
    norms = np.linalg.norm(dataset.X, axis=0)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"column {int(zero[0])} is zero and cannot be normalized")
    return replace(dataset, X=dataset.X / norms[None, :])


def random_project(dataset, target_dim, seed):
    """Project samples through a seeded Gaussian map R (target_dim x m)
    with entries N(0, 1)/sqrt(target_dim)."""
    check_integer("target_dim", target_dim, 1)
    check_integer("seed", seed, 0)
    if target_dim > dataset.m:
        raise ParameterError(
            f"target_dim {target_dim} exceeds the dataset's feature dimension {dataset.m}"
        )
    rng = np.random.default_rng(seed)
    R = rng.standard_normal((target_dim, dataset.m)) / np.sqrt(target_dim)
    return replace(dataset, X=R @ dataset.X)


def split(dataset, per_class_train, seed):
    """Seeded uniform train/test split: exactly ``per_class_train`` training
    samples drawn without replacement from every class."""
    check_integer("per_class_train", per_class_train, 1)
    check_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    train_parts = []
    test_parts = []
    for c in range(1, dataset.C + 1):
        members = np.flatnonzero(dataset.labels == c)
        if members.size <= per_class_train:
            raise DatasetError(
                f"class {dataset.original_label(c)} has {members.size} samples; "
                f"needs more than {per_class_train} to split"
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
    per = spec.per_class
    X = np.empty((spec.ambient_dim, spec.C * per), order="F")  # Dataset's layout
    for c in range(spec.C):
        basis, _ = np.linalg.qr(
            rng.standard_normal((spec.ambient_dim, spec.subspace_dim))
        )
        coeffs = rng.uniform(0.0, 1.0, (spec.subspace_dim, per))
        block = X[:, c * per:(c + 1) * per]
        block[...] = basis @ coeffs
        if spec.noise_sigma > 0:
            block += spec.noise_sigma * rng.standard_normal(block.shape)
    labels = np.repeat(np.arange(1, spec.C + 1, dtype=np.int64), per)
    return Dataset(X=X, labels=labels, C=spec.C)


def take_columns(dataset, indices):
    """Sub-dataset of the given columns, in the given order. Each index is
    an integer (not a bool) in 0..n-1; DatasetError names the first entry
    that is not."""
    ix = _column_indices(indices, dataset.n)
    return replace(dataset, X=dataset.X[:, ix], labels=dataset.labels[ix])


def _column_indices(indices, n=None):
    """``indices`` as an int64 array, each an integer (not a bool) in 0..n-1,
    or in int64's range when ``n`` is not given; DatasetError names the
    first entry that is not. An integer array is checked whole, anything
    else entry by entry."""
    ix = indices if isinstance(indices, np.ndarray) else np.array(indices, dtype=object)
    last = np.iinfo(np.int64).max if n is None else n - 1
    if ix.dtype.kind in "iu":
        ok = (ix >= 0) & (ix <= last)
    else:
        ok = np.array([isinstance(i, numbers.Integral) and not isinstance(i, bool)
                       and 0 <= i <= last for i in ix.flat], dtype=bool).reshape(ix.shape)
    if not ok.all():
        p = int(np.flatnonzero(~ok)[0])
        raise DatasetError(
            f"column index {ix.ravel().tolist()[p]!r} (entry {p}) is not an "
            f"integer in 0..{last}"
        )
    return ix.astype(np.int64, copy=False)
