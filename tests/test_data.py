import os
import stat
import struct

import numpy as np
import pytest

from rcls.data import (
    BIN_MAGIC,
    Dataset,
    SynthSpec,
    atomic_write_bytes,
    load_bin,
    load_csv,
    normalize_columns,
    random_project,
    save_bin,
    save_csv,
    split,
    synth,
    take_columns,
)
from rcls.errors import (
    DataError,
    DatasetError,
    FormatError,
    ParameterError,
    ParseError,
)


def random_dataset(rng, m, per_class, C):
    X = rng.standard_normal((m, per_class * C))
    labels = np.repeat(np.arange(1, C + 1), per_class)
    return Dataset(X=X, labels=labels, C=C)


# ---------------------------------------------------------------- Dataset


def test_dataset_validation():
    X = np.eye(3)
    with pytest.raises(DatasetError):
        Dataset(X=X, labels=[1, 2], C=2)
    with pytest.raises(DatasetError):
        Dataset(X=X, labels=[0, 1, 2], C=2)
    with pytest.raises(DatasetError, match="labels must lie in 1..2"):
        Dataset(X=X, labels=[1, -1, 2], C=2)
    with pytest.raises(DatasetError):
        Dataset(X=X, labels=[1, 1, 3], C=3)
    for labels in ([1.7, 2.2, 1.0], [1.0, 2.0, np.nan], [1.0, 2.0, np.inf]):
        with pytest.raises(DatasetError, match="is not an integer"):
            Dataset(X=X, labels=labels, C=2)
    assert Dataset(X=X, labels=[1.0, 1.0, 2.0], C=2).labels.tolist() == [1, 1, 2]
    ds = Dataset(X=X, labels=[1, 1, 2], C=2)
    assert ds.m == 3 and ds.n == 3
    assert ds.class_sizes == (2, 1)


def test_dataset_arrays_are_frozen():
    ds = Dataset(X=np.eye(2), labels=[1, 2], C=2)
    with pytest.raises(ValueError):
        ds.X[0, 0] = 5.0
    with pytest.raises(ValueError):
        ds.labels[0] = 2


def test_dataset_keeps_the_callers_arrays_writeable():
    # a float64 column-major X and int64 labels are taken without a copy
    X = np.asfortranarray(np.eye(2))
    labels = np.array([1, 2], dtype=np.int64)
    ds = Dataset(X=X, labels=labels, C=2)
    assert np.shares_memory(ds.X, X) and np.shares_memory(ds.labels, labels)
    assert X.flags.writeable and labels.flags.writeable
    assert not ds.X.flags.writeable and not ds.labels.flags.writeable


def test_take_columns_reorders():
    ds = Dataset(X=np.diag([1.0, 2.0, 3.0]), labels=[1, 2, 1], C=2)
    sub = take_columns(ds, [2, 1, 0])
    assert np.array_equal(sub.labels, [1, 2, 1])
    assert sub.X[2, 0] == 3.0 and sub.X[0, 2] == 1.0


# ---------------------------------------------------------------- CSV


def test_load_csv_basic(tmp_path):
    p = tmp_path / "toy.csv"
    p.write_text("1,0.5,1.5\n2,2.5,3.5\n")
    ds = load_csv(p)
    assert ds.m == 2 and ds.n == 2 and ds.C == 2
    assert np.array_equal(ds.X, np.array([[0.5, 2.5], [1.5, 3.5]]))
    assert np.array_equal(ds.labels, [1, 2])
    assert ds.label_mapping == (1, 2)


def test_load_csv_remaps_sparse_labels(tmp_path):
    p = tmp_path / "sparse.csv"
    p.write_text("5,1.0\n9,2.0\n5,3.0\n")
    ds = load_csv(p)
    assert np.array_equal(ds.labels, [1, 2, 1])
    assert ds.C == 2
    assert ds.label_mapping == (5, 9)


def test_load_csv_skips_header_and_blank_lines(tmp_path):
    p = tmp_path / "hdr.csv"
    p.write_text("label,f1,f2\n1,0.0,1.0\n\n2,2.0,3.0\n")
    ds = load_csv(p)
    assert ds.n == 2
    assert np.array_equal(ds.labels, [1, 2])


def test_load_csv_ragged_row_names_line(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("label,f1,f2\n1,0.0,1.0\n2,2.0\n")
    with pytest.raises(ParseError) as exc:
        load_csv(p)
    assert exc.value.line == 3


def test_load_csv_non_numeric_field_names_line(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("1,0.0\n2,oops\n")
    with pytest.raises(ParseError) as exc:
        load_csv(p)
    assert exc.value.line == 2


def test_load_csv_non_integer_label(tmp_path):
    p = tmp_path / "badlab.csv"
    p.write_text("1.5,0.0\n")
    with pytest.raises(ParseError) as exc:
        load_csv(p)
    assert exc.value.line == 1


def test_load_csv_rejects_non_finite(tmp_path):
    p = tmp_path / "inf.csv"
    p.write_text("1,inf\n1,0.0\n")
    with pytest.raises(ParseError) as exc:
        load_csv(p)
    assert exc.value.line == 1


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "empty.csv"
    p.write_text("")
    with pytest.raises(ParseError):
        load_csv(p)


def test_csv_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(12)
    ds = random_dataset(rng, 5, 3, 2)
    p = tmp_path / "rt.csv"
    save_csv(ds, p)
    back = load_csv(p)
    assert np.array_equal(back.X, ds.X)
    assert np.array_equal(back.labels, ds.labels)
    assert back.C == ds.C


def test_csv_round_trip_preserves_original_labels(tmp_path):
    p = tmp_path / "orig.csv"
    p.write_text("7,1.0\n3,2.0\n7,3.0\n")
    ds = load_csv(p)
    q = tmp_path / "orig2.csv"
    save_csv(ds, q)
    assert q.read_text() == "7,1.0\n3,2.0\n7,3.0\n"


# ---------------------------------------------------------------- binary


def build_bin(version=1, m=1, n=1, C=1, labels=(1,), values=(2.5,), magic=BIN_MAGIC):
    head = magic + struct.pack("<IIII", version, m, n, C)
    lab = struct.pack(f"<{len(labels)}I", *labels)
    val = struct.pack(f"<{len(values)}d", *values)
    return head + lab + val


def test_load_bin_minimal_hand_built(tmp_path):
    p = tmp_path / "one.rcls"
    p.write_bytes(build_bin())
    ds = load_bin(p)
    assert ds.m == 1 and ds.n == 1 and ds.C == 1
    assert ds.X[0, 0] == 2.5
    assert ds.labels[0] == 1


def test_load_bin_column_major_payload(tmp_path):
    # m=2, n=2: payload order is column 1 then column 2
    p = tmp_path / "two.rcls"
    p.write_bytes(
        build_bin(m=2, n=2, C=2, labels=(1, 2), values=(1.0, 2.0, 3.0, 4.0))
    )
    ds = load_bin(p)
    assert np.array_equal(ds.X, np.array([[1.0, 3.0], [2.0, 4.0]]))


def test_bin_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(13)
    ds = random_dataset(rng, 6, 4, 3)
    p = tmp_path / "rt.rcls"
    save_bin(ds, p)
    back = load_bin(p)
    assert back.X.tobytes(order="F") == ds.X.tobytes(order="F")
    assert np.array_equal(back.labels, ds.labels)
    assert back.C == ds.C


def test_load_bin_bad_magic_offset_zero(tmp_path):
    p = tmp_path / "m.rcls"
    p.write_bytes(build_bin(magic=b"XXXX"))
    with pytest.raises(FormatError) as exc:
        load_bin(p)
    assert exc.value.offset == 0


def test_load_bin_bad_version_offset_four(tmp_path):
    p = tmp_path / "v.rcls"
    p.write_bytes(build_bin(version=2))
    with pytest.raises(FormatError) as exc:
        load_bin(p)
    assert exc.value.offset == 4


def test_load_bin_zero_dimension_offset_eight(tmp_path):
    p = tmp_path / "z.rcls"
    p.write_bytes(BIN_MAGIC + struct.pack("<IIII", 1, 0, 1, 1) + struct.pack("<I", 1))
    with pytest.raises(FormatError) as exc:
        load_bin(p)
    assert exc.value.offset == 8


def test_load_bin_truncation_reports_file_end(tmp_path):
    blob = build_bin(m=2, n=2, C=2, labels=(1, 2), values=(1.0, 2.0, 3.0, 4.0))
    for cut in (2, 6, 10, 22, 30, len(blob) - 5):
        p = tmp_path / f"t{cut}.rcls"
        p.write_bytes(blob[:cut])
        with pytest.raises(FormatError) as exc:
            load_bin(p)
        assert exc.value.offset == cut, f"cut at {cut}"


def test_load_bin_trailing_data(tmp_path):
    blob = build_bin()
    p = tmp_path / "tail.rcls"
    p.write_bytes(blob + b"\x00\x00")
    with pytest.raises(FormatError) as exc:
        load_bin(p)
    assert exc.value.offset == len(blob)


def test_load_bin_label_out_of_range_positions_offset(tmp_path):
    p = tmp_path / "lab.rcls"
    p.write_bytes(
        build_bin(m=1, n=3, C=2, labels=(1, 7, 2), values=(0.0, 1.0, 2.0))
    )
    with pytest.raises(FormatError) as exc:
        load_bin(p)
    assert exc.value.offset == 20 + 4 * 1


# ---------------------------------------------------------------- normalize


def test_normalize_columns_three_four_five():
    ds = Dataset(X=np.array([[3.0], [4.0]]), labels=[1], C=1)
    out = normalize_columns(ds)
    assert np.array_equal(out.X, np.array([[0.6], [0.8]]))


def test_normalize_columns_idempotent():
    rng = np.random.default_rng(14)
    ds = random_dataset(rng, 5, 4, 2)
    once = normalize_columns(ds)
    twice = normalize_columns(once)
    assert np.allclose(np.linalg.norm(once.X, axis=0), 1.0, rtol=0, atol=1e-15)
    assert np.allclose(twice.X, once.X, rtol=0, atol=1e-15)


def test_normalize_columns_zero_column_names_index():
    X = np.array([[1.0, 0.0], [0.0, 0.0]])
    ds = Dataset(X=X, labels=[1, 2], C=2)
    with pytest.raises(DataError) as exc:
        normalize_columns(ds)
    assert "column 1" in str(exc.value)


def test_normalize_columns_keeps_metadata(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("4,3.0,4.0\n2,1.0,0.0\n")
    ds = load_csv(p)
    out = normalize_columns(ds)
    assert out.label_mapping == (4, 2)
    assert np.array_equal(out.labels, ds.labels)


# ---------------------------------------------------------------- projection


def test_random_project_deterministic():
    rng = np.random.default_rng(15)
    ds = random_dataset(rng, 30, 5, 2)
    a = random_project(ds, 10, seed=42)
    b = random_project(ds, 10, seed=42)
    c = random_project(ds, 10, seed=43)
    assert np.array_equal(a.X, b.X)
    assert not np.array_equal(a.X, c.X)
    assert a.m == 10 and a.n == ds.n


def test_random_project_roughly_preserves_distances():
    rng = np.random.default_rng(17)
    X = rng.standard_normal((2000, 20))
    ds = Dataset(X=X, labels=np.ones(20, dtype=int), C=1)
    out = random_project(ds, 504, seed=5)
    for i in range(20):
        for j in range(i + 1, 20):
            d0 = np.linalg.norm(ds.X[:, i] - ds.X[:, j])
            d1 = np.linalg.norm(out.X[:, i] - out.X[:, j])
            assert abs(d1 - d0) <= 0.3 * d0


def test_random_project_validation():
    ds = Dataset(X=np.eye(3), labels=[1, 2, 3], C=3)
    with pytest.raises(ParameterError):
        random_project(ds, 4, seed=0)
    with pytest.raises(ParameterError):
        random_project(ds, 0, seed=0)


# ---------------------------------------------------------------- split


def test_split_counts_and_disjointness():
    rng = np.random.default_rng(18)
    ds = random_dataset(rng, 4, 10, 3)
    sp = split(ds, 6, seed=0)
    assert sp.train_indices.size == 18
    assert sp.test_indices.size == 12
    assert np.intersect1d(sp.train_indices, sp.test_indices).size == 0
    union = np.union1d(sp.train_indices, sp.test_indices)
    assert np.array_equal(union, np.arange(30))
    train_labels = ds.labels[sp.train_indices]
    assert np.array_equal(np.bincount(train_labels, minlength=4)[1:], [6, 6, 6])
    # grouped by class, each class segment sorted
    assert np.array_equal(train_labels, np.repeat([1, 2, 3], 6))


def test_split_boundary_leaves_one_test_sample():
    rng = np.random.default_rng(19)
    ds = random_dataset(rng, 3, 5, 2)
    sp = split(ds, 4, seed=1)
    assert sp.test_indices.size == 2
    with pytest.raises(DatasetError) as exc:
        split(ds, 5, seed=1)
    assert "class 1" in str(exc.value)


def test_split_seed_controls_outcome():
    rng = np.random.default_rng(20)
    ds = random_dataset(rng, 3, 20, 2)
    a = split(ds, 10, seed=7)
    b = split(ds, 10, seed=7)
    c = split(ds, 10, seed=8)
    assert np.array_equal(a.train_indices, b.train_indices)
    assert not np.array_equal(a.train_indices, c.train_indices)


def test_split_validation():
    rng = np.random.default_rng(21)
    ds = random_dataset(rng, 3, 5, 2)
    with pytest.raises(ParameterError):
        split(ds, 0, seed=0)


# ---------------------------------------------------------------- synth


def test_synth_shape_and_balance():
    ds = synth(SynthSpec(C=4, ambient_dim=10, subspace_dim=2, per_class=7, seed=0))
    assert ds.m == 10 and ds.n == 28 and ds.C == 4
    assert ds.class_sizes == (7, 7, 7, 7)
    assert np.array_equal(ds.labels, np.repeat([1, 2, 3, 4], 7))


def test_synth_rank_one_classes_are_collinear():
    ds = synth(SynthSpec(C=2, ambient_dim=6, subspace_dim=1, per_class=4, seed=1))
    for c in (1, 2):
        block = ds.X[:, ds.labels == c]
        assert np.linalg.matrix_rank(block, tol=1e-10) == 1


def test_synth_noise_free_samples_lie_in_subspace():
    spec = SynthSpec(C=3, ambient_dim=12, subspace_dim=3, per_class=8, seed=2)
    ds = synth(spec)
    for c in (1, 2, 3):
        block = ds.X[:, ds.labels == c]
        U, s, _ = np.linalg.svd(block, full_matrices=False)
        basis = U[:, :3]
        residual = block - basis @ (basis.T @ block)
        assert np.abs(residual).max() <= 1e-10
        assert s[3:].max() <= 1e-10


def test_synth_deterministic():
    spec = SynthSpec(C=2, ambient_dim=5, subspace_dim=2, per_class=3, seed=9)
    a = synth(spec)
    b = synth(spec)
    assert np.array_equal(a.X, b.X)
    c = synth(SynthSpec(C=2, ambient_dim=5, subspace_dim=2, per_class=3, seed=10))
    assert not np.array_equal(a.X, c.X)


def test_synth_spec_validation():
    with pytest.raises(ParameterError):
        SynthSpec(C=0, ambient_dim=5, subspace_dim=1, per_class=3)
    with pytest.raises(ParameterError):
        SynthSpec(C=2, ambient_dim=5, subspace_dim=6, per_class=3)
    with pytest.raises(ParameterError):
        SynthSpec(C=2, ambient_dim=5, subspace_dim=1, per_class=3, noise_sigma=-0.1)


# ---------------------------------------------------------------- atomic IO


def test_atomic_write_leaves_no_temp_files(tmp_path):
    p = tmp_path / "out.bin"
    atomic_write_bytes(p, b"hello")
    assert p.read_bytes() == b"hello"
    atomic_write_bytes(p, b"world")
    assert p.read_bytes() == b"world"
    leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".rcls-tmp-")]
    assert leftovers == []


def test_outputs_get_mode_from_umask(tmp_path):
    ds = random_dataset(np.random.default_rng(25), 3, 2, 2)
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        old = os.umask(umask)
        try:
            save_bin(ds, tmp_path / "d.rcls")
            save_csv(ds, tmp_path / "d.csv")
        finally:
            os.umask(old)
        for name in ("d.rcls", "d.csv"):
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == mode
