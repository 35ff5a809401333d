"""Acceptance gate: one test per release criterion (A1..A9), and A9's
synthetic twin.

Every test is self-contained: oracles are rebuilt here from first
principles rather than imported from the unit-test modules, a test with
a runtime cap enforces it itself, and each prints a single summary line
(visible with pytest -s; the -v status line carries the pass/fail).

A9 needs an externally supplied face-feature file and is skipped with a
notice when the RCLS_EYALEB environment variable is not set. Its twin
runs the same comparison on synthetic data of the same shape.
"""

import os
import struct
import time
from fractions import Fraction

import numpy as np
import pytest

from rcls import cli, coders
from rcls.bench import (
    ExperimentConfig,
    compare_methods,
    fit_method,
    load_experiment_config,
    run_experiment,
)
from rcls.classify import build_label_matrix, classify_residual, fuse_coefficients, score
from rcls.coders import build_gram_sum, fit_crc, fit_procrc, omp
from rcls.data import (
    BIN_MAGIC,
    Dataset,
    SynthSpec,
    load_bin,
    load_csv,
    normalize_columns,
    save_bin,
    save_csv,
    split,
    synth,
    take_columns,
)
from rcls.errors import FormatError
from rcls.linalg import gram


def unit_columns(rng, m, n):
    X = rng.standard_normal((m, n))
    return X / np.linalg.norm(X, axis=0)


def random_partition(rng, n, C):
    """n split into C nonempty consecutive block sizes."""
    if C == 1:
        return [n]
    cuts = np.sort(rng.choice(np.arange(1, n), size=C - 1, replace=False))
    return np.diff(np.concatenate([[0], cuts, [n]])).astype(int).tolist()


def naive_gram_sum(X, sizes):
    """Masked C-fold sum: zero out one class block at a time and accumulate
    the grams of the leave-one-class-out dictionaries."""
    n = X.shape[1]
    S = np.zeros((n, n))
    start = 0
    for size in sizes:
        Xi_bar = X.copy()
        Xi_bar[:, start:start + size] = 0.0
        S += Xi_bar.T @ Xi_bar
        start += size
    return S


def class_consistent_objective(X, sizes, lam, gamma, alpha, y):
    r = X @ alpha - y
    val = float(r @ r) + lam * float(alpha @ alpha)
    C = len(sizes)
    start = 0
    for size in sizes:
        masked = X.copy()
        masked[:, start:start + size] = 0.0
        t = masked @ alpha
        val += (gamma / C) * float(t @ t)
        start += size
    return val


def class_consistent_gradient(X, sizes, lam, gamma, alpha, y):
    S = naive_gram_sum(X, sizes)
    C = len(sizes)
    return (
        2.0 * X.T @ (X @ alpha - y)
        + 2.0 * lam * alpha
        + (2.0 * gamma / C) * (S @ alpha)
    )


def test_a1_dense_code_stationarity_and_gradient():
    """A1: the dense code is a stationary point of the class-consistent
    objective on 50 random instances; the analytic gradient agrees with
    central finite differences (checked at random points, where the
    relative comparison is well conditioned)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    gammas = (0.1, 0.5, 1.0)
    worst_grad = 0.0
    for case in range(50):
        m = int(rng.integers(10, 41))
        n = int(rng.integers(10, 61))
        C = int(rng.integers(2, 7))
        sizes = random_partition(rng, n, C)
        X = unit_columns(rng, m, n)
        gamma = gammas[case % 3]
        lam = 0.001
        proj = fit_procrc(X, sizes, lam, gamma)
        y = rng.standard_normal(m)
        alpha = proj.code(y)

        g = class_consistent_gradient(X, sizes, lam, gamma, alpha, y)
        bound = 1e-7 * (1.0 + np.linalg.norm(y))
        assert np.abs(g).max() <= bound, f"case {case}: gradient {np.abs(g).max()}"
        worst_grad = max(worst_grad, float(np.abs(g).max() / bound))

        point = rng.standard_normal(n)
        g_pt = class_consistent_gradient(X, sizes, lam, gamma, point, y)
        fd = np.empty(n)
        for j in range(n):
            h = 1e-6 * (1.0 + abs(point[j]))
            up = point.copy()
            dn = point.copy()
            up[j] += h
            dn[j] -= h
            fd[j] = (
                class_consistent_objective(X, sizes, lam, gamma, up, y)
                - class_consistent_objective(X, sizes, lam, gamma, dn, y)
            ) / (2.0 * h)
        assert np.all(np.abs(fd - g_pt) <= 1e-4 * (1.0 + np.abs(g_pt)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(
        f"\nA1 PASS: 50 instances stationary (worst grad at {worst_grad:.2e} of "
        f"bound), FD-validated, {elapsed:.2f}s"
    )


def test_a2_gamma_zero_reduces_to_ridge_code():
    """A2: with gamma=0 the class-consistent code equals the plain ridge
    code within 1e-10 on 20 random instances."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(20):
        m = int(rng.integers(8, 30))
        n = int(rng.integers(10, 40))
        C = int(rng.integers(2, 6))
        sizes = random_partition(rng, n, C)
        X = unit_columns(rng, m, n)
        y = rng.standard_normal(m)
        a = fit_procrc(X, sizes, 0.001, 0.0).code(y)
        b = fit_crc(X, 0.001).code(y)
        worst = max(worst, float(np.abs(a - b).max()))
        assert np.abs(a - b).max() <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nA2 PASS: 20 instances, max deviation {worst:.2e} <= 1e-10, "
          f"{elapsed:.2f}s")


def test_a3_gram_sum_closed_form_vs_masked_sum():
    """A3: the closed-form class-gram sum equals the naive C-fold masked
    sum within 1e-12, 100 random partitions, C in {1,2,3,5}, n <= 30."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    cs = (1, 2, 3, 5)
    worst = 0.0
    for case in range(100):
        C = cs[case % 4]
        n = int(rng.integers(max(C, 2), 31))
        sizes = random_partition(rng, n, C)
        X = rng.standard_normal((int(rng.integers(5, 20)), n))
        S = build_gram_sum(gram(X), sizes)
        ref = naive_gram_sum(X, sizes)
        worst = max(worst, float(np.abs(S - ref).max()))
        assert np.abs(S - ref).max() <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nA3 PASS: 100 partitions, max deviation {worst:.2e} <= 1e-12, "
          f"{elapsed:.2f}s")


def test_a4_pursuit_orthogonality_recovery_replay(monkeypatch):
    """A4: (a) the pursuit residual is orthogonal to all selected atoms
    after every iteration (100 cases); (b) k-sparse signals over orthonormal
    dictionaries are recovered exactly for k <= 5; (c) the selection
    sequence matches a step-by-step greedy replay on 50 random 10x15
    cases. The residual stop is off (``RESIDUAL_TOL`` = 0)."""
    monkeypatch.setattr(coders, "RESIDUAL_TOL", 0.0)
    t0 = time.perf_counter()
    rng = np.random.default_rng(104)

    # (a) per-iteration orthogonality via prefix runs
    for _ in range(100):
        m = int(rng.integers(8, 20))
        n = int(rng.integers(10, 30))
        k = int(rng.integers(1, min(6, m - 1) + 1))
        X = unit_columns(rng, m, n)
        y = rng.standard_normal(m)
        for j in range(1, k + 1):
            sp = omp(X, y, j)
            r = y - X @ sp.coeffs
            sel = X[:, list(sp.support)]
            assert np.abs(sel.T @ r).max() <= 1e-8

    # (b) exact recovery over orthonormal dictionaries
    for trial in range(20):
        k = trial % 5 + 1
        Q, _ = np.linalg.qr(rng.standard_normal((12, 12)))
        support = rng.choice(12, size=k, replace=False)
        coeffs = rng.uniform(0.5, 1.5, k) * rng.choice([-1.0, 1.0], k)
        y = Q[:, support] @ coeffs
        sp = omp(Q, y, k)
        assert set(sp.support) == set(support.tolist())
        full = np.zeros(12)
        full[support] = coeffs
        assert np.abs(sp.coeffs - full).max() <= 1e-10

    # (c) selection sequence equals the greedy replay oracle
    for _ in range(50):
        X = unit_columns(rng, 10, 15)
        y = rng.standard_normal(10)
        k = int(rng.integers(1, 6))
        sp = omp(X, y, k)
        support = []
        residual = y.copy()
        for _ in range(k):
            corr = np.abs(X.T @ residual)
            corr[support] = -1.0
            support.append(int(np.argmax(corr)))
            sol, _, _, _ = np.linalg.lstsq(X[:, support], y, rcond=None)
            residual = y - X[:, support] @ sol
        assert list(sp.support) == support

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nA4 PASS: orthogonality (100), orthonormal recovery (20), "
          f"greedy replay (50), {elapsed:.2f}s")


def test_a5_fusion_norm_and_exact_scoring():
    """A5: fused codes have unit norm within 1e-12 (1000 pairs); the class
    scores equal the per-class index-sum oracle exactly (correctly rounded
    sums match exact rational sums bitwise); the class sums partition the
    total, so sum(q) equals sum(fused) in exact arithmetic."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        fused = fuse_coefficients(a, b)
        worst = max(worst, abs(float(np.linalg.norm(fused)) - 1.0))
    assert worst <= 1e-12

    for case in range(100):
        C = int(rng.integers(1, 7))
        sizes = random_partition(rng, int(rng.integers(max(C, 2), 30)), C)
        labels = np.repeat(np.arange(1, C + 1), sizes)
        rng.shuffle(labels)
        L = build_label_matrix(labels, C)
        n = labels.size
        fused = fuse_coefficients(rng.standard_normal(n), rng.standard_normal(n))
        q = score(L, fused)
        class_sums = []
        for i in range(C):
            exact = sum(Fraction(float(fused[j])) for j in L.class_indices[i])
            class_sums.append(exact)
            assert q[i] == float(exact)  # bitwise: fsum is correctly rounded
        total = sum(Fraction(float(v)) for v in fused)
        assert sum(class_sums) == total  # exact partition identity

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nA5 PASS: 1000 fusions (worst norm dev {worst:.2e}), 100 exact "
          f"score checks, {elapsed:.2f}s")


def test_a6_standard_benchmark_ordering_and_correction():
    """A6: on the standard benchmark (10 classes, ambient 50, subspace 5,
    noise 0.1, 20 train + 20 test per class, 10 paired trials, lambda 0.001,
    gamma 0.5, k 50) the augmented method's mean accuracy is within 0.5
    points of the dense baseline or better, and at least one test sample is
    corrected: the dense residual rule errs while the fused score rule is
    right."""
    t0 = time.perf_counter()
    spec = SynthSpec(
        C=10, ambient_dim=50, subspace_dim=5, per_class=40,
        noise_sigma=0.1, seed=3,
    )
    ds = synth(spec)
    acc_dense = []
    acc_fused = []
    corrections = 0
    for seed in range(10):
        sp = split(ds, 20, seed)
        train = normalize_columns(take_columns(ds, sp.train_indices))
        test = normalize_columns(take_columns(ds, sp.test_indices))
        state = fit_method("sa_procrc", train, lam=0.001, gamma=0.5, k=50)
        right_dense = 0
        right_fused = 0
        for j in range(test.n):
            y = test.X[:, j]
            true = int(test.labels[j])
            codes = state.compute_code(y)
            fused_pick = state.decide(codes, y).predicted_class
            dense_pick = classify_residual(state.blocks, y, codes.dense).predicted_class
            right_dense += dense_pick == true
            right_fused += fused_pick == true
            if dense_pick != true and fused_pick == true:
                corrections += 1
        acc_dense.append(100.0 * right_dense / test.n)
        acc_fused.append(100.0 * right_fused / test.n)
    mean_dense = float(np.mean(acc_dense))
    mean_fused = float(np.mean(acc_fused))
    assert mean_fused >= mean_dense - 0.5, (
        f"augmented {mean_fused:.2f} vs dense {mean_dense:.2f}"
    )
    assert corrections >= 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(f"\nA6 PASS: dense {mean_dense:.2f}%, augmented {mean_fused:.2f}%, "
          f"{corrections} corrections over 10 paired trials, {elapsed:.2f}s")


def test_a7_determinism_and_cli_agreement(tmp_path, capsys):
    """A7: repeating a seeded experiment reproduces the report bit for bit,
    and the command-line bench output agrees with the direct library call
    within 1e-12."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        dataset=SynthSpec(
            C=4, ambient_dim=10, subspace_dim=3, per_class=10,
            noise_sigma=0.6, seed=1,
        ),
        method="sa_crc",
        per_class_train=5,
        trials=3,
        k=6,
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a == b
    assert a.accuracies == b.accuracies

    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        "synth:\n"
        "  classes: 4\n"
        "  ambient_dim: 10\n"
        "  subspace_dim: 3\n"
        "  per_class: 10\n"
        "  noise_sigma: 0.6\n"
        "  seed: 1\n"
        "per_class_train: 5\n"
        "trials: 3\n"
        "k: 6\n"
        "method: sa_crc\n"
    )
    out_csv = tmp_path / "report.csv"
    assert cli.main(["bench", "--config", str(cfg_path),
                     "--out-csv", str(out_csv)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["bench", "--config", str(cfg_path)]) == 0
    assert capsys.readouterr().out == first

    row = out_csv.read_text().strip().split("\n")[1].split(",")
    assert abs(float(row[1]) - a.mean) <= 1e-12
    assert abs(float(row[2]) - a.std) <= 1e-12
    elapsed = time.perf_counter() - t0
    print(f"\nA7 PASS: bit-identical reports, CLI mean/std match library, "
          f"{elapsed:.2f}s")


def test_a8_format_round_trips_and_positioned_errors(tmp_path):
    """A8: text and binary round-trips are lossless on 20 random datasets;
    corrupted binary files are rejected with the byte offset of the
    problem."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(108)
    for case in range(20):
        C = int(rng.integers(1, 5))
        per_class = int(rng.integers(1, 6))
        m = int(rng.integers(1, 12))
        X = rng.standard_normal((m, C * per_class))
        labels = np.repeat(np.arange(1, C + 1), per_class)
        ds = Dataset(X=X, labels=labels, C=C)

        p_csv = tmp_path / f"rt{case}.csv"
        save_csv(ds, p_csv)
        back = load_csv(p_csv)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.labels, ds.labels)
        assert back.C == ds.C

        p_bin = tmp_path / f"rt{case}.rcls"
        save_bin(ds, p_bin)
        back = load_bin(p_bin)
        assert back.X.tobytes(order="F") == ds.X.tobytes(order="F")
        assert np.array_equal(back.labels, ds.labels)
        assert back.C == ds.C

    blob = (
        BIN_MAGIC
        + struct.pack("<IIII", 1, 2, 2, 2)
        + struct.pack("<II", 1, 2)
        + struct.pack("<4d", 1.0, 2.0, 3.0, 4.0)
    )

    def expect_offset(data, offset):
        p = tmp_path / "bad.rcls"
        p.write_bytes(data)
        with pytest.raises(FormatError) as exc:
            load_bin(p)
        assert exc.value.offset == offset

    expect_offset(b"XXXX" + blob[4:], 0)
    expect_offset(BIN_MAGIC + struct.pack("<I", 9) + blob[8:], 4)
    expect_offset(BIN_MAGIC + struct.pack("<IIII", 1, 0, 2, 2) + blob[20:], 8)
    for cut in (3, 7, 12, 21, 40):
        expect_offset(blob[:cut], cut)
    expect_offset(blob + b"\x01", len(blob))
    bad_label = blob[:24] + struct.pack("<I", 7) + blob[28:]
    expect_offset(bad_label, 24)

    elapsed = time.perf_counter() - t0
    print(f"\nA8 PASS: 20 lossless round-trips, 9 positioned rejections, "
          f"{elapsed:.2f}s")


def test_a9_face_benchmark_if_data_present():
    """A9 (optional): with an externally supplied face-feature file
    (environment variable RCLS_EYALEB), the three-method comparison over 10
    trials lands within 2.0 points of the published means (94.77, 94.82,
    95.64) and keeps the expected ordering."""
    path = os.environ.get("RCLS_EYALEB")
    if not path:
        pytest.skip(
            "A9 SKIP: set RCLS_EYALEB to an Extended Yale B feature file "
            "(.csv or .rcls, 504-dim random-projection features) to run"
        )
    t0 = time.perf_counter()
    probe = load_csv(path) if path.lower().endswith(".csv") else load_bin(path)
    projection_dim = 504 if probe.m > 504 else None
    cfgs = [
        ExperimentConfig(
            dataset=path,
            method=m,
            per_class_train=20,
            trials=10,
            lam=0.001,
            gamma=0.5,
            k=50,
            projection_dim=projection_dim,
        )
        for m in ("crc", "procrc", "sa_procrc")
    ]
    reports = compare_methods(cfgs)
    means = {rep.config.method: rep.mean for rep in reports}
    published = {"crc": 94.77, "procrc": 94.82, "sa_procrc": 95.64}
    for method, target in published.items():
        assert abs(means[method] - target) <= 2.0, (
            f"{method}: {means[method]:.2f} vs published {target}"
        )
    assert means["sa_procrc"] > means["procrc"] >= means["crc"]
    elapsed = time.perf_counter() - t0
    print(f"\nA9 PASS: crc {means['crc']:.2f}, procrc {means['procrc']:.2f}, "
          f"sa_procrc {means['sa_procrc']:.2f}, {elapsed:.2f}s")


def test_a9_synthetic_twin_ordering():
    """A9's synthetic twin: at the Extended Yale B shape (38 classes of 64
    samples, 504 dims) with 20 training samples per class, one trial and
    the paper's defaults, CRC, ProCRC and SA-ProCRC keep A9's ordering and
    SA-ProCRC beats SA-CRC. The seed and noise are fixed: a change that
    flips the ordering shows it. The time is printed, not capped, as
    timings drift between hosts."""
    t0 = time.perf_counter()
    spec = SynthSpec(
        C=38, ambient_dim=504, subspace_dim=9, per_class=64,
        noise_sigma=0.3, seed=1,
    )
    cfgs = [
        ExperimentConfig(
            dataset=spec, method=m, per_class_train=20, trials=1, base_seed=1,
            lam=0.001, gamma=0.5, k=50,
        )
        for m in ("crc", "procrc", "sa_crc", "sa_procrc")
    ]
    means = {rep.config.method: rep.mean for rep in compare_methods(cfgs)}
    assert means["sa_procrc"] > means["procrc"] >= means["crc"], means
    assert means["sa_procrc"] > means["sa_crc"], means
    elapsed = time.perf_counter() - t0
    print(f"\nA9 twin PASS: crc {means['crc']:.2f}, procrc {means['procrc']:.2f}, "
          f"sa_crc {means['sa_crc']:.2f}, sa_procrc {means['sa_procrc']:.2f}, "
          f"{elapsed:.2f}s")
