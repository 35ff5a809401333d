"""Each benchmark check accepts rcls's real output and rejects a wrong one.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_checks.py
"""

import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import rcls  # noqa: E402
import rcls.cli  # noqa: E402
from checks import CheckError  # noqa: E402

C, M, S, PER_CLASS, TRAIN, K = 3, 12, 3, 10, 6, 4
LAM, GAMMA, EPS = 0.001, 0.5, 0.05


@pytest.fixture(scope="module")
def data():
    X, lab = checks.synth(C, M, S, PER_CLASS, 0.2, seed=5)
    tr, te = checks.split(lab, C, TRAIN, seed=5)
    Xtr, Yte = checks.normalize(X[:, tr]), checks.normalize(X[:, te])
    train = rcls.Dataset(X=Xtr, labels=lab[tr], C=C)
    return X, lab, tr, te, Xtr, Yte, lab[te], train


def test_own_inputs_match_the_program(data):
    X, lab, tr, te, *_ = data
    ds = rcls.synth(rcls.SynthSpec(C, M, S, PER_CLASS, 0.2, 5))
    checks.check_same_data("synth", ds.X, ds.labels, X, lab)
    sp = rcls.split(ds, TRAIN, 5)
    assert np.array_equal(sp.train_indices, tr) and np.array_equal(sp.test_indices, te)
    with pytest.raises(CheckError):
        checks.check_same_data("synth", ds.X + 1e-9, ds.labels, X, lab)
    with pytest.raises(CheckError):
        checks.check_same_data("synth", ds.X, ds.labels[::-1], X, lab)


@pytest.mark.parametrize("method", ["crc", "procrc"])
def test_dense_codes(data, method):
    *_, Xtr, Yte, truth, train = data
    state = rcls.fit_method(method, train, lam=LAM, gamma=GAMMA)
    A = np.column_stack([state.compute_code(Yte[:, j]) for j in range(Yte.shape[1])])
    own = (checks.crc_codes(Xtr, Yte, LAM) if method == "crc"
           else checks.procrc_codes(Xtr, [TRAIN] * C, Yte, LAM, GAMMA))
    checks.check_dense_codes(method, A, own)
    bad = A.copy()
    bad[2, 3] *= 1.001
    with pytest.raises(CheckError):
        checks.check_dense_codes(method, bad, own)


def test_procrc_oracle_is_not_the_plain_ridge_solve(data):
    *_, Xtr, Yte, truth, train = data
    state = rcls.fit_method("procrc", train, lam=LAM, gamma=GAMMA)
    A = np.column_stack([state.compute_code(Yte[:, j]) for j in range(Yte.shape[1])])
    with pytest.raises(CheckError):
        checks.check_dense_codes("procrc", A, checks.crc_codes(Xtr, Yte, LAM))


def test_accuracy(data):
    *_, Xtr, Yte, truth, train = data
    cfg = rcls.ExperimentConfig(
        dataset=rcls.SynthSpec(C, M, S, PER_CLASS, 0.2, 5), method="procrc",
        per_class_train=TRAIN, trials=1, base_seed=5, lam=LAM, gamma=GAMMA)
    acc = rcls.run_experiment(cfg).accuracies[0]
    scores = checks.residual_scores(
        Xtr, [TRAIN] * C, Yte, checks.procrc_codes(Xtr, [TRAIN] * C, Yte, LAM, GAMMA), False)
    pred, near = checks.argmin_decisions(scores)
    checks.check_accuracy("procrc", acc, pred, truth, near)
    n = len(truth)
    with pytest.raises(CheckError):
        checks.check_accuracy("procrc", acc - 100.0 / n, pred, truth, near)
    with pytest.raises(CheckError):
        checks.check_accuracy("procrc", acc - 1.0, pred, truth, near)
    near_all = np.ones_like(near)
    checks.check_accuracy("procrc", acc - 100.0 / n, pred, truth, near_all)


@pytest.fixture(scope="module")
def sa(data):
    *_, Xtr, Yte, truth, train = data
    state = rcls.fit_method("sa_procrc", train, lam=LAM, gamma=GAMMA, k=K)
    y = Yte[:, 0]
    codes = state.compute_code(y)
    dec = state.decide(codes, y)
    own_dense = checks.procrc_codes(Xtr, [TRAIN] * C, y[:, None], LAM, GAMMA)[:, 0]
    return dict(
        name="sa", X=Xtr, sizes=[TRAIN] * C, y=y, k=K, support=list(codes.sparse.support),
        sparse=np.array(codes.sparse.coeffs), dense=np.array(codes.dense), dense_own=own_dense,
        fused=np.array(codes.fused), scores=np.array(dec.scores),
        predicted=dec.predicted_class)


def test_sa_sample_accepts_the_program(sa):
    checks.check_sa_sample(**sa)


def _altered(sa, **changes):
    out = dict(sa)
    out.update(changes)
    return out


def test_sa_sample_rejects_support_over_k(sa):
    with pytest.raises(CheckError):
        checks.check_sa_sample(**_altered(sa, k=len(sa["support"]) - 1))


def test_sa_sample_rejects_a_non_greedy_support(sa):
    with pytest.raises(CheckError):
        checks.check_sa_sample(**_altered(sa, support=sa["support"][::-1]))


def test_sa_sample_rejects_a_perturbed_sparse_code(sa):
    sparse = sa["sparse"].copy()
    sparse[sa["support"][0]] += 1e-3
    with pytest.raises(CheckError):
        checks.check_sa_sample(**_altered(sa, sparse=sparse))


def test_sa_sample_rejects_a_perturbed_dense_code(sa):
    with pytest.raises(CheckError):
        checks.check_sa_sample(**_altered(sa, dense=sa["dense"] * 1.001))


def test_sa_sample_rejects_a_fused_code_without_unit_norm(sa):
    with pytest.raises(CheckError):
        checks.check_sa_sample(**_altered(sa, fused=sa["fused"] * (1 + 1e-9)))


def test_sa_sample_rejects_inexact_scores(sa):
    scores = sa["scores"].copy()
    scores[0] = np.nextafter(scores[0], np.inf)
    with pytest.raises(CheckError):
        checks.check_sa_sample(**_altered(sa, scores=scores))


def test_sa_sample_rejects_a_wrong_winner(sa):
    with pytest.raises(CheckError):
        checks.check_sa_sample(**_altered(sa, predicted=sa["predicted"] % C + 1))


def test_src_sample(data):
    *_, Xtr, Yte, truth, train = data
    state = rcls.fit_method("src", train, epsilon=EPS)
    y = Yte[:, 1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = state.compute_code(y)
    warned = any(w.category is rcls.ConvergenceWarning for w in caught)
    pred = state.decide(code, y).predicted_class
    sizes = [TRAIN] * C
    checks.check_src_sample("src", Xtr, sizes, y, code, EPS, warned, pred)
    with pytest.raises(CheckError):
        checks.check_src_sample("src", Xtr, sizes, y, code, EPS, warned, pred % C + 1)
    with pytest.raises(CheckError):
        checks.check_src_sample("src", Xtr, sizes, y, np.zeros_like(code), EPS, False, pred)
    checks.check_src_sample("src", Xtr, sizes, y, code, 1e-12, True, pred)
    with pytest.raises(CheckError):
        checks.check_src_sample("src", Xtr, sizes, y, code, 1e-12, False, pred)


@pytest.fixture
def converted(tmp_path, data):
    X, lab, tr, *_ = data
    src, out = tmp_path / "train.rcls", tmp_path / "train.csv"
    checks.write_rcls(src, X[:, tr], lab[tr], C)
    assert rcls.cli.main(["convert", "--in", str(src), "--out", str(out)]) == 0
    return out, X[:, tr], lab[tr]


def test_csv_roundtrip(converted, capsys):
    out, X, lab = converted
    checks.check_csv_roundtrip("convert", out, X, lab)
    lines = out.read_text().splitlines()
    truncated = out.with_name("t.csv")
    truncated.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2] + "\n")
    with pytest.raises(CheckError):
        checks.check_csv_roundtrip("convert", truncated, X, lab)
    bumped = X.copy()
    bumped[0, 0] = np.nextafter(bumped[0, 0], np.inf)
    with pytest.raises(CheckError):
        checks.check_csv_roundtrip("convert", out, bumped, lab)
    swapped = lab.copy()
    swapped[[0, -1]] = swapped[[-1, 0]]
    with pytest.raises(CheckError):
        checks.check_csv_roundtrip("convert", out, X, swapped)


def test_classify_output():
    labels = [3, 1, 2, 2]
    good = "3\n1\n1\n2\naccuracy: 75.00\n"
    checks.check_classify_output("classify", good, labels, [1, 2, 3], [3, 1, 1, 2])
    for bad, lib in [
        ("1\n3\n1\n2\naccuracy: 75.00\n", [3, 1, 1, 2]),  # swapped labels
        ("3\n1\n1\naccuracy: 75.00\n", [3, 1, 1, 2]),  # missing line
        ("3\n1\n1\n2\naccuracy: 50.00\n", [3, 1, 1, 2]),  # wrong accuracy
        ("3\n1\n1\n7\naccuracy: 50.00\n", [3, 1, 1, 7]),  # outside label space
        (good, [3, 1, 2, 2]),  # differs from the library
    ]:
        with pytest.raises(CheckError):
            checks.check_classify_output("classify", bad, labels, [1, 2, 3], lib)


def test_compare_output():
    reports = [dict(method="crc", mean=97.5, std=0.0, trials=1, base_seed=4),
               dict(method="procrc", mean=98.75, std=1.25, trials=1, base_seed=4)]
    head = "method           mean      std trials   seed  err.red.%\n"
    good = head + ("crc             97.50     0.00      1      4       0.00\n"
                   "procrc          98.75     1.25      1      4      50.00\n")
    checks.check_compare_output("compare", good, reports)
    for bad in [good.replace("98.75", "98.65"), good.replace("      4      50", "      5      50"),
                head + good.splitlines()[2] + "\n" + good.splitlines()[1] + "\n",
                head + good.splitlines()[1] + "\n"]:
        with pytest.raises(CheckError):
            checks.check_compare_output("compare", bad, reports)


def test_file_writers_match_the_program_readers(tmp_path, data):
    X, lab, *_ = data
    checks.write_csv(tmp_path / "d.csv", X, 10 * lab + 7)
    ds = rcls.load_csv(tmp_path / "d.csv")
    checks.check_same_data("csv", ds.X, ds.labels, X, lab)  # classes in order
    assert ds.label_mapping == tuple(10 * c + 7 for c in range(1, C + 1))
    checks.write_rcls(tmp_path / "d.rcls", X, lab, C)
    ds = rcls.load_bin(tmp_path / "d.rcls")
    checks.check_same_data("rcls", ds.X, ds.labels, X, lab)
    assert os.path.getsize(tmp_path / "d.rcls") == 20 + 4 * X.shape[1] + 8 * X.size
