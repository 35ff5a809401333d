import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcls.bench import (
    ComparisonTable,
    ExperimentConfig,
    ExperimentReport,
    METHODS,
    SaCodes,
    aggregate_accuracy,
    compare_methods,
    comparison_csv,
    comparison_text,
    dump_diagnostics,
    fit_method,
    load_compare_configs,
    load_experiment_config,
    load_source,
    report_csv,
    report_text,
    run_experiment,
    stage_summary,
)
from rcls import bench
from rcls.classify import (
    classify_residual,
    fuse_coefficients,
    regularized_residual_scores,
    score,
)
from rcls.coders import omp
from rcls.data import Dataset, SynthSpec, normalize_columns, save_bin, save_csv, synth
from rcls.errors import (
    ConfigError,
    DataError,
    DatasetError,
    DimensionError,
    ParameterError,
)

CLEAN = SynthSpec(C=3, ambient_dim=12, subspace_dim=2, per_class=8, seed=0)
NOISY = SynthSpec(
    C=4, ambient_dim=10, subspace_dim=3, per_class=10, noise_sigma=0.6, seed=1
)


def read_diag(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "class", "value"]
    return [(int(r[0]), int(r[1]), float(r[2])) for r in rows[1:]]


# ---------------------------------------------------------------- config


def test_config_rejects_unknown_method():
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset=CLEAN, method="cnn", per_class_train=4)


def test_config_rejects_bad_counts():
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset=CLEAN, method="crc", per_class_train=4, trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset=CLEAN, method="crc", per_class_train=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset=CLEAN, method="crc", per_class_train=4, trials=True)
    with pytest.raises(ConfigError):
        ExperimentConfig(

            dataset=CLEAN, method="crc", per_class_train=4, projection_dim=0
        )


def test_config_rejects_bad_parameter_ranges():
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset=CLEAN, method="crc", per_class_train=4, lam=0.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset=CLEAN, method="procrc", per_class_train=4, gamma=-1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset=CLEAN, method="sa_crc", per_class_train=4, k=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset=CLEAN, method="src", per_class_train=4, epsilon=0.0)


@pytest.mark.parametrize("method, param", [
    ("crc", "lam"), ("procrc", "gamma"), ("src", "epsilon"),
])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_config_rejects_non_finite_parameters(method, param, value):
    with pytest.raises(ConfigError, match=f"{param} must be finite"):
        ExperimentConfig(
            dataset=CLEAN, method=method, per_class_train=4, **{param: value}
        )


def test_config_requires_method_parameters():
    with pytest.raises(ConfigError) as exc:
        ExperimentConfig(dataset=CLEAN, method="src", per_class_train=4, epsilon=None)
    assert "epsilon" in str(exc.value)
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset=CLEAN, method="crc", per_class_train=4, lam=None)
    with pytest.raises(ConfigError):
        ExperimentConfig(
            dataset=CLEAN, method="sa_procrc", per_class_train=4, gamma=None
        )
    # parameters a method does not use may be absent
    cfg = ExperimentConfig(
        dataset=CLEAN, method="crc", per_class_train=4, epsilon=None, gamma=None
    )
    assert cfg.lam > 0


def test_config_rejects_non_path_dataset():
    with pytest.raises(ConfigError):
        ExperimentConfig(dataset=123, method="crc", per_class_train=4)


# ---------------------------------------------------------------- fitting


def grouped_train(spec, per_class_train=4):
    ds = synth(spec)
    keep = []
    for c in range(1, spec.C + 1):
        keep.extend(np.flatnonzero(ds.labels == c)[:per_class_train])
    from rcls.data import take_columns

    return normalize_columns(take_columns(ds, np.array(keep)))


def test_fit_method_rejects_ungrouped_labels():
    X = np.random.default_rng(0).standard_normal((4, 4))
    ds = Dataset(X=X, labels=[1, 2, 1, 2], C=2)
    with pytest.raises(DatasetError):
        fit_method("crc", ds)


def test_fit_method_unknown_method():
    train = grouped_train(CLEAN)
    with pytest.raises(ConfigError):
        fit_method("nope", train)


def test_fitted_sa_matches_one_shot_classifier_bitwise():
    train = grouped_train(NOISY, per_class_train=5)
    rng = np.random.default_rng(2)
    for method in ("sa_crc", "sa_procrc"):
        state = fit_method(method, train, lam=0.001, gamma=0.5, k=6)
        for _ in range(5):
            y = rng.standard_normal(train.m)
            y = y / np.linalg.norm(y)
            codes = state.compute_code(y)
            got = state.decide(codes, y)
            # the one-shot composition of the four public steps
            fused = fuse_coefficients(
                omp(state.D.X, y, state.k).coeffs, state.projector.code(y)
            )
            q = score(state.L, fused)
            assert got.predicted_class == int(np.argmax(q)) + 1
            assert np.array_equal(got.scores, q)
            assert got.tie == (np.count_nonzero(q == q.max()) > 1)


@pytest.mark.parametrize("method", ["sa_crc", "sa_procrc"])
def test_sa_fit_builds_one_gram_and_codes_like_one_shot_omp(method, monkeypatch):
    from rcls import linalg

    calls = []
    gram = linalg.gram

    def counting_gram(X):
        calls.append(X.shape)
        return gram(X)

    monkeypatch.setattr(linalg, "gram", counting_gram)
    train = grouped_train(NOISY, per_class_train=5)
    state = fit_method(method, train, lam=0.001, gamma=0.5, k=6)
    assert calls == [(train.m, train.n)]
    monkeypatch.undo()

    rng = np.random.default_rng(3)
    for _ in range(5):
        y = rng.standard_normal(train.m)
        got = state.compute_code(y).sparse
        ref = omp(train.X, y, 6)
        assert got.support == ref.support
        assert np.array_equal(got.coeffs, ref.coeffs)
        assert got.final_residual_norm == ref.final_residual_norm


def test_sa_k_above_dictionary_size_fails_at_fit_time(monkeypatch):
    coded = []
    monkeypatch.setattr(bench, "omp", lambda *args, **kwargs: coded.append(args))
    # 10-dimensional samples, 2 classes x 10 training atoms: k <= 10
    spec = SynthSpec(C=2, ambient_dim=10, subspace_dim=2, per_class=15,
                     noise_sigma=0.1, seed=0)
    for method in ("sa_crc", "sa_procrc"):
        cfg = ExperimentConfig(dataset=spec, method=method, per_class_train=10,
                               trials=2, base_seed=3, k=11)
        with pytest.raises(
            ParameterError,
            match=r"k must be in \[1, 10\].*got 11 \(while running trial 0, seed 3\)",
        ):
            run_experiment(cfg)
    assert coded == []
    train = grouped_train(spec, per_class_train=10)
    fit_method("sa_crc", train, k=10)
    for method in ("src", "crc", "procrc"):
        fit_method(method, train, k=11)  # k is not used by these


def test_sa_coding_never_rechecks_the_dictionary(monkeypatch):
    from rcls import classify, coders, data, linalg

    train = grouped_train(NOISY, per_class_train=5)
    rng = np.random.default_rng(4)
    for method in ("sa_crc", "sa_procrc"):
        state = fit_method(method, train, k=6)
        calls = []
        as_mat = linalg.as_mat

        def counting_as_mat(a, name="matrix"):
            calls.append(np.shape(a))
            return as_mat(a, name)

        # every rcls module that holds as_mat gets the counting one
        for mod in (linalg, coders, classify, data, bench):
            if getattr(mod, "as_mat", None) is as_mat:
                monkeypatch.setattr(mod, "as_mat", counting_as_mat)
        for _ in range(3):
            state.compute_code(rng.standard_normal(train.m))
        assert calls == []
        monkeypatch.undo()


@pytest.mark.parametrize("method", METHODS)
def test_only_src_fit_computes_the_lipschitz_bound(method, monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(a):
        calls.append(a.shape)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    train = grouped_train(NOISY, per_class_train=5)
    state = fit_method(method, train, k=4)
    state.compute_code(train.X[:, 0])
    assert calls == ([(train.n, train.n)] if method == "src" else [])


@pytest.mark.parametrize("method", METHODS)
def test_zero_test_sample_raises_parameter_error(method):
    train = grouped_train(NOISY, per_class_train=5)
    state = fit_method(method, train, k=4)
    with pytest.raises(ParameterError, match="test sample must be nonzero"):
        state.compute_code(np.zeros(train.m))


@pytest.mark.parametrize("method", METHODS)
def test_wrong_length_test_sample_raises_dimension_error(method):
    train = grouped_train(NOISY, per_class_train=5)
    state = fit_method(method, train, k=4)
    for m in (train.m - 1, train.m + 1):
        with pytest.raises(DimensionError, match=f"y has length {m}, X has {train.m} rows"):
            state.compute_code(np.ones(m))


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad, error", [
    (0.0, ParameterError), (np.nan, DataError), (np.inf, DataError),
])
def test_one_bad_column_fails_the_batch_like_the_sample_alone(method, bad, error):
    train = grouped_train(NOISY, per_class_train=5)
    state = fit_method(method, train, k=4)
    Y = np.random.default_rng(5).standard_normal((train.m, 6))
    Y[:, 4] = 0.0
    Y[2, 4] = bad
    with pytest.raises(error):
        state.compute_code(Y[:, 4])
    with pytest.raises(error, match=r"\(column 4\)"):
        state.compute_codes(Y)
    for m in (train.m - 1, train.m + 1):
        with pytest.raises(DimensionError, match=f"y has length {m}, X has {train.m} rows"):
            state.compute_codes(np.ones((m, 3)))


@st.composite
def tied_batches(draw):
    """A dictionary whose classes 1 and 2 are the single atoms e_0 and e_1,
    followed by generic classes on the other coordinates, and a batch of
    generic test samples mixed with samples c (e_0 + e_1). Those tie
    classes 1 and 2 exactly in every residual rule, and their generic code
    blocks are exactly zero (crc scores them +inf)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    classes = draw(st.integers(1, 3))
    per_class = draw(st.integers(1, 3))
    m_generic = draw(st.integers(2, max(2, classes * per_class)))
    m = 2 + m_generic
    generic = np.zeros((m, classes * per_class))
    generic[2:] = rng.standard_normal((m_generic, classes * per_class))
    X = np.hstack([np.eye(m)[:, :2], generic / np.linalg.norm(generic, axis=0)])
    labels = np.concatenate([[1, 2], np.repeat(np.arange(3, 3 + classes), per_class)])
    n_generic, n_tied = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    Y = np.zeros((m, n_generic + n_tied))
    Y[:, :n_generic] = rng.standard_normal((m, n_generic))
    Y[:2, n_generic:] = rng.uniform(0.5, 2.0, n_tied)
    order = rng.permutation(Y.shape[1])
    return Dataset(X=X, labels=labels, C=2 + classes), Y[:, order], order >= n_generic


def oracle_decisions(state, Y, codes):
    """Winners and exact ties of the method's rule, one column and one
    class at a time."""
    predicted, tie = [], []
    for j, y in enumerate(Y.T):
        if isinstance(state, bench.FittedSa):
            fused = codes[j].fused
            scores = [-math.fsum(fused[ix]) for ix in state.L.class_indices]
        else:
            scores, start = [], 0
            for B in state.blocks:
                a = codes[start:start + B.shape[1], j]
                start += B.shape[1]
                r = math.sqrt(math.fsum(v * v for v in y - B @ a))
                if state.method == "crc":
                    nrm = math.sqrt(math.fsum(v * v for v in a))
                    r = r / nrm if nrm else math.inf
                scores.append(r)
        winners = [i for i, v in enumerate(scores) if v == min(scores)]
        predicted.append(winners[0] + 1)
        tie.append(len(winners) > 1)
    return np.array(predicted), np.array(tie)


def code_matrix(codes):
    if isinstance(codes, list):
        return np.column_stack([np.concatenate([c.dense, c.sparse.coeffs, c.fused])
                                for c in codes])
    return codes


@pytest.mark.filterwarnings("ignore::rcls.errors.ConvergenceWarning")
@pytest.mark.parametrize("method", METHODS)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(case=tied_batches())
def test_batch_decisions_do_not_depend_on_batch_size_or_order(method, case):
    train, Y, tied = case
    state = fit_method(method, train, k=2)
    codes = state.compute_codes(Y)
    predicted, tie = state.decide_all(codes, Y)
    oracle_predicted, oracle_tie = oracle_decisions(state, Y, codes)
    assert np.array_equal(predicted, oracle_predicted)
    assert np.array_equal(tie, oracle_tie)
    assert (predicted[tied] == 1).all() and tie[tied].all()
    A = code_matrix(codes)
    tol = 1e-12 * np.abs(A).max()

    for j, y in enumerate(Y.T):
        one = state.compute_codes(Y[:, [j]])
        assert np.abs(code_matrix(one)[:, 0] - A[:, j]).max() <= tol
        p, t = state.decide_all(one, Y[:, [j]])
        d = state.decide(state.compute_code(y), y)
        assert p[0] == d.predicted_class == predicted[j]
        assert t[0] == d.tie == tie[j]

    perm = np.random.default_rng(Y.shape[1]).permutation(Y.shape[1])
    shuffled = state.compute_codes(Y[:, perm])
    p, t = state.decide_all(shuffled, Y[:, perm])
    back = np.argsort(perm)
    assert np.abs(code_matrix(shuffled)[:, back] - A).max() <= tol
    assert np.array_equal(p[back], predicted) and np.array_equal(t[back], tie)
    if method == "crc":
        scores = regularized_residual_scores(state.blocks, Y, codes)
        assert np.isinf(scores[2:, tied]).all()


# ---------------------------------------------------------------- experiments


def test_run_experiment_clean_subspaces_crc_is_perfect():
    cfg = ExperimentConfig(dataset=CLEAN, method="crc", per_class_train=4, trials=2)
    rep = run_experiment(cfg)
    assert rep.accuracies == (100.0, 100.0)
    assert rep.mean == 100.0 and rep.std == 0.0


def test_run_experiment_is_deterministic():
    cfg = ExperimentConfig(
        dataset=NOISY, method="procrc", per_class_train=5, trials=3
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a == b  # stage_seconds excluded from equality
    assert a.stage_seconds.keys() == {"fit", "code", "classify"}


def test_report_statistics_recompute():
    cfg = ExperimentConfig(dataset=NOISY, method="crc", per_class_train=5, trials=4)
    rep = run_experiment(cfg)
    arr = np.asarray(rep.accuracies)
    assert abs(rep.mean - arr.mean()) <= 1e-12
    assert abs(rep.std - arr.std(ddof=1)) <= 1e-12
    assert all(0.0 <= a <= 100.0 for a in rep.accuracies)
    assert rep.trial_seeds == (0, 1, 2, 3)


def test_trial_seeds_offset_by_base_seed():
    cfg = ExperimentConfig(
        dataset=NOISY, method="crc", per_class_train=5, trials=2, base_seed=17
    )
    rep = run_experiment(cfg)
    assert rep.trial_seeds == (17, 18)


def test_single_trial_std_is_zero():
    cfg = ExperimentConfig(dataset=NOISY, method="crc", per_class_train=5, trials=1)
    rep = run_experiment(cfg)
    assert rep.std == 0.0


def test_run_experiment_with_projection():
    cfg = ExperimentConfig(
        dataset=NOISY, method="crc", per_class_train=5, trials=2, projection_dim=6
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a == b


def test_run_experiment_class_exhaustion_fails_cleanly():
    cfg = ExperimentConfig(dataset=CLEAN, method="crc", per_class_train=8, trials=1)
    with pytest.raises(DatasetError) as exc:
        run_experiment(cfg)
    assert "trial 0" in str(exc.value)


def test_aggregate_accuracy():
    mean, std = aggregate_accuracy([90.0])
    assert (mean, std) == (90.0, 0.0)
    vals = [88.0, 92.0, 95.0]
    mean, std = aggregate_accuracy(vals)
    mu = sum(vals) / 3
    ref = math.sqrt(sum((v - mu) ** 2 for v in vals) / 2)
    assert abs(mean - mu) <= 1e-12
    assert abs(std - ref) <= 1e-12


def test_load_source_dispatch(tmp_path):
    ds = load_source(CLEAN)
    assert ds.n == CLEAN.C * CLEAN.per_class
    p_csv = tmp_path / "d.csv"
    p_bin = tmp_path / "d.rcls"
    from rcls.data import save_csv

    save_csv(ds, p_csv)
    save_bin(ds, p_bin)
    assert np.allclose(load_source(str(p_csv)).X, ds.X)
    assert np.array_equal(load_source(str(p_bin)).X, ds.X)


# ---------------------------------------------------------------- comparison


def test_compare_methods_requires_shared_setup():
    a = ExperimentConfig(dataset=CLEAN, method="crc", per_class_train=4, trials=2)
    b = ExperimentConfig(dataset=NOISY, method="procrc", per_class_train=4, trials=2)
    with pytest.raises(ConfigError) as exc:
        compare_methods([a, b])
    assert "dataset" in str(exc.value)
    c = ExperimentConfig(dataset=CLEAN, method="procrc", per_class_train=4, trials=3)
    with pytest.raises(ConfigError):
        compare_methods([a, c])
    with pytest.raises(ConfigError):
        compare_methods([])


def test_compare_methods_loads_dataset_once(tmp_path, monkeypatch):
    path = tmp_path / "noisy.csv"
    save_csv(synth(NOISY), path)
    calls = []
    real_load_csv = bench.load_csv

    def counting_load_csv(p):
        calls.append(p)
        return real_load_csv(p)

    monkeypatch.setattr(bench, "load_csv", counting_load_csv)
    cfgs = [
        ExperimentConfig(
            dataset=str(path), method=m, per_class_train=5, trials=2, k=4
        )
        for m in ("crc", "sa_procrc")
    ]
    table = compare_methods(cfgs)
    assert len(calls) == 1
    assert table.reports == tuple(run_experiment(cfg) for cfg in cfgs)


def test_compare_methods_single_row():
    cfg = ExperimentConfig(dataset=NOISY, method="crc", per_class_train=5, trials=2)
    table = compare_methods([cfg])
    assert len(table.rows) == 1
    assert table.rows[0].method == "crc"


def test_compare_duplicate_method_rows_identical():
    cfg = ExperimentConfig(dataset=NOISY, method="crc", per_class_train=5, trials=2)
    table = compare_methods([cfg, cfg])
    assert table.rows[0] == table.rows[1]


def test_error_reduction_formula():
    cfgs = [
        ExperimentConfig(dataset=NOISY, method=m, per_class_train=5, trials=3)
        for m in ("crc", "procrc")
    ]
    table = compare_methods(cfgs)
    err_base = 100.0 - table.rows[0].mean
    assert err_base > 0.0, "noisy baseline expected to make mistakes"
    for row in table.rows:
        expected = 100.0 * (err_base - (100.0 - row.mean)) / err_base
        assert abs(row.err_reduction_pct - expected) <= 1e-12
    assert table.rows[0].err_reduction_pct == 0.0


@pytest.mark.filterwarnings("ignore::rcls.errors.ConvergenceWarning")
@pytest.mark.parametrize("C", [1, 2])
def test_every_method_runs_end_to_end_with_one_or_two_classes(C):
    spec = SynthSpec(C=C, ambient_dim=12, subspace_dim=2, per_class=8,
                     noise_sigma=0.3, seed=2)
    cfgs = [
        ExperimentConfig(dataset=spec, method=m, per_class_train=4, trials=2, k=4)
        for m in METHODS
    ]
    table = compare_methods(cfgs)
    assert table.reports == tuple(run_experiment(cfg) for cfg in cfgs)
    if C == 1:
        assert all(rep.accuracies == (100.0, 100.0) for rep in table.reports)


def test_error_reduction_nan_when_baseline_perfect():
    cfg = ExperimentConfig(dataset=CLEAN, method="crc", per_class_train=4, trials=2)
    table = compare_methods([cfg])
    assert table.rows[0].mean == 100.0
    assert math.isnan(table.rows[0].err_reduction_pct)


# ---------------------------------------------------------------- rendering


def test_report_csv_round_trips_floats():
    cfg = ExperimentConfig(dataset=NOISY, method="procrc", per_class_train=5, trials=3)
    rep = run_experiment(cfg)
    text = report_csv(rep)
    lines = text.strip().split("\n")
    assert lines[0] == "method,mean,std,trials,base_seed"
    method, mean, std, trials, seed = lines[1].split(",")
    assert method == "procrc"
    assert float(mean) == rep.mean
    assert float(std) == rep.std
    assert int(trials) == 3 and int(seed) == 0


def test_report_text_contains_summary_line():
    cfg = ExperimentConfig(dataset=CLEAN, method="crc", per_class_train=4, trials=2)
    rep = run_experiment(cfg)
    text = report_text(rep)
    assert "method: crc" in text
    assert "mean +/- std: 100.00 +/- 0.00" in text


def test_comparison_renderers():
    cfg = ExperimentConfig(dataset=NOISY, method="crc", per_class_train=5, trials=2)
    table = compare_methods([cfg])
    ctext = comparison_csv(table)
    lines = ctext.strip().split("\n")
    assert lines[0] == "method,mean,std,trials,base_seed,err_reduction_pct"
    assert len(lines) == 2
    pretty = comparison_text(table)
    assert pretty.startswith("method")
    assert "crc" in pretty
    assert stage_summary({"fit": 0.5}) == "fit=0.500s"


# ---------------------------------------------------------------- diagnostics


def test_dump_diagnostics_row_counts_and_columns(tmp_path):
    train = grouped_train(NOISY, per_class_train=5)
    state = fit_method("crc", train, lam=0.001)
    y = train.X[:, 0]
    decision, files = dump_diagnostics(state, y, tmp_path / "diag")
    assert set(files) == {"coefficients.csv", "residuals.csv", "scores.csv"}
    coeff = read_diag(files["coefficients.csv"])
    assert len(coeff) == train.n
    assert [c for _, c, _ in coeff] == list(np.repeat([1, 2, 3, 4], 5))
    resid = read_diag(files["residuals.csv"])
    scores = read_diag(files["scores.csv"])
    assert len(resid) == train.C and len(scores) == train.C
    assert [c for _, c, _ in resid] == [1, 2, 3, 4]
    assert [v for _, _, v in scores] == list(decision.scores)


def test_dump_diagnostics_identity_dictionary(tmp_path):
    ds = Dataset(X=np.eye(3), labels=[1, 2, 3], C=3)
    state = fit_method("crc", ds, lam=0.001)
    y = np.array([0.0, 1.0, 0.0])
    _, files = dump_diagnostics(state, y, tmp_path / "diag")
    scores = read_diag(files["scores.csv"])
    best = min(scores, key=lambda row: row[2])
    assert best[1] == 2  # the atom matching y


def test_dump_diagnostics_sa_extra_files(tmp_path):
    train = grouped_train(NOISY, per_class_train=5)
    state = fit_method("sa_procrc", train, lam=0.001, gamma=0.5, k=4)
    y = train.X[:, 7]
    _, files = dump_diagnostics(state, y, tmp_path / "diag")
    assert "coefficients_sparse.csv" in files
    assert "coefficients_dense.csv" in files
    fused = np.array([v for _, _, v in read_diag(files["coefficients.csv"])])
    sparse = np.array([v for _, _, v in read_diag(files["coefficients_sparse.csv"])])
    dense = np.array([v for _, _, v in read_diag(files["coefficients_dense.csv"])])
    s = sparse + dense
    assert np.allclose(fused, s / np.linalg.norm(s), rtol=1e-12, atol=1e-15)
    assert abs(np.linalg.norm(fused) - 1.0) <= 1e-12


def test_diagnostics_exhibit_residual_vs_score_correction(tmp_path):
    """On the standard benchmark there are samples where the dense code's
    residual rule picks the wrong class but the fused max-score rule picks
    the right one; a single diagnostics dump shows both sides."""
    from rcls.data import split, take_columns

    spec = SynthSpec(
        C=10, ambient_dim=50, subspace_dim=5, per_class=40, noise_sigma=0.1, seed=3
    )
    ds = synth(spec)
    found = None
    for seed in range(5):
        sp = split(ds, 20, seed)
        train = normalize_columns(take_columns(ds, sp.train_indices))
        test = normalize_columns(take_columns(ds, sp.test_indices))
        state = fit_method("sa_procrc", train, lam=0.001, gamma=0.5, k=50)
        for j in range(test.n):
            y = test.X[:, j]
            true = int(test.labels[j])
            codes = state.compute_code(y)
            fused_pick = state.decide(codes, y).predicted_class
            resid_pick = classify_residual(
                state.blocks, y, codes.dense
            ).predicted_class
            if resid_pick != true and fused_pick == true:
                found = (state, y, true)
                break
        if found:
            break
    assert found is not None, "no correction event in five splits"
    state, y, true = found
    _, files = dump_diagnostics(state, y, tmp_path / "diag")
    resid = read_diag(files["residuals.csv"])
    scores = read_diag(files["scores.csv"])
    resid_class = min(resid, key=lambda row: row[2])[1]
    score_class = max(scores, key=lambda row: row[2])[1]
    assert resid_class != true
    assert score_class == true


# ---------------------------------------------------------------- config files


def write_cfg(tmp_path, text, name="cfg.yaml"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


SYNTH_BLOCK = """\
synth:
  classes: 3
  ambient_dim: 12
  subspace_dim: 2
  per_class: 8
  seed: 0
per_class_train: 4
"""


def test_load_experiment_config_happy_path(tmp_path):
    p = write_cfg(
        tmp_path,
        SYNTH_BLOCK + "method: procrc\nlambda: 0.01\ngamma: 0.25\ntrials: 5\n",
    )
    cfg = load_experiment_config(p)
    assert cfg.method == "procrc"
    assert cfg.lam == 0.01
    assert cfg.gamma == 0.25
    assert cfg.trials == 5
    assert cfg.dataset == CLEAN


def test_load_experiment_config_defaults(tmp_path):
    p = write_cfg(tmp_path, SYNTH_BLOCK + "method: crc\n")
    cfg = load_experiment_config(p)
    assert cfg.trials == 10
    assert cfg.base_seed == 0
    assert cfg.lam == 0.001


def test_load_experiment_config_dataset_path(tmp_path):
    ds = synth(CLEAN)
    data = tmp_path / "d.rcls"
    save_bin(ds, data)
    p = write_cfg(
        tmp_path, f"dataset: {data}\nper_class_train: 4\nmethod: crc\n"
    )
    cfg = load_experiment_config(p)
    assert cfg.dataset == str(data)


def test_load_experiment_config_rejects_unknown_keys(tmp_path):
    p = write_cfg(tmp_path, SYNTH_BLOCK + "method: crc\nmomentum: 0.9\n")
    with pytest.raises(ConfigError) as exc:
        load_experiment_config(p)
    assert "momentum" in str(exc.value)


def test_load_experiment_config_rejects_unknown_synth_keys(tmp_path):
    p = write_cfg(
        tmp_path,
        "synth:\n  classes: 2\n  ambient_dim: 5\n  subspace_dim: 1\n"
        "  per_class: 3\n  shape: round\nper_class_train: 2\nmethod: crc\n",
    )
    with pytest.raises(ConfigError) as exc:
        load_experiment_config(p)
    assert "shape" in str(exc.value)


def test_load_experiment_config_source_exclusivity(tmp_path):
    p = write_cfg(tmp_path, SYNTH_BLOCK + "dataset: d.rcls\nmethod: crc\n")
    with pytest.raises(ConfigError):
        load_experiment_config(p)
    p2 = write_cfg(tmp_path, "per_class_train: 4\nmethod: crc\n", "c2.yaml")
    with pytest.raises(ConfigError):
        load_experiment_config(p2)


def test_load_experiment_config_missing_required(tmp_path):
    p = write_cfg(tmp_path, SYNTH_BLOCK)
    with pytest.raises(ConfigError) as exc:
        load_experiment_config(p)
    assert "method" in str(exc.value)
    p2 = write_cfg(
        tmp_path,
        "synth:\n  classes: 2\n  ambient_dim: 5\n  subspace_dim: 1\n"
        "  per_class: 3\nmethod: crc\n",
        "c2.yaml",
    )
    with pytest.raises(ConfigError) as exc:
        load_experiment_config(p2)
    assert "per_class_train" in str(exc.value)


def test_load_experiment_config_type_errors(tmp_path):
    p = write_cfg(tmp_path, SYNTH_BLOCK + "method: crc\ntrials: yes\n")
    with pytest.raises(ConfigError):
        load_experiment_config(p)
    p2 = write_cfg(tmp_path, SYNTH_BLOCK + "method: crc\nlambda: soft\n", "c2.yaml")
    with pytest.raises(ConfigError):
        load_experiment_config(p2)


def test_load_experiment_config_rejects_methods_list(tmp_path):
    p = write_cfg(tmp_path, SYNTH_BLOCK + "methods: [crc]\n")
    with pytest.raises(ConfigError):
        load_experiment_config(p)


def test_load_experiment_config_bad_yaml(tmp_path):
    p = write_cfg(tmp_path, "method: [unclosed\n")
    with pytest.raises(ConfigError):
        load_experiment_config(p)
    p2 = write_cfg(tmp_path, "- a\n- b\n", "c2.yaml")
    with pytest.raises(ConfigError):
        load_experiment_config(p2)


def test_load_compare_configs(tmp_path):
    p = write_cfg(tmp_path, SYNTH_BLOCK + "methods: [crc, procrc]\ntrials: 3\n")
    cfgs = load_compare_configs(p)
    assert [c.method for c in cfgs] == ["crc", "procrc"]
    assert all(c.trials == 3 and c.dataset == CLEAN for c in cfgs)


def test_load_compare_configs_rejects_single_method_key(tmp_path):
    p = write_cfg(tmp_path, SYNTH_BLOCK + "method: crc\n")
    with pytest.raises(ConfigError):
        load_compare_configs(p)
    p2 = write_cfg(tmp_path, SYNTH_BLOCK + "methods: []\n", "c2.yaml")
    with pytest.raises(ConfigError):
        load_compare_configs(p2)
    p3 = write_cfg(tmp_path, SYNTH_BLOCK + "methods: [crc, 5]\n", "c3.yaml")
    with pytest.raises(ConfigError):
        load_compare_configs(p3)
