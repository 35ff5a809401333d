import csv
import dataclasses
import functools
import math
import re
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rcls.bench import (
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
    classify_regularized_residual,
    classify_residual,
    fuse_coefficients,
    regularized_residual_scores,
    score,
    split_blocks,
)
from rcls.coders import fit_crc, fit_procrc, l1_solve, omp
from rcls.data import (
    Dataset,
    SynthSpec,
    normalize_columns,
    random_project,
    save_bin,
    save_csv,
    split,
    synth,
    take_columns,
)
from rcls.errors import (
    ConfigError,
    DataError,
    DatasetError,
    DimensionError,
    NormalizationError,
    ParameterError,
    RclsError,
)
from rcls.linalg import Dictionary

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
    name = "lambda" if param == "lam" else param  # the config key, as in messages
    with pytest.raises(ConfigError, match=f"{name} must be finite"):
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
    # parameters a method does not use are checked all the same
    with pytest.raises(ConfigError, match="epsilon must be a number, got None"):
        ExperimentConfig(dataset=CLEAN, method="crc", per_class_train=4, epsilon=None)


NAN, INF = float("nan"), float("inf")
# each option's bad values: lambda and epsilon must be finite and > 0, gamma
# finite and >= 0, k an integer >= 1
BAD_OPTIONS = [
    ("lam", "lambda", [-1, 0, NAN, INF, True, None]),
    ("gamma", "gamma", [-1, NAN, INF, True, None]),
    ("k", "k", [-1, 0, NAN, INF, True, None, 2.5]),
    ("epsilon", "epsilon", [-1, 0, NAN, INF, True, None]),
]


@pytest.mark.parametrize("method", METHODS)
def test_every_method_gets_one_verdict_on_every_option(method):
    # fit_method and a config check all four options for every method,
    # whether or not it reads them, and reject each bad value with one text
    train = grouped_train(CLEAN)
    for param, name, values in BAD_OPTIONS:
        for value in values:
            with pytest.raises(ParameterError) as fit:
                fit_method(method, train, **{param: value})
            with pytest.raises(ConfigError) as cfg:
                ExperimentConfig(dataset=CLEAN, method=method, per_class_train=4,
                                 **{param: value})
            assert type(fit.value) is ParameterError
            assert str(fit.value) == str(cfg.value)
            assert str(fit.value).startswith(f"{name} must be ")
            assert str(fit.value).endswith(f", got {value}")


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


def test_sa_k_above_dictionary_size_fails_at_fit_time(monkeypatch):
    coded = []
    monkeypatch.setattr(bench, "_omp_columns", lambda *args, **kwargs: coded.append(args))
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
        fit_method(method, train, k=11)  # k <= min(m, n) is the pursuit's range
    for k in (2.5, True, 2.0, "2"):
        for method in METHODS:
            with pytest.raises(ParameterError, match=f"k must be an integer >= 1, got {k!r}"):
                fit_method(method, train, k=k)
    fit_method("sa_procrc", train, k=np.int64(3))


def test_sparse_coders_check_unit_norms_at_fit_time(monkeypatch):
    coded = []
    for name in ("_omp_columns", "_l1_columns"):
        monkeypatch.setattr(bench, name, lambda *args, **kwargs: coded.append(args))
    train = grouped_train(NOISY, per_class_train=5)
    X = np.array(train.X)
    X[:, 3] *= 5.3
    loose = dataclasses.replace(train, X=X)
    for method in ("sa_crc", "sa_procrc", "src"):
        with pytest.raises(NormalizationError, match="column 3 has norm 5.3$"):
            fit_method(method, loose, k=4)
    assert coded == []
    monkeypatch.undo()
    for method in ("crc", "procrc"):  # the dense coders take any columns
        state = fit_method(method, loose, k=4)
        Y = train.X[:, :3]
        assert state.decide_all(state.compute_codes(Y), Y)[0].shape == (3,)


@pytest.mark.parametrize("method", METHODS)
def test_unit_norms_are_checked_once_per_dictionary(method, monkeypatch):
    from rcls import linalg

    checked = []
    check = linalg.Dictionary.unit_norms.func
    counted = functools.cached_property(lambda D: checked.append(D) or check(D))
    counted.__set_name__(linalg.Dictionary, "unit_norms")
    monkeypatch.setattr(linalg.Dictionary, "unit_norms", counted)
    train = grouped_train(NOISY, per_class_train=5)
    state = fit_method(method, train, k=4)
    fitted = len(checked)
    rng = np.random.default_rng(3)
    for width in (1, 2, 5):
        state.compute_codes(rng.standard_normal((train.m, width)))
    sparse = method == "src" or method.startswith("sa_")
    assert fitted == len(checked) == sparse


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
def test_only_the_sparse_coders_build_the_gram_matrix(method, monkeypatch):
    from rcls import linalg

    calls = []
    gram = linalg.gram
    monkeypatch.setattr(linalg, "gram", lambda X: calls.append(X.shape) or gram(X))
    train = grouped_train(NOISY, per_class_train=5)  # 10-dimensional samples, 20 atoms
    state = fit_method(method, train, k=4)
    # with m < n, src's step bound and unit-norm check read X, not G
    pursuit = method.startswith("sa_")
    assert calls == ([(train.m, train.n)] if pursuit else [])
    state.compute_code(train.X[:, 0])
    assert len(calls) == pursuit


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
    # m < n: lambda_max comes from the m x m X X^T
    assert calls == ([(train.m, train.m)] if method == "src" else [])


@pytest.mark.parametrize("epsilon", [-1.0, 0.0, float("nan"), float("inf")])
def test_src_epsilon_fails_at_fit_time(epsilon, monkeypatch):
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape))
    train = grouped_train(NOISY, per_class_train=5)
    with pytest.raises(ParameterError, match="epsilon must be finite and > 0"):
        fit_method("src", train, epsilon=epsilon)
    assert calls == []
    for method in ("crc", "procrc", "sa_crc", "sa_procrc"):
        with pytest.raises(ParameterError, match="epsilon must be finite and > 0"):
            fit_method(method, train, k=4, epsilon=epsilon)  # checked, though not read
    assert calls == []


def one_shot_coders(train):
    """The entry points outside the fitted methods that take one test
    sample (projectors' ``code`` also take a batch), each as a function of
    the sample; the projectors by name too."""
    D = Dictionary(train.X)
    blocks = split_blocks(train.X, train.class_sizes)
    alpha = np.ones(train.n)
    projectors = {
        "crc": fit_crc(D, 0.01), "procrc": fit_procrc(D, train.class_sizes, 0.01, 0.5),
    }
    return projectors, {
        "omp": lambda y: omp(D, y, 4),
        "l1_solve": lambda y: l1_solve(D, y, 0.05),
        **{f"{name}.code": P.code for name, P in projectors.items()},
        "classify_residual": lambda y: classify_residual(blocks, y, alpha),
        "classify_regularized_residual": lambda y: classify_regularized_residual(blocks, y, alpha),
    }


def assert_same_error(calls, y, error, match):
    """Every call of ``calls`` on ``y`` raises ``error`` with one message,
    which matches ``match``."""
    messages = {}
    for name, call in calls.items():
        with pytest.raises(error, match=match) as exc:
            call(y)
        messages[name] = str(exc.value)
    assert len(set(messages.values())) == 1, messages


@pytest.mark.parametrize("method", METHODS)
def test_zero_test_sample_raises_parameter_error(method):
    train = grouped_train(NOISY, per_class_train=5)
    state = fit_method(method, train, k=4)
    _, one_shot = one_shot_coders(train)
    assert_same_error({method: state.compute_code, **one_shot}, np.zeros(train.m),
                      ParameterError, "test sample must be nonzero")


@pytest.mark.parametrize("method", METHODS)
def test_wrong_length_test_sample_raises_dimension_error(method):
    train = grouped_train(NOISY, per_class_train=5)
    state = fit_method(method, train, k=4)
    projectors, one_shot = one_shot_coders(train)
    calls = {method: state.compute_code, **one_shot}
    for m in (train.m - 1, train.m + 1):
        assert_same_error(calls, np.ones(m), DimensionError,
                          f"y has length {m}, X has {train.m} rows")
    # a sample that is not 1-D; the projectors take a matrix as a batch,
    # so for them (and for a batch) it is an array of three dimensions
    del calls["crc.code"], calls["procrc.code"]
    assert_same_error(calls, np.ones((train.m, 1)), DimensionError,
                      "y must be 1-D, got ndim=2")
    batch_calls = {method: state.compute_codes, **{p: P.code for p, P in projectors.items()}}
    assert_same_error(batch_calls, np.ones((train.m, 2, 1)), DimensionError,
                      "test samples must be a nonempty matrix")
    with pytest.raises(DimensionError, match=rf"nonempty matrix, got shape \({train.m},\)"):
        state.compute_codes(np.ones(train.m))  # a batch is a matrix in every method


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("dtype", [complex, str, bytes])
def test_complex_and_text_arrays_are_rejected_at_every_entry_point(method, dtype):
    # float64 would drop an imaginary part and read text as numbers (or
    # fail on it with a bare ValueError): each checker names the array
    # and its dtype instead
    train = grouped_train(NOISY, per_class_train=5)
    state = fit_method(method, train, k=4)
    projectors, one_shot = one_shot_coders(train)
    X = train.X.astype(dtype)
    Y = X[:, :3]

    def match(name, a):
        return f"^{name} must hold real numbers, got dtype {re.escape(str(a.dtype))}$"

    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no ComplexWarning on the way
        assert_same_error({method: state.compute_code, **one_shot}, Y[:, 0], DataError,
                          match("y", Y))
        batch_calls = {method: state.compute_codes, **{p: P.code for p, P in projectors.items()}}
        assert_same_error(batch_calls, Y, DataError, match("y", Y))
        assert_same_error({
            "Dataset": lambda a: Dataset(X=a, labels=train.labels, C=train.C),
            "Dictionary": Dictionary,
            "omp": lambda a: omp(a, train.X[:, 0], 4),
        }, X, DataError, match("X", X))
        blocks = split_blocks(train.X, train.class_sizes)
        alpha = np.ones(train.n)
        for name, call in (
            ("alpha", lambda a: classify_residual(blocks, train.X[:, 0], a)),
            ("alpha_sparse", lambda a: fuse_coefficients(a, alpha)),
            ("alpha_dense", lambda a: fuse_coefficients(alpha, a)),
        ):
            bad = alpha.astype(dtype)
            with pytest.raises(DataError, match=match(name, bad)):
                call(bad)


@pytest.mark.parametrize("method", METHODS)
def test_decide_all_needs_one_code_per_sample(method):
    train = grouped_train(NOISY, per_class_train=5)
    state = fit_method(method, train, k=4)
    Y = np.random.default_rng(9).standard_normal((train.m, 3))
    codes = state.compute_codes(Y)
    for wrong in (Y[:, :2], np.hstack([Y, Y])):  # fewer and more samples than codes
        with pytest.raises(DimensionError):
            state.decide_all(codes, wrong)


def bad_batches(Y):
    """A NaN, inf, zero, wrong-length, 1-D and complex variant of Y."""
    nan, inf, zero = Y.copy(), Y.copy(), Y.copy()
    nan[1, 1], inf[2, 1], zero[:, 1] = np.nan, np.inf, 0.0
    return {"nan": nan, "inf": inf, "zero": zero, "long": np.vstack([Y, Y[:1]]),
            "1-D": Y[:, 0], "complex": Y + 0j}


@pytest.mark.parametrize("method", ["src", "crc", "procrc"])
@pytest.mark.parametrize("case", ["nan", "inf", "zero", "long", "1-D", "complex"])
def test_residual_decide_all_checks_y_as_compute_codes_does(method, case):
    train = grouped_train(NOISY, per_class_train=5)
    state = fit_method(method, train, k=4)
    Y = np.random.default_rng(9).standard_normal((train.m, 3))
    codes = state.compute_codes(Y)
    bad = bad_batches(Y)[case]
    with pytest.raises(RclsError) as want:
        state.compute_codes(bad)
    with pytest.raises(RclsError) as got:
        state.decide_all(codes, bad)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("bad, error", [
    (0.0, ParameterError), (np.nan, DataError), (np.inf, DataError),
])
def test_one_bad_column_fails_the_batch_like_the_sample_alone(method, bad, error):
    train = grouped_train(NOISY, per_class_train=5)
    state = fit_method(method, train, k=4)
    projectors, one_shot = one_shot_coders(train)
    Y = np.random.default_rng(5).standard_normal((train.m, 6))
    Y[:, 4] = 0.0
    Y[2, 4] = bad
    assert_same_error({method: state.compute_code, **one_shot}, Y[:, 4], error, r"\(column 0\)")
    batch_calls = {method: state.compute_codes, **{p: P.code for p, P in projectors.items()}}
    assert_same_error(batch_calls, Y, error, r"\(column 4\)")
    for m in (train.m - 1, train.m + 1):
        assert_same_error(batch_calls, np.ones((m, 3)), DimensionError,
                          f"y has length {m}, X has {train.m} rows")


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


def class_scores(state, codes, Y):
    """C x N scores of the method's rule for the codes of the columns of Y."""
    if isinstance(state, bench.FittedSa):
        return np.column_stack([state.decide(c, y).scores for c, y in zip(codes, Y.T)])
    return state.rule(state.blocks, Y, codes)


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
    S = class_scores(state, codes, Y)

    for j, y in enumerate(Y.T):
        one = state.compute_codes(Y[:, [j]])
        assert np.array_equal(code_matrix(one)[:, 0], A[:, j])
        assert np.array_equal(class_scores(state, one, Y[:, [j]])[:, 0], S[:, j])
        p, t = state.decide_all(one, Y[:, [j]])
        d = state.decide(state.compute_code(y), y)
        assert np.array_equal(d.scores, S[:, j])
        assert p[0] == d.predicted_class == predicted[j]
        assert t[0] == d.tie == tie[j]

    perm = np.random.default_rng(Y.shape[1]).permutation(Y.shape[1])
    shuffled = state.compute_codes(Y[:, perm])
    p, t = state.decide_all(shuffled, Y[:, perm])
    back = np.argsort(perm)
    assert np.array_equal(code_matrix(shuffled)[:, back], A)
    assert np.array_equal(class_scores(state, shuffled, Y[:, perm])[:, back], S)
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
    assert len(rep.accuracies) == 4


def test_one_split_per_trial_for_a_table_or_a_run(monkeypatch):
    seeds = []
    real_split = bench.split

    def recording_split(ds, per_class_train, seed):
        seeds.append(seed)
        return real_split(ds, per_class_train, seed)

    monkeypatch.setattr(bench, "split", recording_split)
    cfgs = [
        ExperimentConfig(
            dataset=NOISY, method=m, per_class_train=5, trials=3, base_seed=17, k=4
        )
        for m in METHODS
    ]
    reports = compare_methods(cfgs)
    assert seeds == [17, 18, 19]
    assert len(reports) == 5
    seeds.clear()
    run_experiment(cfgs[1])
    assert seeds == [17, 18, 19]


def test_single_trial_std_is_zero():
    cfg = ExperimentConfig(dataset=NOISY, method="crc", per_class_train=5, trials=1)
    rep = run_experiment(cfg)
    assert rep.std == 0.0


def test_run_experiment_with_projection(monkeypatch):
    cfg = ExperimentConfig(
        dataset=NOISY, method="crc", per_class_train=5, trials=2, projection_dim=6
    )
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert a == b
    # the per-trial recipe: project with base_seed, then split, select and
    # normalize each selection; normalizing the projected dataset once
    # gives bitwise the same samples, so the same accuracies
    projected = random_project(synth(NOISY), 6, seed=cfg.base_seed)
    for t, acc in enumerate(a.accuracies):
        sp = split(projected, cfg.per_class_train, cfg.base_seed + t)
        train = normalize_columns(take_columns(projected, sp.train_indices))
        test = normalize_columns(take_columns(projected, sp.test_indices))
        state = fit_method(cfg.method, train, lam=cfg.lam)
        predicted = state.decide_all(state.compute_codes(test.X), test.X)[0]
        assert acc == 100.0 * np.count_nonzero(predicted == test.labels) / test.n
    # wider than the data: a config error naming the key, before any trial
    wide = dataclasses.replace(cfg, projection_dim=11)
    monkeypatch.setattr(bench, "split", lambda *args: pytest.fail("a trial ran"))
    message = "projection_dim 11 exceeds the dataset's feature dimension 10"
    with pytest.raises(ConfigError) as exc:
        run_experiment(wide)
    assert str(exc.value) == message
    with pytest.raises(ConfigError) as exc:
        compare_methods([wide, dataclasses.replace(wide, method="src")])
    assert str(exc.value) == message


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
    normalized = []
    real_normalize = bench.normalize_columns

    def counting_normalize(ds):
        normalized.append(ds.n)
        return real_normalize(ds)

    monkeypatch.setattr(bench, "normalize_columns", counting_normalize)
    cfgs = [
        ExperimentConfig(
            dataset=str(path), method=m, per_class_train=5, trials=2, k=4
        )
        for m in ("crc", "sa_procrc")
    ]
    reports = compare_methods(cfgs)
    assert len(calls) == 1
    assert normalized == [synth(NOISY).n]  # the whole file, once per table
    assert reports == tuple(run_experiment(cfg) for cfg in cfgs)


def test_compare_methods_single_row():
    cfg = ExperimentConfig(dataset=NOISY, method="crc", per_class_train=5, trials=2)
    reports = compare_methods([cfg])
    assert len(reports) == 1
    assert reports[0].config.method == "crc"


def test_compare_duplicate_method_rows_identical():
    cfg = ExperimentConfig(dataset=NOISY, method="crc", per_class_train=5, trials=2)
    reports = compare_methods([cfg, cfg])
    assert reports[0] == reports[1]


def test_error_reduction_formula():
    cfgs = [
        ExperimentConfig(dataset=NOISY, method=m, per_class_train=5, trials=3)
        for m in ("crc", "procrc")
    ]
    reports = compare_methods(cfgs)
    reductions = bench.error_reductions(reports)
    err_base = 100.0 - reports[0].mean
    assert err_base > 0.0, "noisy baseline expected to make mistakes"
    for rep, reduction in zip(reports, reductions):
        expected = 100.0 * (err_base - (100.0 - rep.mean)) / err_base
        assert abs(reduction - expected) <= 1e-12
    assert reductions[0] == 0.0


@pytest.mark.filterwarnings("ignore::rcls.errors.ConvergenceWarning")
@pytest.mark.parametrize("C", [1, 2])
def test_every_method_runs_end_to_end_with_one_or_two_classes(C):
    spec = SynthSpec(C=C, ambient_dim=12, subspace_dim=2, per_class=8,
                     noise_sigma=0.3, seed=2)
    cfgs = [
        ExperimentConfig(dataset=spec, method=m, per_class_train=4, trials=2, k=4)
        for m in METHODS
    ]
    reports = compare_methods(cfgs)
    assert reports == tuple(run_experiment(cfg) for cfg in cfgs)
    if C == 1:
        assert all(rep.accuracies == (100.0, 100.0) for rep in reports)


def test_error_reduction_nan_when_baseline_perfect():
    cfg = ExperimentConfig(dataset=CLEAN, method="crc", per_class_train=4, trials=2)
    reports = compare_methods([cfg])
    assert reports[0].mean == 100.0
    assert math.isnan(bench.error_reductions(reports)[0])


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
    reports = compare_methods([cfg])
    ctext = comparison_csv(reports)
    lines = ctext.strip().split("\n")
    assert lines[0] == "method,mean,std,trials,base_seed,err_reduction_pct"
    assert len(lines) == 2
    pretty = comparison_text(reports)
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
    # YAML keys need not be strings
    p2 = write_cfg(tmp_path, SYNTH_BLOCK + "method: crc\n1: a\n", "c2.yaml")
    with pytest.raises(ConfigError, match="unknown config keys: 1"):
        load_experiment_config(p2)
    block = SYNTH_BLOCK.replace("seed: 0", "seed: 0\n  2: b")
    p3 = write_cfg(tmp_path, block + "method: crc\n", "c3.yaml")
    with pytest.raises(ConfigError, match="unknown synth keys: 2"):
        load_experiment_config(p3)


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
    p3 = write_cfg(tmp_path, SYNTH_BLOCK.replace("  ambient_dim: 12\n", "") + "method: crc\n",
                   "c3.yaml")
    with pytest.raises(ConfigError, match="synth is missing required key 'ambient_dim'"):
        load_experiment_config(p3)


def test_load_experiment_config_type_errors(tmp_path):
    p = write_cfg(tmp_path, SYNTH_BLOCK + "method: crc\ntrials: yes\n")
    with pytest.raises(ConfigError):
        load_experiment_config(p)
    p2 = write_cfg(tmp_path, SYNTH_BLOCK + "method: crc\nlambda: soft\n", "c2.yaml")
    with pytest.raises(ConfigError):
        load_experiment_config(p2)
    p3 = write_cfg(tmp_path, "synth: 5\nper_class_train: 4\nmethod: crc\n", "c3.yaml")
    with pytest.raises(ConfigError, match="synth must be a mapping"):
        load_experiment_config(p3)


def test_load_experiment_config_rejects_methods_list(tmp_path):
    p = write_cfg(tmp_path, SYNTH_BLOCK + "methods: [crc]\n")
    with pytest.raises(ConfigError):
        load_experiment_config(p)
    p2 = write_cfg(tmp_path, SYNTH_BLOCK + "method: crc\nmethods: [crc]\n", "c2.yaml")
    with pytest.raises(ConfigError, match="'methods' is only valid in a comparison config"):
        load_experiment_config(p2)


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


# ---------------------------------------------------------------- one verdict per scalar


SCALARS = {
    "int64": np.int64(3), "float64": np.float64(0.5), "bool": True, "float": 2.5,
    "str": "2", "None": None, "nan": float("nan"), "inf": float("inf"), "negative": -1,
}
# parameter, its config key, the method whose fit checks it (None: the
# split seed), and the SCALARS it accepts
VERDICTS = [
    ("lam", "lambda", "crc", {"int64", "float64", "float"}),
    ("gamma", "gamma", "procrc", {"int64", "float64", "float"}),
    ("epsilon", "epsilon", "src", {"int64", "float64", "float"}),
    ("k", "k", "sa_crc", {"int64"}),
    ("base_seed", "base_seed", None, {"int64"}),
]


def accepts(call):
    try:
        call()
    except (ConfigError, ParameterError):
        return False
    return True


@pytest.mark.parametrize("name", list(SCALARS))
@pytest.mark.parametrize(
    "param, key, method, accepted", VERDICTS, ids=[row[0] for row in VERDICTS]
)
def test_each_scalar_gets_one_verdict_everywhere(tmp_path, param, key, method, accepted, name):
    value = SCALARS[name]
    plain = value.item() if isinstance(value, np.generic) else value
    cfg_method = method or "crc"
    p = write_cfg(
        tmp_path, SYNTH_BLOCK + f"method: {cfg_method}\n" + yaml.safe_dump({key: plain})
    )
    if method is None:
        def library():
            split(synth(CLEAN), 4, value)
    else:
        train = grouped_train(CLEAN)

        def library():
            fit_method(method, train, **{param: value})

    verdicts = {
        "ExperimentConfig": accepts(lambda: ExperimentConfig(
            dataset=CLEAN, method=cfg_method, per_class_train=4, **{param: value}
        )),
        "config file": accepts(lambda: load_experiment_config(p)),
        "library": accepts(library),
    }
    assert verdicts == dict.fromkeys(verdicts, name in accepted)
