"""Experiment harness: repeated seeded trials, aggregation, diagnostics.

A run loads (and, when configured, projects) its dataset and normalizes it
once. Each trial draws a fresh train/test split (seed = base_seed + t),
selects both partitions, fits the configured method on the train columns and
classifies every test sample. Accuracies are aggregated as mean and sample
standard deviation. A comparison is one ExperimentReport per method: the
trials run outermost, and each trial's split serves every method, so the
reports differ by method only. A single run is the one-method case.

Wall-clock stage times are collected for information; they are excluded from
report equality so that repeated runs of the same config compare equal.
"""

import logging
import os
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .classify import (
    _decide_one,
    _pick_class,
    _winners,
    build_label_matrix,
    classify_residual,
    fuse_coefficients,
    regularized_residual_scores,
    residual_scores,
    score,
    split_blocks,
)
from .coders import (
    DEFAULT_SPARSITY,
    _l1_columns,
    _omp_columns,
    check_sparsity,
    fit_crc,
    fit_procrc,
)
from .data import (
    SynthSpec,
    atomic_write_bytes,
    load_bin,
    load_csv,
    normalize_columns,
    random_project,
    split,
    synth,
    take_columns,
)
from .errors import (
    ConfigError,
    DatasetError,
    DegenerateFusionError,
    DimensionError,
    ParameterError,
    RclsError,
)
from .linalg import Dictionary, as_sample, as_samples, check_integer, check_param

log = logging.getLogger(__name__)

METHODS = ("src", "crc", "procrc", "sa_crc", "sa_procrc")

DEFAULT_LAM = 0.001
DEFAULT_GAMMA = 0.5
DEFAULT_EPSILON = 0.05
DEFAULT_TRIALS = 10


def check_method(method, lam, gamma, k, epsilon, error):
    """Raise ConfigError on an unknown method, ``error`` unless lambda,
    gamma, k and epsilon (in that order) are finite and > 0, finite and
    >= 0, an integer >= 1 and finite and > 0, read by the method or not."""
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; choose from {', '.join(METHODS)}")
    check_param("lambda", lam, error=error)
    check_param("gamma", gamma, zero_ok=True, error=error)
    check_integer("k", k, 1, error)
    check_param("epsilon", epsilon, error=error)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a repeated-trial run depends on.

    ``dataset`` is either a file path (str) or a SynthSpec. Every field
    is type- and range-checked here, the method and its options first by
    ``check_method``; ``projection_dim`` None means no projection.
    """

    dataset: object
    method: str
    per_class_train: int
    trials: int = DEFAULT_TRIALS
    base_seed: int = 0
    lam: float = DEFAULT_LAM
    gamma: float = DEFAULT_GAMMA
    k: int = DEFAULT_SPARSITY
    epsilon: float = DEFAULT_EPSILON
    projection_dim: int | None = None

    def __post_init__(self):
        check_method(self.method, self.lam, self.gamma, self.k, self.epsilon, ConfigError)
        if not isinstance(self.dataset, (str, os.PathLike, SynthSpec)):
            raise ConfigError("dataset must be a file path or a SynthSpec")
        for name in ("per_class_train", "trials"):
            check_integer(name, getattr(self, name), 1, ConfigError)
        check_integer("base_seed", self.base_seed, 0, ConfigError)
        if self.projection_dim is not None:
            check_integer("projection_dim", self.projection_dim, 1, ConfigError)


@dataclass(frozen=True)
class ExperimentReport:
    """Per-trial accuracies (percent) plus their mean and sample std, for
    ``config``; trial t used the split of seed ``config.base_seed + t``.

    ``stage_seconds`` holds wall-clock totals for the fit/code/classify
    stages; it is informational and excluded from equality comparisons.
    """

    accuracies: tuple
    mean: float
    std: float
    config: ExperimentConfig
    stage_seconds: dict = field(compare=False)


@dataclass(frozen=True)
class SaCodes:
    """The three coefficient vectors of a sparsity-augmented classification.

    ``dense_only`` marks the fallback taken when the sparse and dense codes
    cancel exactly.
    """

    sparse: object
    dense: np.ndarray
    fused: np.ndarray
    dense_only: bool = False


def aggregate_accuracy(accuracies):
    """Mean and sample standard deviation (n-1 denominator) of per-trial
    accuracies; a single trial has std 0.0 by convention."""
    arr = np.asarray(accuracies, dtype=np.float64)
    mean = float(arr.mean())
    std = 0.0 if arr.size == 1 else float(arr.std(ddof=1))
    return mean, std


class _FittedResidual:
    """A coder and a class-wise residual rule over the training blocks:
    l1 code with the plain rule (src), ridge projector with the regularized
    rule (crc), class-consistent projector with the plain rule (procrc).

    ``compute_codes``, the coder, checks the test samples in the columns of
    Y once for the batch and maps them to codes (n x N), ``rule`` to C x N
    scores whose column minimum wins. ``compute_code`` and ``decide`` are
    the one-column case.
    """

    def __init__(self, method, coder, rule, blocks):
        self.method = method
        self.compute_codes = coder
        self.rule = rule
        self.blocks = blocks

    def decide_all(self, codes, Y):
        """Predicted classes (1-based) and exact-tie flags of the samples
        that ``compute_codes`` checked."""
        scores = self.rule(self.blocks, Y, codes)
        winner, tie = _winners(scores, scores.min(axis=0))
        return winner + 1, tie

    def compute_code(self, y):
        return self.compute_codes(as_sample(y, self.blocks[0].shape[0]))[:, 0]

    def decide(self, code, y):
        return _decide_one(self.rule, self.blocks, y, code)


class FittedSa:
    """Dense code + greedy sparse code, fused and scored per class.

    compute_code/decide are split so code computation and decision can be
    timed separately. When the two codes cancel exactly, the normalized
    dense code is scored alone and the fallback is logged. ``D`` is the
    train Dictionary. A batch's dense codes are one product and its sparse
    codes one lockstep pursuit (``_omp_columns``); fusion and ``decide``
    run per sample. ``compute_code`` is the one-column case of
    ``compute_codes``.
    """

    def __init__(self, method, projector, D, L, k, blocks):
        self.method = method
        self.projector = projector
        self.D = D
        self.L = L
        self.k = k
        self.blocks = blocks

    def compute_codes(self, Y):
        """One SaCodes per test sample (column of Y, checked once)."""
        dense = _project_batch(self.projector, Y, self.D.X.shape[0])
        sparse = _omp_columns(self.D, np.asarray(Y, float), self.k)
        return [self._fuse(sp, d) for sp, d in zip(sparse, dense.T)]

    def _fuse(self, sp, dense):
        try:
            return SaCodes(sparse=sp, dense=dense, fused=fuse_coefficients(sp.coeffs, dense))
        except DegenerateFusionError:
            fused = fuse_coefficients(np.zeros_like(dense), dense)
        log.warning(
            "degenerate fusion: sparse and dense codes cancel; "
            "falling back to dense-only scoring"
        )
        return SaCodes(sparse=sp, dense=dense, fused=fused, dense_only=True)

    def decide_all(self, codes, Y):
        """Predicted classes (1-based) and exact-tie flags, one ``decide``
        per sample; one code per column of Y, or DimensionError."""
        if len(codes) != Y.shape[1]:
            raise DimensionError(f"{len(codes)} codes for {Y.shape[1]} samples")
        decisions = [self.decide(code, y) for code, y in zip(codes, Y.T)]
        return (
            np.array([d.predicted_class for d in decisions]),
            np.array([d.tie for d in decisions]),
        )

    def compute_code(self, y):
        return self.compute_codes(as_sample(y, self.D.X.shape[0]))[0]

    def decide(self, code, y):
        q = score(self.L, code.fused)
        return _pick_class(q, q.max())


def _project_batch(projector, Y, m):
    """``projector.code`` of a batch, the columns of Y, checked once."""
    if np.ndim(Y) != 2:  # ``code`` would take a 1-D Y as one sample
        as_samples(Y, m)  # raises: a batch is a matrix
    return projector.code(Y)


def fit_method(
    method,
    train,
    lam=DEFAULT_LAM,
    gamma=DEFAULT_GAMMA,
    k=DEFAULT_SPARSITY,
    epsilon=DEFAULT_EPSILON,
):
    """Fit one of the five methods on a training Dataset.

    The train columns must be grouped by class (the order produced by
    split + take_columns). One Dictionary of the train columns, checked
    once, serves every stage. What a sparse coder reads of it is checked
    or built here, after the parameters, so coding a sample builds and
    checks nothing: the unit norms (``sa_*``, ``src``; ``crc`` and ``procrc``
    take any columns), G for OMP (``sa_*``) and the step bound (``src``).
    The dense fits and the step bound read G only when m >= n. All options
    pass ``check_method`` first, for every method; ``sa_*`` needs k <= min(m, n).
    """
    check_method(method, lam, gamma, k, epsilon, ParameterError)
    labels = np.asarray(train.labels)
    if (np.diff(labels) < 0).any():
        raise DatasetError("training columns must be grouped by class")
    if method.startswith("sa_"):
        check_sparsity(k, train.m, train.n)
    sizes = train.class_sizes
    blocks = split_blocks(train.X, sizes)
    D = Dictionary(train.X)
    if method == "src":
        D.unit_norms
        D.lipschitz  # the l1 step bound is part of the fit, not of a sample
        def coder(Y):
            return _l1_columns(D, as_samples(Y, train.m), epsilon)

        return _FittedResidual(method, coder, residual_scores, blocks)
    if method in ("crc", "sa_crc"):
        projector = fit_crc(D, lam)
    else:
        projector = fit_procrc(D, sizes, lam, gamma)
    if method in ("crc", "procrc"):
        rule = regularized_residual_scores if method == "crc" else residual_scores
        return _FittedResidual(method, partial(_project_batch, projector, m=train.m), rule, blocks)
    L = build_label_matrix(train.labels, train.C)
    D.unit_norms
    D.G  # the pursuit reads G: build it with the fit, not with the first sample
    return FittedSa(method, projector, D, L, k, blocks)


def _fit_options(opts, train):
    """``fit_method`` of ``opts.method`` with the four options ``opts``
    carries: an ExperimentConfig, or the CLI's method flags."""
    return fit_method(opts.method, train, lam=opts.lam, gamma=opts.gamma, k=opts.k,
                      epsilon=opts.epsilon)


def load_source(source):
    """Materialize a config's dataset: synthesize a SynthSpec, or load a
    file (.csv as text, anything else as the binary container)."""
    if isinstance(source, SynthSpec):
        return synth(source)
    path = os.fspath(source)
    if path.lower().endswith(".csv"):
        return load_csv(path)
    return load_bin(path)


def _annotate(err, t, seed):
    if err.args and isinstance(err.args[0], str):
        err.args = (
            f"{err.args[0]} (while running trial {t}, seed {seed})",
        ) + err.args[1:]
    return err


def run_experiment(cfg):
    """Run the configured repeated-trial evaluation: the one-row case of
    ``compare_methods``.

    Fully deterministic given the config: trial t uses seed base_seed + t
    for its split, and a dataset-level random projection (when configured)
    uses base_seed. The dataset is normalized once, after it is loaded and
    projected, not per trial. Returns an ExperimentReport.
    """
    return compare_methods((cfg,))[0]


def _run_trials(ds, cfgs):
    """One ExperimentReport per config, the trials outermost: each trial
    is split and selected once from the normalized dataset ``ds``, and
    every config is fitted, coded and scored on it. The configs share
    per_class_train, trials and base_seed."""
    first = cfgs[0]
    stages = [{"fit": 0.0, "code": 0.0, "classify": 0.0} for _ in cfgs]
    accuracies = [[] for _ in cfgs]
    for t in range(first.trials):
        seed = first.base_seed + t
        try:
            sp = split(ds, first.per_class_train, seed)
            train = take_columns(ds, sp.train_indices)
            test = take_columns(ds, sp.test_indices)
            for cfg, stage, acc in zip(cfgs, stages, accuracies):
                acc.append(_run_trial(train, test, cfg, stage))
        except RclsError as err:
            raise _annotate(err, t, seed)
    reports = []
    for cfg, stage, acc in zip(cfgs, stages, accuracies):
        mean, std = aggregate_accuracy(acc)
        reports.append(ExperimentReport(
            accuracies=tuple(acc), mean=mean, std=std, config=cfg, stage_seconds=stage,
        ))
    return tuple(reports)


def _run_trial(train, test, cfg, stage):
    """Accuracy (percent) of ``cfg``'s method on one trial's normalized
    partitions; the fit, code and classify times add to ``stage``."""
    t0 = time.perf_counter()
    state = _fit_options(cfg, train)
    stage["fit"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    codes = state.compute_codes(test.X)
    stage["code"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    predicted = state.decide_all(codes, test.X)[0]
    correct = int(np.count_nonzero(predicted == test.labels))
    stage["classify"] += time.perf_counter() - t0

    return 100.0 * correct / test.n


def compare_methods(cfgs):
    """Run several configs over shared splits: one ExperimentReport per
    config, in order, each equal to ``run_experiment``'s for that config.

    All configs must agree on everything except the method (same dataset,
    split sizes, trial count, seeds, projection); the splits are then
    identical across rows and differences are attributable to the method.
    The dataset is loaded, projected and normalized once for the whole
    table, and each trial split once, so the table fails at the first
    trial where any row fails.
    """
    cfgs = list(cfgs)
    if not cfgs:
        raise ConfigError("compare_methods needs at least one config")
    first = cfgs[0]
    shared = ("dataset", "per_class_train", "trials", "base_seed", "projection_dim")
    for cfg in cfgs[1:]:
        for name in shared:
            if getattr(cfg, name) != getattr(first, name):
                raise ConfigError(
                    f"configs disagree on {name}: "
                    f"{getattr(first, name)!r} vs {getattr(cfg, name)!r}"
                )
    ds = load_source(first.dataset)
    if first.projection_dim is not None:
        try:
            ds = random_project(ds, first.projection_dim, seed=first.base_seed)
        except ParameterError as err:  # the one check left: target_dim <= m
            raise ConfigError(f"projection_dim {str(err).partition(' ')[2]}") from None
    ds = normalize_columns(ds)
    return _run_trials(ds, cfgs)


def error_reductions(reports):
    """Error-rate reduction (percent) of each report relative to the first
    (baseline): 100 * (err_base - err) / err_base, with err = 100 - mean;
    nan for every report when the baseline error is zero."""
    err_base = 100.0 - reports[0].mean
    if err_base > 0.0:
        return [100.0 * (err_base - (100.0 - rep.mean)) / err_base for rep in reports]
    return [float("nan")] * len(reports)


def describe_source(source):
    if isinstance(source, SynthSpec):
        return (
            f"synth(C={source.C}, ambient_dim={source.ambient_dim}, "
            f"subspace_dim={source.subspace_dim}, per_class={source.per_class}, "
            f"noise_sigma={source.noise_sigma:g}, seed={source.seed})"
        )
    return os.fspath(source)


def report_csv(report):
    """Single-method report as CSV (full-precision floats)."""
    return (
        "method,mean,std,trials,base_seed\n"
        f"{report.config.method},{report.mean!r},{report.std!r},"
        f"{report.config.trials},{report.config.base_seed}\n"
    )


def report_text(report):
    cfg = report.config
    acc = ", ".join(f"{a:.2f}" for a in report.accuracies)
    return "\n".join([
        f"method: {cfg.method}",
        f"dataset: {describe_source(cfg.dataset)}",
        f"trials: {cfg.trials}  per-class train: {cfg.per_class_train}  "
        f"base seed: {cfg.base_seed}",
        f"per-trial accuracy (%): {acc}",
        f"mean +/- std: {report.mean:.2f} +/- {report.std:.2f}",
    ]) + "\n"


def comparison_csv(reports):
    lines = ["method,mean,std,trials,base_seed,err_reduction_pct"]
    for rep, reduction in zip(reports, error_reductions(reports)):
        cfg = rep.config
        lines.append(
            f"{cfg.method},{rep.mean!r},{rep.std!r},{cfg.trials},{cfg.base_seed},"
            f"{reduction!r}"
        )
    return "\n".join(lines) + "\n"


def comparison_text(reports):
    lines = [
        f"{'method':<12} {'mean':>8} {'std':>8} {'trials':>6} {'seed':>6} "
        f"{'err.red.%':>10}"
    ]
    for rep, reduction in zip(reports, error_reductions(reports)):
        cfg = rep.config
        lines.append(
            f"{cfg.method:<12} {rep.mean:>8.2f} {rep.std:>8.2f} {cfg.trials:>6d} "
            f"{cfg.base_seed:>6d} {reduction:>10.2f}"
        )
    return "\n".join(lines) + "\n"


def stage_summary(stage_seconds):
    return " ".join(f"{k}={v:.3f}s" for k, v in stage_seconds.items())


def _diag_csv(indices, classes, values):
    lines = ["index,class,value"]
    for i, c, v in zip(indices, classes, values):
        lines.append(f"{i},{c},{float(v)!r}")
    return "\n".join(lines) + "\n"


def dump_diagnostics(state, y, out_dir):
    """Classify one sample and dump per-atom and per-class CSV diagnostics.

    Writes coefficients.csv (index, class, value: the coefficient vector the
    decision uses), residuals.csv (per-class plain residuals of the dense
    code for the augmented methods, of the method's own code otherwise) and
    scores.csv (the decision scores). Augmented methods additionally get
    coefficients_sparse.csv and coefficients_dense.csv.

    Returns the decision and the mapping of file name to path.
    """
    os.makedirs(out_dir, exist_ok=True)
    code = state.compute_code(y)
    decision = state.decide(code, y)
    if isinstance(code, SaCodes):
        coeff = code.fused
        resid_code = code.dense
        extra = {
            "coefficients_sparse.csv": code.sparse.coeffs,
            "coefficients_dense.csv": code.dense,
        }
    else:
        coeff = code
        resid_code = code
        extra = {}

    sizes = [b.shape[1] for b in state.blocks]
    C = len(sizes)
    atom_classes = np.repeat(np.arange(1, C + 1), sizes)
    n = int(sum(sizes))
    residuals = classify_residual(state.blocks, y, resid_code).scores

    files = {
        "coefficients.csv": _diag_csv(range(n), atom_classes, coeff),
        "residuals.csv": _diag_csv(range(C), range(1, C + 1), residuals),
        "scores.csv": _diag_csv(range(C), range(1, C + 1), decision.scores),
    }
    for fname, vec in extra.items():
        files[fname] = _diag_csv(range(n), atom_classes, vec)

    written = {}
    for fname, text in files.items():
        path = os.path.join(out_dir, fname)
        atomic_write_bytes(path, text.encode("utf-8"))
        written[fname] = path
    return decision, written


# config key -> ExperimentConfig field, and synth key -> SynthSpec field.
# The reader only renames keys: the two records check every value.
_FIELDS = {"lambda": "lam", **{key: key for key in (
    "dataset", "method", "per_class_train", "trials", "base_seed", "gamma",
    "k", "epsilon", "projection_dim",
)}}
_SYNTH_FIELDS = {"classes": "C", **{key: key for key in (
    "ambient_dim", "subspace_dim", "per_class", "noise_sigma", "seed",
)}}


def _build(record, fields, node, path, prefix=""):
    """``record`` of the config mapping ``node``, its keys renamed through
    ``fields``. The record's checks name the field first; an error they
    raise becomes a ConfigError that names the config key instead."""
    try:
        return record(**{fields[key]: value for key, value in node.items()})
    except RclsError as err:
        field, _, rest = str(err).partition(" ")
        key = {f: k for k, f in fields.items()}.get(field, field)
        raise ConfigError(f"{path}: {prefix}{key} {rest}") from None


def _parse_synth(node, path):
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: synth must be a mapping")
    unknown = set(node) - set(_SYNTH_FIELDS)
    if unknown:
        raise ConfigError(f"{path}: unknown synth keys: {', '.join(sorted(map(str, unknown)))}")
    for req in ("classes", "ambient_dim", "subspace_dim", "per_class"):
        if req not in node:
            raise ConfigError(f"{path}: synth is missing required key {req!r}")
    return _build(SynthSpec, _SYNTH_FIELDS, node, path, "synth.")


def _parse_doc(path):
    """The config mapping, and its keys other than ``synth`` and
    ``methods`` with ``synth`` read as the ``dataset`` SynthSpec."""
    import yaml  # here, so that only reading a config loads PyYAML

    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: invalid config syntax: {err}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping of keys to values")
    unknown = set(doc) - set(_FIELDS) - {"synth", "methods"}
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(sorted(map(str, unknown)))}")
    if ("dataset" in doc) == ("synth" in doc):
        raise ConfigError(f"{path}: exactly one of 'dataset' or 'synth' is required")
    if "per_class_train" not in doc:
        raise ConfigError(f"{path}: per_class_train is required")
    node = {key: value for key, value in doc.items() if key in _FIELDS}
    if "synth" in doc:
        node["dataset"] = _parse_synth(doc["synth"], path)
    return doc, node


def load_experiment_config(path):
    """Parse a single-method experiment config (YAML mapping). Unknown keys
    are rejected, and so is every value ExperimentConfig or SynthSpec
    rejects, with a ConfigError that names the key."""
    doc, node = _parse_doc(path)
    if "method" not in doc:
        raise ConfigError(f"{path}: method is required")
    if "methods" in doc:
        raise ConfigError(f"{path}: 'methods' is only valid in a comparison config")
    return _build(ExperimentConfig, _FIELDS, node, path)


def load_compare_configs(path):
    """Parse a comparison config: like an experiment config but with a
    'methods' list; one config per method, all other fields shared."""
    doc, node = _parse_doc(path)
    if "method" in doc:
        raise ConfigError(f"{path}: use 'methods' (a list) in a comparison config")
    methods = doc.get("methods")
    if not isinstance(methods, list) or not methods:
        raise ConfigError(f"{path}: methods must be a nonempty list")
    return tuple(
        _build(ExperimentConfig, _FIELDS, {**node, "method": m}, path) for m in methods
    )
