"""Experiment harness: repeated seeded trials, aggregation, diagnostics.

Each trial draws a fresh train/test split (seed = base_seed + t), normalizes
both partitions, fits the configured method on the train columns and
classifies every test sample. Accuracies are aggregated as mean and sample
standard deviation. Comparisons run several methods over identical splits so
rows differ by method only.

Wall-clock stage times are collected for information; they are excluded from
report equality so that repeated runs of the same config compare equal.
"""

import logging
import os
import time
from dataclasses import dataclass, field

import numpy as np
import yaml

from .classify import (
    _decide_one,
    _pick_class,
    _winners,
    build_label_matrix,
    fuse_coefficients,
    regularized_residual_scores,
    residual_scores,
    score,
    split_blocks,
)
from .coders import (
    DEFAULT_SPARSITY,
    check_param,
    fit_crc,
    fit_procrc,
    l1_solve,
    omp,
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
from .linalg import Dictionary, as_samples

log = logging.getLogger(__name__)

METHODS = ("src", "crc", "procrc", "sa_crc", "sa_procrc")

DEFAULT_LAM = 0.001
DEFAULT_GAMMA = 0.5
DEFAULT_EPSILON = 0.05
DEFAULT_TRIALS = 10

def _is_count(value):
    """True for a genuine integer >= 1 (bool is an int subclass but is not a
    count)."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


# Parameters each method actually consumes; the rest are ignored.
_REQUIRED_PARAMS = {
    "src": ("epsilon",),
    "crc": ("lam",),
    "procrc": ("lam", "gamma"),
    "sa_crc": ("lam", "k"),
    "sa_procrc": ("lam", "gamma", "k"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a repeated-trial run depends on.

    ``dataset`` is either a file path (str) or a SynthSpec. Parameters not
    used by ``method`` are carried but ignored.
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
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; choose from {', '.join(METHODS)}"
            )
        if not isinstance(self.dataset, (str, os.PathLike, SynthSpec)):
            raise ConfigError("dataset must be a file path or a SynthSpec")
        if not _is_count(self.trials):
            raise ConfigError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not _is_count(self.per_class_train):
            raise ConfigError(
                f"per_class_train must be an integer >= 1, got {self.per_class_train!r}"
            )
        if self.projection_dim is not None and not _is_count(self.projection_dim):
            raise ConfigError(
                f"projection_dim must be an integer >= 1, got {self.projection_dim!r}"
            )
        for p in _REQUIRED_PARAMS[self.method]:
            if getattr(self, p) is None:
                raise ConfigError(f"method {self.method!r} requires parameter {p!r}")
        for p in ("lam", "gamma", "epsilon"):
            if getattr(self, p) is not None:
                check_param(p, getattr(self, p), zero_ok=p == "gamma", error=ConfigError)
        if self.k is not None and not _is_count(self.k):
            raise ConfigError(f"k must be an integer >= 1, got {self.k!r}")


@dataclass(frozen=True)
class ExperimentReport:
    """Per-trial accuracies (percent) plus their mean and sample std.

    ``stage_seconds`` holds wall-clock totals for the fit/code/classify
    stages; it is informational and excluded from equality comparisons.
    """

    accuracies: tuple
    mean: float
    std: float
    trial_seeds: tuple
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


def _column(y):
    """One test sample as a one-column batch."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise DimensionError(f"y must be 1-D, got ndim={y.ndim}")
    return y[:, None]


class _FittedResidual:
    """A coder and a class-wise residual rule over the training blocks:
    l1 code with the plain rule (src), ridge projector with the regularized
    rule (crc), class-consistent projector with the plain rule (procrc).

    ``coder`` maps test samples (columns) to codes (columns), ``rule`` to
    C x N scores whose column minimum wins. ``compute_code`` and ``decide``
    are the one-column case.
    """

    def __init__(self, method, coder, rule, blocks):
        self.method = method
        self.coder = coder
        self.rule = rule
        self.blocks = blocks

    def compute_codes(self, Y):
        """Codes (n x N) of the test samples in the columns of Y, which are
        checked here, once for the batch."""
        return self.coder(as_samples(Y, self.blocks[0].shape[0]))

    def decide_all(self, codes, Y):
        """Predicted classes (1-based) and exact-tie flags of the samples
        that ``compute_codes`` checked."""
        scores = self.rule(self.blocks, Y, codes)
        winner, tie = _winners(scores, scores.min(axis=0))
        return winner + 1, tie

    def compute_code(self, y):
        return self.compute_codes(_column(y))[:, 0]

    def decide(self, code, y):
        return _decide_one(self.rule, self.blocks, y, code)


class FittedSa:
    """Dense code + greedy sparse code, fused and scored per class.

    compute_code/decide are split so code computation and decision can be
    timed separately. When the two codes cancel exactly, the normalized
    dense code is scored alone and the fallback is logged. ``D`` is the
    train Dictionary, shared by every sample's pursuit. A batch's dense
    codes are one product; the pursuit, fusion and ``decide`` run per
    sample. ``compute_code`` is the one-column case of ``compute_codes``.
    """

    def __init__(self, method, projector, D, L, k, blocks):
        self.method = method
        self.projector = projector
        self.D = D
        self.L = L
        self.k = k
        self.blocks = blocks

    def compute_codes(self, Y):
        """One SaCodes per test sample (column of Y, checked here)."""
        Y = as_samples(Y, self.D.X.shape[0])
        dense = self.projector.code(Y)
        return [self._fuse(omp(self.D, y, self.k), d) for y, d in zip(Y.T, dense.T)]

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
        per sample."""
        decisions = [self.decide(code, y) for code, y in zip(codes, Y.T)]
        return (
            np.array([d.predicted_class for d in decisions]),
            np.array([d.tie for d in decisions]),
        )

    def compute_code(self, y):
        return self.compute_codes(_column(y))[0]

    def decide(self, code, y):
        q = score(self.L, code.fused)
        return _pick_class(q, q.max())


def fit_method(
    method,
    train,
    lam=DEFAULT_LAM,
    gamma=DEFAULT_GAMMA,
    k=DEFAULT_SPARSITY,
    epsilon=DEFAULT_EPSILON,
):
    """Fit one of the five methods on a training Dataset.

    The train columns must be unit-normalized and grouped by class (the
    order produced by split + take_columns). One Dictionary of the train
    columns, checked and its Gram matrix built once, serves every stage.
    """
    if method not in METHODS:
        raise ConfigError(
            f"unknown method {method!r}; choose from {', '.join(METHODS)}"
        )
    labels = np.asarray(train.labels)
    if (np.diff(labels) < 0).any():
        raise DatasetError("training columns must be grouped by class")
    if method.startswith("sa_") and not 1 <= k <= min(train.m, train.n):
        raise ParameterError(
            f"k must be in [1, {min(train.m, train.n)}] for {train.m}-dimensional "
            f"samples and {train.n} training atoms, got {k}"
        )
    sizes = train.class_sizes
    blocks = split_blocks(train.X, sizes)
    D = Dictionary(train.X)
    if method == "src":
        D.lipschitz  # the l1 step bound is part of the fit, not of a sample
        def coder(Y):
            return np.column_stack([l1_solve(D, y, epsilon=epsilon) for y in Y.T])

        return _FittedResidual(method, coder, residual_scores, blocks)
    if method in ("crc", "sa_crc"):
        projector = fit_crc(D, lam)
    else:
        projector = fit_procrc(D, sizes, lam, gamma)
    if method == "crc":
        return _FittedResidual(
            method, projector.code, regularized_residual_scores, blocks
        )
    if method == "procrc":
        return _FittedResidual(method, projector.code, residual_scores, blocks)
    L = build_label_matrix(train.labels, train.C)
    return FittedSa(method, projector, D, L, k, blocks)


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
    """Run the configured repeated-trial evaluation.

    Fully deterministic given the config: trial t uses seed base_seed + t
    for its split, and a dataset-level random projection (when configured)
    uses base_seed. Returns an ExperimentReport.
    """
    return _run_trials(_load_projected(cfg), cfg)


def _load_projected(cfg):
    ds = load_source(cfg.dataset)
    if cfg.projection_dim is not None:
        ds = random_project(ds, cfg.projection_dim, seed=cfg.base_seed)
    return ds


def _run_trials(ds, cfg):
    seeds = tuple(cfg.base_seed + t for t in range(cfg.trials))
    stage = {"fit": 0.0, "code": 0.0, "classify": 0.0}
    accuracies = []
    for t, seed in enumerate(seeds):
        try:
            accuracies.append(_run_trial(ds, cfg, seed, stage))
        except RclsError as err:
            raise _annotate(err, t, seed)
    mean, std = aggregate_accuracy(accuracies)
    return ExperimentReport(
        accuracies=tuple(accuracies),
        mean=mean,
        std=std,
        trial_seeds=seeds,
        config=cfg,
        stage_seconds=stage,
    )


def _run_trial(ds, cfg, seed, stage):
    sp = split(ds, cfg.per_class_train, seed)
    train = normalize_columns(take_columns(ds, sp.train_indices))
    test = normalize_columns(take_columns(ds, sp.test_indices))

    t0 = time.perf_counter()
    state = fit_method(
        cfg.method, train,
        lam=cfg.lam, gamma=cfg.gamma, k=cfg.k, epsilon=cfg.epsilon,
    )
    stage["fit"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    codes = state.compute_codes(test.X)
    stage["code"] += time.perf_counter() - t0

    t0 = time.perf_counter()
    predicted = state.decide_all(codes, test.X)[0]
    correct = int(np.count_nonzero(predicted == test.labels))
    stage["classify"] += time.perf_counter() - t0

    return 100.0 * correct / test.n


@dataclass(frozen=True)
class ComparisonRow:
    method: str
    mean: float
    std: float
    trials: int
    base_seed: int
    err_reduction_pct: float


@dataclass(frozen=True)
class ComparisonTable:
    """One row per compared method, identical splits throughout.

    ``err_reduction_pct`` is the reduction of the error rate relative to the
    first (baseline) row: 100 * (err_base - err) / err_base; nan when the
    baseline error is zero.
    """

    rows: tuple
    reports: tuple


def compare_methods(cfgs):
    """Run several configs over shared splits and tabulate them.

    All configs must agree on everything except the method (same dataset,
    split sizes, trial count, seeds, projection); the splits are then
    identical across rows and differences are attributable to the method.
    The dataset is loaded once for the whole table.
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
    ds = _load_projected(first)
    reports = tuple(_run_trials(ds, cfg) for cfg in cfgs)
    err_base = 100.0 - reports[0].mean
    rows = []
    for rep in reports:
        err = 100.0 - rep.mean
        if err_base > 0.0:
            reduction = 100.0 * (err_base - err) / err_base
        else:
            reduction = float("nan")
        rows.append(
            ComparisonRow(
                method=rep.config.method,
                mean=rep.mean,
                std=rep.std,
                trials=rep.config.trials,
                base_seed=rep.config.base_seed,
                err_reduction_pct=reduction,
            )
        )
    return ComparisonTable(rows=tuple(rows), reports=reports)


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


def comparison_csv(table):
    lines = ["method,mean,std,trials,base_seed,err_reduction_pct"]
    for r in table.rows:
        lines.append(
            f"{r.method},{r.mean!r},{r.std!r},{r.trials},{r.base_seed},"
            f"{r.err_reduction_pct!r}"
        )
    return "\n".join(lines) + "\n"


def comparison_text(table):
    lines = [
        f"{'method':<12} {'mean':>8} {'std':>8} {'trials':>6} {'seed':>6} "
        f"{'err.red.%':>10}"
    ]
    for r in table.rows:
        lines.append(
            f"{r.method:<12} {r.mean:>8.2f} {r.std:>8.2f} {r.trials:>6d} "
            f"{r.base_seed:>6d} {r.err_reduction_pct:>10.2f}"
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
    residuals = residual_scores(state.blocks, _column(y), resid_code[:, None])[:, 0]

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


_TOP_KEYS = {
    "dataset", "synth", "method", "methods", "lambda", "gamma", "k",
    "epsilon", "per_class_train", "trials", "base_seed", "projection_dim",
}
_SYNTH_KEYS = {"classes", "ambient_dim", "subspace_dim", "per_class",
               "noise_sigma", "seed"}


def _as_int(value, key):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, key):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _parse_synth(node):
    if not isinstance(node, dict):
        raise ConfigError("synth must be a mapping")
    unknown = set(node) - _SYNTH_KEYS
    if unknown:
        raise ConfigError(f"unknown synth keys: {', '.join(sorted(unknown))}")
    for req in ("classes", "ambient_dim", "subspace_dim", "per_class"):
        if req not in node:
            raise ConfigError(f"synth is missing required key {req!r}")
    return SynthSpec(
        C=_as_int(node["classes"], "synth.classes"),
        ambient_dim=_as_int(node["ambient_dim"], "synth.ambient_dim"),
        subspace_dim=_as_int(node["subspace_dim"], "synth.subspace_dim"),
        per_class=_as_int(node["per_class"], "synth.per_class"),
        noise_sigma=_as_float(node.get("noise_sigma", 0.0), "synth.noise_sigma"),
        seed=_as_int(node.get("seed", 0), "synth.seed"),
    )


def _parse_doc(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: invalid config syntax: {err}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config must be a mapping of keys to values")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    if ("dataset" in doc) == ("synth" in doc):
        raise ConfigError(f"{path}: exactly one of 'dataset' or 'synth' is required")
    if "dataset" in doc:
        if not isinstance(doc["dataset"], str):
            raise ConfigError(f"{path}: dataset must be a file path string")
        source = doc["dataset"]
    else:
        source = _parse_synth(doc["synth"])
    if "per_class_train" not in doc:
        raise ConfigError(f"{path}: per_class_train is required")
    kwargs = {
        "dataset": source,
        "per_class_train": _as_int(doc["per_class_train"], "per_class_train"),
    }
    if "trials" in doc:
        kwargs["trials"] = _as_int(doc["trials"], "trials")
    if "base_seed" in doc:
        kwargs["base_seed"] = _as_int(doc["base_seed"], "base_seed")
    if "lambda" in doc:
        kwargs["lam"] = _as_float(doc["lambda"], "lambda")
    if "gamma" in doc:
        kwargs["gamma"] = _as_float(doc["gamma"], "gamma")
    if "k" in doc:
        kwargs["k"] = _as_int(doc["k"], "k")
    if "epsilon" in doc:
        kwargs["epsilon"] = _as_float(doc["epsilon"], "epsilon")
    if "projection_dim" in doc:
        kwargs["projection_dim"] = _as_int(doc["projection_dim"], "projection_dim")
    return doc, kwargs


def load_experiment_config(path):
    """Parse a single-method experiment config (YAML mapping). Unknown keys
    are rejected."""
    doc, kwargs = _parse_doc(path)
    if "method" not in doc:
        raise ConfigError(f"{path}: method is required")
    if "methods" in doc:
        raise ConfigError(f"{path}: 'methods' is only valid in a comparison config")
    if not isinstance(doc["method"], str):
        raise ConfigError(f"{path}: method must be a string")
    return ExperimentConfig(method=doc["method"], **kwargs)


def load_compare_configs(path):
    """Parse a comparison config: like an experiment config but with a
    'methods' list; one config per method, all other fields shared."""
    doc, kwargs = _parse_doc(path)
    if "method" in doc:
        raise ConfigError(f"{path}: use 'methods' (a list) in a comparison config")
    methods = doc.get("methods")
    if not isinstance(methods, list) or not methods:
        raise ConfigError(f"{path}: methods must be a nonempty list")
    for m in methods:
        if not isinstance(m, str):
            raise ConfigError(f"{path}: methods entries must be strings, got {m!r}")
    return tuple(ExperimentConfig(method=m, **kwargs) for m in methods)
