"""Benchmark for rcls: closed-loop throughput of the library and the CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload yaleb --seed 1 --seconds 45 --trace 0

One process, one caller, no concurrency. A run makes
``max(1, --seconds // round_s)`` whole rounds, where ``round_s`` is the
workload's nominal round length, so the work in a run does not depend on
the machine's speed. A round is a fixed schedule of timing windows: each
method through ``rcls.run_experiment`` and each ``rcls`` CLI step (convert,
classify, compare), each many times, interleaved so that every operation
samples the machine over the whole run. A timing metric is taken at the
upper quartile of its window times (see ``upper_quartile``). Every
workload runs every operation; the
workloads differ in shapes and sizes, which decides the layer that
dominates (see README.md).

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the same rounds run with spans
recorded around rcls's public functions (the CLI then runs in-process) and
the JSON carries the per-layer metrics, per round. After the timed rounds
the outputs are checked against the benchmark's own oracles (checks.py).
"""

import os

# One BLAS thread, fixed before numpy is imported here or in any child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

METHODS = ("src", "crc", "procrc", "sa_crc", "sa_procrc")
CLI_STEPS = ("convert", "classify", "compare")
LAM, GAMMA, K, EPSILON = 0.001, 0.5, 50, 0.05
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 150
# Window w of a method splits with seeds seed + WINDOW_SEED_STEP * w + t.
WINDOW_SEED_STEP = 100


def upper_quartile(values):
    """The 75th percentile of window times.

    Window times on the shared host are bimodal: a slow state that every
    run spends most of its time in, and fast spells of a few seconds whose
    share changes from run to run. A median over windows jumps between the
    two states as that share nears one half; the upper quartile stays in
    the slow state.
    """
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[2]


@dataclass(frozen=True)
class Shape:
    C: int
    m: int
    s: int  # class subspace dimension
    sigma: float
    train: int  # training samples per class


@dataclass(frozen=True)
class Workload:
    lib_shape: Shape
    lib_runs: dict  # method -> (samples per class, trials, windows per round)
    cli_windows: int  # windows per round of each CLI step
    round_s: float  # nominal round length on the reference machine


YALEB = Shape(C=38, m=504, s=9, sigma=0.1, train=32)
SMALL = Shape(C=10, m=50, s=5, sigma=0.2, train=20)
# The files every workload's CLI steps run on.
CLI_SHAPE = Shape(C=10, m=50, s=5, sigma=0.1, train=20)
CLI_TEST_PER_CLASS = 10
CLI_COMPARE_PER_CLASS = 40

WORKLOADS = {
    # The paper's setting; per-sample solver kernels dominate. src's one
    # test sample per class costs ~18 s, so it gets a single window.
    "yaleb": Workload(
        lib_shape=YALEB,
        lib_runs={"src": (33, 1, 1), "crc": (40, 1, 6), "procrc": (40, 1, 6),
                  "sa_crc": (33, 1, 2), "sa_procrc": (33, 1, 2)},
        cli_windows=8, round_s=45.0,
    ),
    # Tiny kernels: per-sample Python overhead and validation dominate.
    # Many short windows per operation, so the upper quartile of each
    # operation's window times rests on 9-26 of them.
    "small_dict": Workload(
        lib_shape=SMALL,
        lib_runs={"src": (22, 1, 18), "crc": (120, 1, 26), "procrc": (120, 1, 26),
                  "sa_crc": (23, 1, 18), "sa_procrc": (23, 1, 18)},
        cli_windows=9, round_s=45.0,
    ),
}

END_TO_END = (
    [("setup_s", "s"), ("peak_rss_mb", "MB")]
    + [(f"{m}.samples_per_s", "samples/s") for m in METHODS]
    + [(f"{m}.accuracy_pct", "%") for m in METHODS]
    + [(f"cli.{step}_s", "s") for step in CLI_STEPS]
)

PER_LAYER = (
    ("coders.omp.s", "s"), ("coders.omp.calls", "count"),
    ("coders.omp.atoms", "count"), ("coders.omp.early_stops", "count"),
    ("coders.l1_solve.s", "s"), ("coders.l1_solve.calls", "count"),
    ("coders.l1_solve.nonconverged", "count"),
    ("coders.project.s", "s"), ("coders.project.calls", "count"),
    ("classify.residual.s", "s"), ("classify.residual.calls", "count"),
    ("classify.fuse.s", "s"), ("classify.score.s", "s"),
    ("classify.ties", "count"), ("classify.dense_only", "count"),
    ("classify.sa_flips_to_right", "count"), ("classify.sa_flips_to_wrong", "count"),
    ("linalg.gram.s", "s"), ("linalg.gram.calls", "count"),
    ("linalg.spd_solve.s", "s"), ("linalg.spd_solve.calls", "count"),
    ("coders.fit_crc.s", "s"), ("coders.fit_procrc.s", "s"),
    ("bench.fit_method.s", "s"), ("bench.run_experiment.s", "s"), ("bench.self.s", "s"),
    ("data.synth.s", "s"), ("data.split.s", "s"),
    ("data.normalize_columns.s", "s"), ("data.take_columns.s", "s"),
    ("data.load_csv.s", "s"), ("data.load_csv.calls", "count"),
    ("data.load_csv.bytes", "bytes"), ("data.load_bin.s", "s"),
    ("data.save_csv.s", "s"), ("data.save_csv.bytes", "bytes"),
)


def run_child(argv):
    """Run a Python child to completion; return (wall seconds, stdout)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONWARNINGS="ignore")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable] + argv, cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    dt = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[:3]} exited {proc.returncode}: {proc.stderr.strip()}")
    return dt, proc.stdout


# --- inputs -----------------------------------------------------------------

class Inputs:
    """Everything the program receives in one run, made from the seed."""

    def __init__(self, rcls, wl, seed, work):
        self.wl, self.seed = wl, seed
        sh = wl.lib_shape
        self.lib_cfgs = {}  # method -> one ExperimentConfig per window
        self.lib_data = {}  # per_class -> (X, labels), the benchmark's own synth
        for method, (per_class, trials, windows) in wl.lib_runs.items():
            dataset = rcls.SynthSpec(sh.C, sh.m, sh.s, per_class, sh.sigma, seed)
            if per_class not in self.lib_data:
                self.lib_data[per_class] = checks.synth(
                    sh.C, sh.m, sh.s, per_class, sh.sigma, seed)
            self.lib_cfgs[method] = [
                rcls.ExperimentConfig(
                    dataset=dataset, method=method, per_class_train=sh.train,
                    trials=trials, base_seed=seed + WINDOW_SEED_STEP * w,
                    lam=LAM, gamma=GAMMA, k=K, epsilon=EPSILON)
                for w in range(windows)
            ]

        # CLI files: a binary train file and a CSV test file with shuffled
        # labels 1..C, and a CSV dataset for compare with labels 10c+7.
        sh = CLI_SHAPE
        X, lab = checks.synth(sh.C, sh.m, sh.s, sh.train + CLI_TEST_PER_CLASS,
                              sh.sigma, seed + 1)
        rng = np.random.default_rng([seed, 1])
        tr, te = checks.split(lab, sh.C, sh.train, seed)
        tr, te = rng.permutation(tr), rng.permutation(te)
        self.train_X, self.train_labels = X[:, tr], lab[tr]
        self.test_labels = lab[te]
        self.train_path, self.test_path = work / "train.rcls", work / "test.csv"
        checks.write_rcls(self.train_path, self.train_X, self.train_labels, sh.C)
        checks.write_csv(self.test_path, X[:, te], self.test_labels)
        Xc, lc = checks.synth(sh.C, sh.m, sh.s, CLI_COMPARE_PER_CLASS, sh.sigma, seed + 2)
        perm = rng.permutation(Xc.shape[1])
        self.compare_path = work / "compare.csv"
        checks.write_csv(self.compare_path, Xc[:, perm], 10 * lc[perm] + 7)
        self.compare_cfg = work / "compare.yaml"
        self.compare_cfg.write_text(
            f"dataset: {json.dumps(str(self.compare_path))}\nmethods: [crc, procrc]\n"
            f"per_class_train: {sh.train}\ntrials: 1\nbase_seed: {seed}\n"
        )
        self.convert_out = work / "converted.csv"
        self.cli = {
            "convert": ["convert", "--in", str(self.train_path), "--out", str(self.convert_out)],
            "classify": ["classify", "--train", str(self.train_path), "--test",
                         str(self.test_path), "--method", "procrc"],
            "compare": ["compare", "--config", str(self.compare_cfg)],
        }

    def n_test(self, method):
        per_class, trials, _ = self.wl.lib_runs[method]
        return trials * self.wl.lib_shape.C * (per_class - self.wl.lib_shape.train)

    def trials(self, method, w):
        """The benchmark's own (train X, class sizes, test Y, truth) for each
        trial of window w, normalized as the program normalizes."""
        sh = self.wl.lib_shape
        per_class, trials, _ = self.wl.lib_runs[method]
        X, lab = self.lib_data[per_class]
        out = []
        for t in range(trials):
            tr, te = checks.split(lab, sh.C, sh.train, self.seed + WINDOW_SEED_STEP * w + t)
            out.append((checks.normalize(X[:, tr]), [sh.train] * sh.C,
                        checks.normalize(X[:, te]), lab[te]))
        return out

    def schedule(self):
        """One round's windows as (operation, window index), interleaved:
        an operation with n windows runs at slots (i + 1/2) * R / n."""
        counts = {m: runs[2] for m, runs in self.wl.lib_runs.items()}
        counts.update({step: self.wl.cli_windows for step in CLI_STEPS})
        R = max(counts.values())
        slots = [[] for _ in range(R)]
        for op in METHODS + CLI_STEPS:
            for i in range(counts[op]):
                slots[int((i + 0.5) * R / counts[op])].append((op, i))
        return [w for slot in slots for w in slot]


# --- set-up time ------------------------------------------------------------

def setup_seconds(inputs):
    """Median over SETUP_REPEATS fresh processes of the set-up every user of
    the workload pays: import rcls and synthesize the workload's datasets."""
    specs = sorted({(d.C, d.ambient_dim, d.subspace_dim, d.per_class, d.noise_sigma, d.seed)
                    for d in (cfgs[0].dataset for cfgs in inputs.lib_cfgs.values())})
    code = (
        "import time; t = time.perf_counter(); import rcls\n"
        f"for s in {specs!r}: rcls.synth(rcls.SynthSpec(*s))\n"
        "print(time.perf_counter() - t)"
    )
    return statistics.median(float(run_child(["-c", code])[1]) for _ in range(SETUP_REPEATS))


# --- timed rounds -----------------------------------------------------------

def run_cli(rcls, argv, in_process):
    if not in_process:
        return run_child(["-m", "rcls.cli"] + argv)
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rcls.cli.main(argv)
    dt = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"rcls {argv[0]} returned {code}: {err.getvalue().strip()}")
    return dt, out.getvalue()


def run_round(rcls, inputs, tracer, stats):
    """One round: every window of the schedule, each timed on its own."""
    for op, w in inputs.schedule():
        stats["attempted"] += 1
        first = len(tracer.sa_decisions) if tracer else 0
        try:
            if op in METHODS:
                t0 = time.perf_counter()
                out = rcls.bench.run_experiment(inputs.lib_cfgs[op][w])
                dt = time.perf_counter() - t0
            else:
                dt, out = run_cli(rcls, inputs.cli[op], in_process=tracer is not None)
        except Exception:
            stats["failed"] += 1
            traceback.print_exc()
            continue
        stats["windows"].setdefault(op, []).append((w, dt, out))
        if tracer and op.startswith("sa_"):
            stats["sa_decisions"].append((op, w, tracer.sa_decisions[first:]))
            del tracer.sa_decisions[first:]


def count_flips(inputs, method, w, decisions, stats):
    """How often the SA max-score rule overturns the dense code's own
    residual rule (regularized for sa_crc, plain for sa_procrc)."""
    own = inputs.trials(method, w)
    truth = np.concatenate([o[3] for o in own])
    Y = np.hstack([o[2] for o in own])
    if len(decisions) != len(truth):
        stats["errors"].append(f"{method}: {len(decisions)} decisions for {len(truth)} samples")
        return
    for j, (_, blocks, dense, y, sa_pred) in enumerate(decisions):
        if not np.allclose(y, Y[:, j], rtol=0, atol=1e-12):
            stats["errors"].append(f"{method}: decision {j} is not on test sample {j}")
            return
        scores = checks.residual_scores(
            np.hstack(blocks), [b.shape[1] for b in blocks], y[:, None], dense[:, None],
            regularized=method == "sa_crc")
        dense_right = checks.argmin_decisions(scores)[0][0] == truth[j]
        sa_right = sa_pred == truth[j]
        stats["flips_to_right"] += int(sa_right and not dense_right)
        stats["flips_to_wrong"] += int(dense_right and not sa_right)


# --- checks -----------------------------------------------------------------

def own_codes(method, X, sizes, Y):
    if method == "crc":
        return checks.crc_codes(X, Y, LAM)
    return checks.procrc_codes(X, sizes, Y, LAM, GAMMA)


def fitted(rcls, method, Xtr, sizes):
    labels = np.repeat(np.arange(1, len(sizes) + 1), sizes)
    train = rcls.Dataset(X=Xtr, labels=labels, C=len(sizes))
    return rcls.fit_method(method, train, lam=LAM, gamma=GAMMA, k=K, epsilon=EPSILON)


def check_library(rcls, inputs, stats):
    """run_experiment against the oracles: the datasets and splits; per
    window, the trial accuracies; for crc/procrc every code and decision of
    window 0's first trial, for sa_* and src a seeded subset of samples."""
    wl, seed = inputs.wl, inputs.seed
    rng = np.random.default_rng([seed, 2])
    for per_class, (X, lab) in inputs.lib_data.items():
        cfg = next(cfgs[0] for m, cfgs in inputs.lib_cfgs.items()
                   if wl.lib_runs[m][0] == per_class)
        ds = rcls.bench.load_source(cfg.dataset)
        checks.check_same_data(f"dataset {per_class}/class", ds.X, ds.labels, X, lab)
        sp = rcls.split(ds, wl.lib_shape.train, seed)
        tr, te = checks.split(lab, wl.lib_shape.C, wl.lib_shape.train, seed)
        if not (np.array_equal(sp.train_indices, tr) and np.array_equal(sp.test_indices, te)):
            raise checks.CheckError(f"split of dataset {per_class}/class differs")

    for method in METHODS:
        reports = {}
        for w, _, report in stats["windows"].get(method, []):
            if reports.setdefault(w, report) != report:
                raise checks.CheckError(f"{method} window {w}: reports differ between rounds")
        for w, report in reports.items():
            trials = wl.lib_runs[method][1]
            if len(report.accuracies) != trials or \
                    abs(report.mean - sum(report.accuracies) / trials) > 1e-9:
                raise checks.CheckError(f"{method} window {w}: bad trial accuracies")
            if method not in ("crc", "procrc"):
                continue
            for t, (Xt, sz, Yt, truth) in enumerate(inputs.trials(method, w)):
                A_own = own_codes(method, Xt, sz, Yt)
                if w == 0 and t == 0:
                    state = fitted(rcls, method, Xt, sz)
                    A = np.column_stack([state.compute_code(y) for y in Yt.T])
                    checks.check_dense_codes(f"{method} codes", A, A_own)
                pred, near = checks.argmin_decisions(checks.residual_scores(
                    Xt, sz, Yt, A_own, regularized=method == "crc"))
                checks.check_accuracy(f"{method} window {w} trial {t}",
                                      report.accuracies[t], pred, truth, near)
        if method in ("crc", "procrc") or 0 not in reports:
            continue
        Xtr, sizes, Yte, _ = inputs.trials(method, 0)[0]
        state = fitted(rcls, method, Xtr, sizes)
        for j in rng.choice(Yte.shape[1], size=1 if method == "src" else 2, replace=False):
            y, name = Yte[:, j], f"{method} sample {j}"
            if method == "src":
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = state.compute_code(y)
                warned = any(c.category is rcls.ConvergenceWarning for c in caught)
                pred = state.decide(code, y).predicted_class
                checks.check_src_sample(name, Xtr, sizes, y, code, EPSILON, warned, pred)
                continue
            codes = state.compute_code(y)
            dec = state.decide(codes, y)
            own_dense = own_codes(method[3:], Xtr, sizes, y[:, None])[:, 0]
            checks.check_sa_sample(
                name, Xtr, sizes, y, K, codes.sparse.support, codes.sparse.coeffs,
                codes.dense, own_dense, codes.fused, dec.scores, dec.predicted_class,
                codes.dense_only)


def check_cli(rcls, inputs, stats):
    """The CLI's outputs against the oracles and the library."""
    outputs = {}
    for step in CLI_STEPS:
        for _, _, out in stats["windows"].get(step, []):
            if outputs.setdefault(step, out) != out:
                raise checks.CheckError(f"cli {step}: output differs between windows")
    if "convert" in outputs:
        checks.check_csv_roundtrip("cli convert", inputs.convert_out,
                                   inputs.train_X, inputs.train_labels)
    if "classify" in outputs:
        train = rcls.load_bin(inputs.train_path)
        train = rcls.normalize_columns(
            rcls.take_columns(train, np.argsort(train.labels, kind="stable")))
        test = rcls.normalize_columns(rcls.load_csv(inputs.test_path))
        state = rcls.fit_method("procrc", train, lam=LAM, gamma=GAMMA, k=K, epsilon=EPSILON)
        preds = [state.decide(state.compute_code(y), y).predicted_class for y in test.X.T]
        checks.check_classify_output("cli classify", outputs["classify"], inputs.test_labels,
                                     range(1, CLI_SHAPE.C + 1), preds)
    if "compare" in outputs:
        reports = [rcls.run_experiment(c) for c in rcls.load_compare_configs(inputs.compare_cfg)]
        checks.check_compare_output(
            "cli compare", outputs["compare"],
            [dict(method=r.config.method, mean=r.mean, std=r.std, trials=r.config.trials,
                  base_seed=r.config.base_seed) for r in reports])


# --- metrics ----------------------------------------------------------------

def end_to_end(inputs, stats, setup_s, peak_rss_mb):
    values = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
    for op, windows in stats["windows"].items():
        if op in CLI_STEPS:
            values[f"cli.{op}_s"] = upper_quartile(dt for _, dt, _ in windows)
            continue
        values[f"{op}.samples_per_s"] = inputs.n_test(op) / upper_quartile(
            dt for _, dt, _ in windows)
        by_window = {w: report.mean for w, _, report in windows}
        values[f"{op}.accuracy_pct"] = statistics.fmean(by_window.values())
    return values


def per_layer(tracer, stats):
    values = {}
    for name, _ in PER_LAYER:
        if name == "bench.self.s":
            v = tracer.self_s["bench.run_experiment"]
        elif name == "classify.sa_flips_to_right":
            v = stats["flips_to_right"]
        elif name == "classify.sa_flips_to_wrong":
            v = stats["flips_to_wrong"]
        elif name.endswith(".s"):
            v = tracer.total[name[:-2]]
        else:
            v = tracer.counts[name]
        values[name] = v / stats["rounds"]
    return values


def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


# --- main -------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "rcls" / "__init__.py").is_file():
        sys.exit(f"error: rcls sources not found under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import rcls
    import rcls.cli
    if Path(rcls.__file__).resolve().parent != (SRC / "rcls").resolve():
        sys.exit(f"error: imported rcls from {rcls.__file__}, not from {SRC}")
    warnings.simplefilter("ignore", rcls.ConvergenceWarning)

    wl = WORKLOADS[args.workload]
    WORK.mkdir(parents=True, exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        inputs = Inputs(rcls, wl, args.seed, work)
        setup_s = None if args.trace else setup_seconds(inputs)
        tracer = Tracer() if args.trace else None
        stats = {"attempted": 0, "failed": 0, "rounds": 0, "windows": {}, "errors": [],
                 "flips_to_right": 0, "flips_to_wrong": 0, "sa_decisions": []}
        if tracer:
            tracer.install()
        t_start = time.perf_counter()
        try:
            for _ in range(max(1, int(args.seconds // wl.round_s))):
                run_round(rcls, inputs, tracer, stats)
                stats["rounds"] += 1
            elapsed = time.perf_counter() - t_start
        finally:
            if tracer:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        t_check = time.perf_counter()
        for method, w, decisions in stats["sa_decisions"]:
            count_flips(inputs, method, w, decisions, stats)
        for err in stats["errors"]:
            print(f"check failed: {err}", file=sys.stderr)
        correct = not stats["errors"]
        try:
            check_library(rcls, inputs, stats)
            check_cli(rcls, inputs, stats)
        except checks.CheckError as err:
            correct = False
            print(f"check failed: {err}", file=sys.stderr)

        if tracer:
            values, spec = per_layer(tracer, stats), PER_LAYER
        else:
            values, spec = end_to_end(inputs, stats, setup_s, peak_rss_mb), END_TO_END
        missing = [name for name, _ in spec if name not in values]
        if missing:
            sys.exit(f"error: no measurement for {', '.join(missing)}")
        print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
              f"rounds={stats['rounds']} round_s={elapsed / stats['rounds']:.4f} "
              f"lib_s={sum(dt for op in METHODS for _, dt, _ in stats['windows'].get(op, [])):.4f} "
              f"checks_s={time.perf_counter() - t_check:.2f} blas={blas_info()} "
              f"blas_threads=1 nproc={os.cpu_count()}")
        print(json.dumps({
            "correct": correct,
            "attempted": stats["attempted"],
            "failed": stats["failed"],
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in spec},
        }))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
