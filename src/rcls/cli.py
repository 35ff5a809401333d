"""Command-line front end.

Subcommands: synth, classify, bench, compare, diag, convert. Every number
printed comes from a library call. Timings go to stderr so stdout and
output files are byte-identical across repeated runs.

Exit codes: 0 success, 1 usage error, 2 data or parse error, 3 numerical
failure. Errors print one line to stderr: ``error: <Kind>: <reason>``.
"""

import argparse
import os
import sys

import numpy as np

from .bench import (
    DEFAULT_EPSILON,
    DEFAULT_GAMMA,
    DEFAULT_LAM,
    METHODS,
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
from .coders import DEFAULT_SPARSITY
from .data import (
    SynthSpec,
    atomic_write_bytes,
    normalize_columns,
    save_bin,
    save_csv,
    synth,
    take_columns,
)
from .errors import DataError, NumericalError, ParameterError, RclsError


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse raises through this subclass instead of exiting, so main()
    owns the exit code."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="rcls", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser(
        "synth", help="generate a synthetic dataset and write it as binary"
    )
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--ambient-dim", type=int, required=True)
    p.add_argument("--subspace-dim", type=int, required=True)
    p.add_argument("--per-class", type=int, required=True)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser(
        "classify", help="fit on a train file and classify every test sample"
    )
    p.add_argument("--train", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    _add_method_params(p)

    p = sub.add_parser("bench", help="run a repeated-trial experiment from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out-csv")
    p.add_argument("--out-text")

    p = sub.add_parser(
        "compare", help="run several methods over identical splits and tabulate"
    )
    p.add_argument("--config", required=True)
    p.add_argument("--out-csv")
    p.add_argument("--out-text")

    p = sub.add_parser(
        "diag",
        help="hold one sample out, classify it, dump coefficient/residual/score CSVs",
    )
    p.add_argument("--train", required=True)
    p.add_argument("--sample-index", type=int, required=True)
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--out-dir", required=True)
    _add_method_params(p)

    p = sub.add_parser("convert", help="convert between the CSV and binary formats")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)

    return parser


def _add_method_params(p):
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAM)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--k", type=int, default=DEFAULT_SPARSITY)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)


def _group_by_class(ds):
    order = np.argsort(ds.labels, kind="stable")
    return take_columns(ds, order)


def _original_label(ds, dense_label):
    if ds.label_mapping is not None:
        return ds.label_mapping[dense_label - 1]
    return int(dense_label)


def _cmd_synth(args):
    spec = SynthSpec(
        C=args.classes,
        ambient_dim=args.ambient_dim,
        subspace_dim=args.subspace_dim,
        per_class=args.per_class,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    ds = synth(spec)
    save_bin(ds, args.out)
    print(f"wrote {args.out}: {ds.m}x{ds.n}, {ds.C} classes")
    return 0


def _cmd_classify(args):
    train = normalize_columns(_group_by_class(load_source(args.train)))
    test = normalize_columns(load_source(args.test))
    state = fit_method(
        args.method, train,
        lam=args.lam, gamma=args.gamma, k=args.k, epsilon=args.epsilon,
    )
    predicted = state.decide_all(state.compute_codes(test.X), test.X)[0]
    correct = 0
    for j, dense_label in enumerate(predicted):
        label = _original_label(train, int(dense_label))
        print(label)
        correct += label == _original_label(test, int(test.labels[j]))
    print(f"accuracy: {100.0 * correct / test.n:.2f}")
    return 0


def _cmd_bench(args):
    cfg = load_experiment_config(args.config)
    report = run_experiment(cfg)
    sys.stdout.write(report_text(report))
    if args.out_csv:
        atomic_write_bytes(args.out_csv, report_csv(report).encode("utf-8"))
    if args.out_text:
        atomic_write_bytes(args.out_text, report_text(report).encode("utf-8"))
    print(f"# timing {stage_summary(report.stage_seconds)}", file=sys.stderr)
    return 0


def _cmd_compare(args):
    cfgs = load_compare_configs(args.config)
    table = compare_methods(cfgs)
    sys.stdout.write(comparison_text(table))
    if args.out_csv:
        atomic_write_bytes(args.out_csv, comparison_csv(table).encode("utf-8"))
    if args.out_text:
        atomic_write_bytes(args.out_text, comparison_text(table).encode("utf-8"))
    for rep in table.reports:
        print(
            f"# timing {rep.config.method} {stage_summary(rep.stage_seconds)}",
            file=sys.stderr,
        )
    return 0


def _cmd_diag(args):
    ds = load_source(args.train)
    i = args.sample_index
    if not 0 <= i < ds.n:
        raise ParameterError(
            f"sample index {i} out of range for {ds.n} samples"
        )
    rest = [j for j in range(ds.n) if j != i]
    train = normalize_columns(_group_by_class(take_columns(ds, rest)))
    nrm = float(np.linalg.norm(ds.X[:, i]))
    if nrm == 0.0:
        raise DataError(f"sample {i} is zero and cannot be normalized")
    state = fit_method(
        args.method, train,
        lam=args.lam, gamma=args.gamma, k=args.k, epsilon=args.epsilon,
    )
    y = ds.X[:, i] / nrm
    decision, written = dump_diagnostics(state, y, args.out_dir)
    true_label = _original_label(ds, int(ds.labels[i]))
    predicted = _original_label(ds, decision.predicted_class)
    print(f"sample {i}: true class {true_label}, predicted {predicted}")
    for path in written.values():
        print(f"wrote {path}")
    return 0


def _cmd_convert(args):
    ds = load_source(args.in_path)
    if os.fspath(args.out).lower().endswith(".csv"):
        save_csv(ds, args.out)
    else:
        save_bin(ds, args.out)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "classify": _cmd_classify,
    "bench": _cmd_bench,
    "compare": _cmd_compare,
    "diag": _cmd_diag,
    "convert": _cmd_convert,
}


def _print_error(kind, err):
    message = " ".join(str(err).split())
    print(f"error: {kind}: {message}", file=sys.stderr)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        return _COMMANDS[args.command](args)
    except _UsageError as err:
        _print_error("UsageError", err)
        return 1
    except ParameterError as err:
        _print_error(type(err).__name__, err)
        return 1
    except NumericalError as err:
        _print_error(type(err).__name__, err)
        return 3
    except (RclsError, OSError) as err:
        _print_error(type(err).__name__, err)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
