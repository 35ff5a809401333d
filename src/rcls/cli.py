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
    _fit_options,
    compare_methods,
    comparison_csv,
    comparison_text,
    dump_diagnostics,
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
from .errors import DataError, DatasetError, NumericalError, ParameterError, RclsError


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

    for name, what in (
        ("bench", "run a repeated-trial experiment from a config"),
        ("compare", "run several methods over identical splits and tabulate"),
    ):
        p = sub.add_parser(name, help=what)
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


def number(text):
    """``--k``: an int when ``text`` is an integer, else a float, for ``check_method``."""
    try:
        return int(text)
    except ValueError:
        return float(text)


def _add_method_params(p):
    p.add_argument("--lambda", dest="lam", type=float, default=DEFAULT_LAM)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--k", type=number, default=DEFAULT_SPARSITY)
    p.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON)


def _group_by_class(ds):
    order = np.argsort(ds.labels, kind="stable")
    return take_columns(ds, order)


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
    train = _group_by_class(normalize_columns(load_source(args.train)))
    test = normalize_columns(load_source(args.test))
    truth = [test.original_label(label) for label in test.labels.tolist()]
    known = {train.original_label(label) for label in range(1, train.C + 1)}
    unknown = next((label for label in truth if label not in known), None)
    if unknown is not None:
        raise DatasetError(f"test label {unknown} is not a label of the train file")
    state = _fit_options(args, train)
    predicted = state.decide_all(state.compute_codes(test.X), test.X)[0]
    correct = 0
    for dense_label, want in zip(predicted, truth):
        label = train.original_label(dense_label)
        print(label)
        correct += label == want
    print(f"accuracy: {100.0 * correct / test.n:.2f}")
    return 0


def _write_outputs(args, text, csv_text):
    """Print ``text``, and write it to ``--out-text`` and ``csv_text`` to
    ``--out-csv`` when they are given."""
    sys.stdout.write(text)
    for path, body in ((args.out_csv, csv_text), (args.out_text, text)):
        if path:
            atomic_write_bytes(path, body.encode("utf-8"))


def _cmd_bench(args):
    report = run_experiment(load_experiment_config(args.config))
    _write_outputs(args, report_text(report), report_csv(report))
    print(f"# timing {stage_summary(report.stage_seconds)}", file=sys.stderr)
    return 0


def _cmd_compare(args):
    reports = compare_methods(load_compare_configs(args.config))
    _write_outputs(args, comparison_text(reports), comparison_csv(reports))
    for rep in reports:
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
    label = ds.original_label(ds.labels[i])
    if ds.class_sizes[ds.labels[i] - 1] == 1:
        raise DatasetError(f"sample {i} is the only sample of class {label} and cannot be left out")
    if not ds.X[:, i].any():
        raise DataError(f"sample {i} is zero and cannot be normalized")
    ds = normalize_columns(ds)
    train = _group_by_class(take_columns(ds, np.delete(np.arange(ds.n), i)))
    state = _fit_options(args, train)
    decision, written = dump_diagnostics(state, ds.X[:, i], args.out_dir)
    predicted = ds.original_label(decision.predicted_class)
    print(f"sample {i}: true class {label}, predicted {predicted}")
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
