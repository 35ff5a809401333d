import os
import subprocess
import sys

import numpy as np
import pytest

from rcls import bench, cli
from rcls.bench import fit_method, load_experiment_config, run_experiment
from rcls.data import (
    Dataset,
    SynthSpec,
    load_bin,
    load_csv,
    normalize_columns,
    save_bin,
    synth,
    take_columns,
)
from rcls.errors import SingularMatrixError

SYNTH_ARGS = [
    "synth",
    "--classes", "2",
    "--ambient-dim", "4",
    "--subspace-dim", "1",
    "--per-class", "3",
    "--noise", "0",
    "--seed", "7",
]

CONFIG = """\
synth:
  classes: 3
  ambient_dim: 12
  subspace_dim: 2
  per_class: 8
  noise_sigma: 0.4
  seed: 5
per_class_train: 4
trials: 3
method: crc
"""


def make_data(tmp_path, name="train.rcls"):
    out = tmp_path / name
    assert cli.main(SYNTH_ARGS + ["--out", str(out)]) == 0
    return out


def test_synth_reports_shape(tmp_path, capsys):
    out = make_data(tmp_path)
    assert capsys.readouterr().out == f"wrote {out}: 4x6, 2 classes\n"
    ds = load_bin(out)
    assert ds.m == 4 and ds.n == 6 and ds.C == 2


def test_synth_rejects_bad_spec(tmp_path, capsys):
    rc = cli.main(
        ["synth", "--classes", "0", "--ambient-dim", "4", "--subspace-dim", "1",
         "--per-class", "3", "--out", str(tmp_path / "x.rcls")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ParameterError:")
    assert "\n" not in err.strip()


@pytest.mark.parametrize("flag, value, message", [
    ("--seed", "-1", "seed must be an integer >= 0, got -1"),
    ("--noise", "nan", "noise_sigma must be finite and >= 0, got nan"),
])
def test_synth_rejects_negative_seed_and_nan_noise(tmp_path, capsys, flag, value, message):
    out = tmp_path / "x.rcls"
    rc = cli.main(SYNTH_ARGS + [flag, value, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: ParameterError: {message}\n"
    assert not out.exists()


def test_classify_train_on_test_is_perfect(tmp_path, capsys):
    data = make_data(tmp_path)
    capsys.readouterr()
    rc = cli.main(
        ["classify", "--train", str(data), "--test", str(data), "--method", "crc"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-1] == "accuracy: 100.00"
    assert len(lines) == 7  # six predictions plus the summary
    assert [int(x) for x in lines[:-1]] == [1, 1, 1, 2, 2, 2]


def test_classify_prints_original_label_space(tmp_path, capsys):
    p = tmp_path / "labeled.csv"
    p.write_text(
        "5,1.0,0.0\n5,0.9,0.1\n9,0.0,1.0\n9,0.1,0.9\n"
    )
    rc = cli.main(
        ["classify", "--train", str(p), "--test", str(p), "--method", "crc"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[-1] == "accuracy: 100.00"
    assert [int(x) for x in lines[:-1]] == [5, 5, 9, 9]


def test_classify_all_methods_run(tmp_path, capsys):
    data = make_data(tmp_path)
    for method in ("src", "crc", "procrc", "sa_crc", "sa_procrc"):
        rc = cli.main(
            ["classify", "--train", str(data), "--test", str(data),
             "--method", method, "--k", "3"]
        )
        assert rc == 0, method
        assert "accuracy:" in capsys.readouterr().out


def test_bench_stdout_matches_library(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(CONFIG)
    out_csv = tmp_path / "report.csv"
    rc = cli.main(["bench", "--config", str(cfg_path), "--out-csv", str(out_csv)])
    assert rc == 0
    captured = capsys.readouterr()
    report = run_experiment(load_experiment_config(str(cfg_path)))
    assert f"mean +/- std: {report.mean:.2f} +/- {report.std:.2f}" in captured.out
    assert captured.err.startswith("# timing")
    row = out_csv.read_text().strip().split("\n")[1].split(",")
    assert float(row[1]) == report.mean
    assert float(row[2]) == report.std


def test_bench_stdout_byte_identical_across_runs(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(CONFIG)
    assert cli.main(["bench", "--config", str(cfg_path)]) == 0
    first = capsys.readouterr().out
    assert cli.main(["bench", "--config", str(cfg_path)]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_bench_out_text_equals_stdout(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(CONFIG)
    out_text = tmp_path / "report.txt"
    assert cli.main(["bench", "--config", str(cfg_path), "--out-text",
                     str(out_text)]) == 0
    assert out_text.read_text() == capsys.readouterr().out


def test_compare_runs_and_writes_csv(tmp_path, capsys):
    cfg_path = tmp_path / "cmp.yaml"
    cfg_path.write_text(CONFIG.replace("method: crc", "methods: [crc, procrc]"))
    out_csv = tmp_path / "cmp.csv"
    out_text = tmp_path / "cmp.txt"
    rc = cli.main(["compare", "--config", str(cfg_path), "--out-csv", str(out_csv),
                   "--out-text", str(out_text)])
    assert rc == 0
    captured = capsys.readouterr()
    assert out_text.read_bytes() == captured.out.encode("utf-8")
    assert "crc" in captured.out and "procrc" in captured.out
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "method,mean,std,trials,base_seed,err_reduction_pct"
    assert len(lines) == 3
    assert captured.err.count("# timing") == 2


def test_classify_rejects_test_labels_the_train_file_lacks(tmp_path, capsys):
    # the train file's labels are 1 and 2; the test file writes 17 and 27
    data = make_data(tmp_path)
    test = tmp_path / "test.csv"
    test.write_text("17,1,0,0,0\n27,0,1,0,0\n2,0,0,1,0\n")
    capsys.readouterr()
    for method in ("crc", "sa_procrc"):
        rc = cli.main(
            ["classify", "--train", str(data), "--test", str(test),
             "--method", method, "--k", "1"]
        )
        assert rc == 2, method
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: DatasetError: test label 17 is not a label of the train file\n"


def test_classify_wrong_length_test_sample_exits_two(tmp_path, capsys):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    train.write_text("1,1,0,0,0,0,0,0,0\n2,0,1,0,0,0,0,0,0\n")
    test.write_text("1,1,0,0,0,0,0,0,0,0\n")
    for method in ("src", "crc", "procrc", "sa_crc", "sa_procrc"):
        rc = cli.main(
            ["classify", "--train", str(train), "--test", str(test),
             "--method", method, "--k", "1"]
        )
        assert rc == 2, method
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: DimensionError: y has length 9, X has 8 rows\n"


@pytest.mark.filterwarnings("ignore::rcls.errors.ConvergenceWarning")
@pytest.mark.parametrize("C", [1, 2])
def test_compare_every_method_with_one_or_two_classes(tmp_path, capsys, C):
    cfg_path = tmp_path / "cmp.yaml"
    cfg_path.write_text(
        CONFIG.replace("classes: 3", f"classes: {C}")
        .replace("method: crc", "methods: [src, crc, procrc, sa_crc, sa_procrc]")
        + "k: 4\n"
    )
    assert cli.main(["compare", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    reports = bench.compare_methods(bench.load_compare_configs(str(cfg_path)))
    assert out == bench.comparison_text(reports)
    assert [r.config.method for r in reports] == list(bench.METHODS)
    if C == 1:
        assert all(r.mean == 100.0 for r in reports)


def test_diag_writes_files(tmp_path, capsys):
    data = make_data(tmp_path)
    capsys.readouterr()
    out_dir = tmp_path / "diag"
    rc = cli.main(
        ["diag", "--train", str(data), "--sample-index", "0",
         "--method", "sa_procrc", "--k", "2", "--out-dir", str(out_dir)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("sample 0: true class 1, predicted ")
    names = sorted(os.listdir(out_dir))
    assert names == [
        "coefficients.csv",
        "coefficients_dense.csv",
        "coefficients_sparse.csv",
        "residuals.csv",
        "scores.csv",
    ]
    assert out.count("wrote ") == 5


def test_diag_codes_the_sample_once(tmp_path, capsys, monkeypatch):
    data = make_data(tmp_path)
    capsys.readouterr()
    calls = []
    pursue = bench._omp_columns

    def counting_pursuit(D, Y, k):
        calls.append(Y.shape[1])
        return pursue(D, Y, k)

    monkeypatch.setattr(bench, "_omp_columns", counting_pursuit)
    out_dir = tmp_path / "diag"
    rc = cli.main(
        ["diag", "--train", str(data), "--sample-index", "4",
         "--method", "sa_procrc", "--k", "2", "--out-dir", str(out_dir)]
    )
    assert rc == 0
    assert calls == [1]  # one pursuit, of one column
    # the printed prediction is the argmax of the scores written to disk
    rows = (out_dir / "scores.csv").read_text().splitlines()[1:]
    best = max(rows, key=lambda r: float(r.split(",")[2])).split(",")[1]
    assert capsys.readouterr().out.startswith(f"sample 4: true class 2, predicted {best}\n")


def test_diag_leaves_the_sample_out_by_an_integer_array(tmp_path, capsys, monkeypatch):
    # an integer array takes take_columns' whole-array check, not the
    # per-entry one
    data = make_data(tmp_path)
    taken, take = [], cli.take_columns
    monkeypatch.setattr(cli, "take_columns", lambda ds, ix: taken.append(ix) or take(ds, ix))
    rc = cli.main(
        ["diag", "--train", str(data), "--sample-index", "4",
         "--method", "crc", "--out-dir", str(tmp_path / "diag")]
    )
    assert rc == 0
    assert taken[0].dtype.kind == "i" and taken[0].tolist() == [0, 1, 2, 3, 5]


def test_diag_sample_index_out_of_range(tmp_path, capsys):
    data = make_data(tmp_path)
    capsys.readouterr()
    rc = cli.main(
        ["diag", "--train", str(data), "--sample-index", "6",
         "--method", "crc", "--out-dir", str(tmp_path / "d")]
    )
    assert rc == 1
    assert "out of range" in capsys.readouterr().err
    # a sample that is all zero cannot be normalized
    ds = load_bin(data)
    X = np.array(ds.X)
    X[:, 2] = 0.0
    save_bin(Dataset(X=X, labels=ds.labels, C=ds.C), data)
    rc = cli.main(
        ["diag", "--train", str(data), "--sample-index", "2",
         "--method", "crc", "--out-dir", str(tmp_path / "d")]
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: DataError: sample 2 is zero and cannot be normalized\n"
    )


def test_zero_sample_is_named_by_its_file_column(tmp_path, capsys):
    # the file is normalized as read, before it is grouped by class (file
    # column 2 is grouped column 4), a sample is left out or a trial selects
    # its columns, so every base seed names the same column
    rows = [[1, 1, 0, 0], [2, 0, 1, 0], [2, 0, 0, 0], [1, 1, 1, 0], [2, 0, 1, 1], [1, 1, 0, 1]]
    data = tmp_path / "train.csv"
    data.write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    argvs = [
        ["classify", "--train", str(data), "--test", str(data), "--method", "crc"],
        ["diag", "--train", str(data), "--sample-index", "0", "--method", "crc",
         "--out-dir", str(tmp_path / "d")],
    ]
    for seed in range(4):
        run = f"dataset: {data}\nper_class_train: 2\ntrials: 1\nbase_seed: {seed}\n"
        (tmp_path / f"bench{seed}.yaml").write_text(run + "method: crc\n")
        (tmp_path / f"cmp{seed}.yaml").write_text(run + "methods: [crc, procrc]\n")
        argvs += [["bench", "--config", str(tmp_path / f"bench{seed}.yaml")],
                  ["compare", "--config", str(tmp_path / f"cmp{seed}.yaml")]]
    for argv in argvs:
        assert cli.main(argv) == 2
        assert capsys.readouterr() == (
            "", "error: DataError: column 2 is zero and cannot be normalized\n")


@pytest.mark.parametrize("method", ["crc", "procrc", "sa_procrc"])
def test_diag_codes_the_normalized_file_column(tmp_path, capsys, method):
    # sample 1's norm alone and in normalize_columns differ in the last bit; diag
    # scores the file's column as normalize_columns normalizes it
    ds = synth(SynthSpec(C=3, ambient_dim=12, subspace_dim=2, per_class=8,
                         noise_sigma=0.4, seed=5))
    i = 1
    normalized = normalize_columns(ds)
    assert np.linalg.norm(ds.X[:, i]) != np.linalg.norm(ds.X, axis=0)[i]
    data = tmp_path / "train.rcls"
    save_bin(ds, data)
    out_dir = tmp_path / "diag"
    rc = cli.main(["diag", "--train", str(data), "--sample-index", str(i),
                   "--method", method, "--k", "4", "--out-dir", str(out_dir)])
    assert rc == 0
    train = take_columns(normalized, np.delete(np.arange(ds.n), i))
    state = fit_method(method, take_columns(train, np.argsort(train.labels, kind="stable")), k=4)
    y = normalized.X[:, i]
    scores = state.decide(state.compute_code(y), y).scores
    written = (out_dir / "scores.csv").read_text().splitlines()[1:]
    assert [float(r.split(",")[2]) for r in written] == [float(v) for v in scores]


def test_diag_rejects_leaving_out_a_class_s_only_sample(tmp_path, capsys):
    data = tmp_path / "train.csv"
    data.write_text("17,1,0\n27,0,1\n17,1,1\n37,2,1\n27,1,2\n")
    rc = cli.main(["diag", "--train", str(data), "--sample-index", "3",
                   "--method", "crc", "--out-dir", str(tmp_path / "d")])
    assert rc == 2
    assert capsys.readouterr() == ("", (
        "error: DatasetError: sample 3 is the only sample of class 37 and "
        "cannot be left out\n"))
    assert not (tmp_path / "d").exists()


def test_convert_round_trip(tmp_path, capsys):
    data = make_data(tmp_path)
    as_csv = tmp_path / "data.csv"
    back = tmp_path / "back.rcls"
    assert cli.main(["convert", "--in", str(data), "--out", str(as_csv)]) == 0
    assert cli.main(["convert", "--in", str(as_csv), "--out", str(back)]) == 0
    a = load_bin(data)
    b = load_bin(back)
    assert a.X.tobytes(order="F") == b.X.tobytes(order="F")
    assert np.array_equal(a.labels, b.labels)


def test_usage_errors_exit_one(capsys):
    assert cli.main([]) == 1
    assert "subcommand" in capsys.readouterr().err
    assert cli.main(["frobnicate"]) == 1
    capsys.readouterr()
    assert cli.main(["synth", "--classes", "2"]) == 1  # missing required flags
    capsys.readouterr()
    assert cli.main(
        ["classify", "--train", "x", "--test", "y", "--method", "svm"]
    ) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: UsageError:")


def test_k_that_is_not_a_number_is_a_usage_error(tmp_path, capsys):
    data = make_data(tmp_path)
    capsys.readouterr()
    rc = cli.main(["classify", "--train", str(data), "--test", str(data),
                   "--method", "sa_crc", "--k", "abc"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: UsageError: ") and err.count("\n") == 1
    assert "--k" in err


def test_missing_input_file_exits_two(tmp_path, capsys):
    rc = cli.main(
        ["classify", "--train", str(tmp_path / "nope.rcls"),
         "--test", str(tmp_path / "nope.rcls"), "--method", "crc"]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: FileNotFoundError:")
    assert cli.main(["bench", "--config", str(tmp_path / "nope.yaml")]) == 2
    capsys.readouterr()
    # an output path that is a directory fails the write, which leaves no
    # temp file behind
    data = make_data(tmp_path)
    (tmp_path / "out").mkdir()
    capsys.readouterr()
    assert cli.main(["convert", "--in", str(data), "--out", str(tmp_path / "out")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: IsADirectoryError: ") and err.count("\n") == 1
    assert sorted(os.listdir(tmp_path)) == ["out", "train.rcls"]


def test_bad_config_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(CONFIG + "warp_drive: 9\n")
    assert cli.main(["bench", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:")
    assert "warp_drive" in err


@pytest.mark.parametrize("old, new, message", [
    ("per_class_train: 4", "per_class_train: 4\nbase_seed: -1",
     "base_seed must be an integer >= 0, got -1"),
    ("  seed: 5", "  seed: -1", "synth.seed must be an integer >= 0, got -1"),
    ("noise_sigma: 0.4", "noise_sigma: .nan",
     "synth.noise_sigma must be finite and >= 0, got nan"),
    ("classes: 3", "classes: 0", "synth.classes must be an integer >= 1, got 0"),
    ("classes: 3", "classes: 2.5", "synth.classes must be an integer >= 1, got 2.5"),
    ("trials: 3", "trials: 3\nlambda: -1", "lambda must be finite and > 0, got -1"),
])
def test_bad_config_value_exits_two_naming_the_key(tmp_path, capsys, old, new, message):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(CONFIG.replace(old, new))
    assert cli.main(["bench", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: ConfigError: {cfg_path}: {message}\n"


def test_projection_wider_than_the_data_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(CONFIG + "projection_dim: 20\n")  # 12-dimensional samples
    assert cli.main(["bench", "--config", str(cfg_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: ConfigError: projection_dim 20 exceeds the dataset's feature dimension 12\n"


def test_corrupt_data_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.rcls"
    bad.write_bytes(b"JUNKJUNKJUNK")
    rc = cli.main(
        ["classify", "--train", str(bad), "--test", str(bad), "--method", "crc"]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: FormatError:")


def test_bench_k_above_dictionary_size_exits_one(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.yaml"
    # 12-dimensional samples, 3 classes x 4 training atoms: k <= 12
    cfg_path.write_text(CONFIG.replace("method: crc", "method: sa_procrc") + "k: 13\n")
    assert cli.main(["bench", "--config", str(cfg_path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ParameterError: k must be in [1, 12]")
    assert err.rstrip().endswith("got 13 (while running trial 0, seed 0)")


def test_numerical_failure_exits_three(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(CONFIG)

    def boom(cfg):
        raise SingularMatrixError("gram matrix is singular", pivot=3)

    monkeypatch.setattr(cli, "run_experiment", boom)
    assert cli.main(["bench", "--config", str(cfg_path)]) == 3
    assert capsys.readouterr().err.startswith("error: SingularMatrixError:")


def test_module_is_executable(tmp_path):
    out = tmp_path / "m.rcls"
    proc = subprocess.run(
        [sys.executable, "-m", "rcls.cli"] + SYNTH_ARGS + ["--out", str(out)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("wrote ")
    assert out.exists()


def test_csv_dataset_in_config(tmp_path, capsys):
    data = make_data(tmp_path)
    as_csv = tmp_path / "data.csv"
    assert cli.main(["convert", "--in", str(data), "--out", str(as_csv)]) == 0
    capsys.readouterr()
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(
        f"dataset: {as_csv}\nper_class_train: 2\ntrials: 2\nmethod: crc\n"
    )
    assert cli.main(["bench", "--config", str(cfg_path)]) == 0
    assert "method: crc" in capsys.readouterr().out


@pytest.mark.parametrize("method, flag, param", [
    ("crc", "--lambda", "lambda"), ("procrc", "--gamma", "gamma"),
    ("src", "--epsilon", "epsilon"),
])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_classify_non_finite_parameter_exits_one(
    tmp_path, capsys, method, flag, param, value
):
    data = make_data(tmp_path)
    capsys.readouterr()
    rc = cli.main(
        ["classify", "--train", str(data), "--test", str(data),
         "--method", method, flag, value]
    )
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: ParameterError: {param} must be finite")


@pytest.mark.parametrize("method, flag, value, message", [
    pytest.param("crc", "--lambda", "-1", "lambda must be finite and > 0, got -1.0",
                 id="crc-lambda"),
    pytest.param("src", "--lambda", "-1", "lambda must be finite and > 0, got -1.0",
                 id="src-lambda"),
    pytest.param("procrc", "--gamma", "-1", "gamma must be finite and >= 0, got -1.0",
                 id="procrc-gamma"),
    pytest.param("crc", "--gamma", "-1", "gamma must be finite and >= 0, got -1.0",
                 id="crc-gamma"),
    pytest.param("src", "--epsilon", "0", "epsilon must be finite and > 0, got 0.0",
                 id="src-epsilon"),
    pytest.param("crc", "--epsilon", "0", "epsilon must be finite and > 0, got 0.0",
                 id="crc-epsilon"),
    pytest.param("sa_crc", "--k", "0", "k must be an integer >= 1, got 0", id="sa_crc-k"),
    pytest.param("src", "--k", "0", "k must be an integer >= 1, got 0", id="src-k"),
    # --k is parsed as a number, so a float is judged as a config's k is
    *(pytest.param(method, "--k", value, f"k must be an integer >= 1, got {value}",
                   id=f"{method}-k-{value}")
      for method in ("sa_crc", "crc") for value in ("2.5", "50.0")),
])
@pytest.mark.parametrize("command", ["classify", "diag"])
def test_out_of_range_method_flag_exits_one_for_every_method(
    tmp_path, capsys, command, method, flag, value, message
):
    # each flag is checked for every method, also one that does not read
    # it, and named as a config names it (lambda, not the library's lam)
    data = make_data(tmp_path)
    capsys.readouterr()
    where = (["--test", str(data)] if command == "classify"
             else ["--sample-index", "0", "--out-dir", str(tmp_path / "diag")])
    rc = cli.main([command, "--train", str(data), *where, "--method", method, flag, value])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: ParameterError: {message}\n"
    assert not (tmp_path / "diag").exists()


def test_fits_and_every_command_load_no_scipy(tmp_path):
    # rcls runs on numpy alone: fitting the dense and sparsity-augmented
    # coders (m < n, so procrc solves its class blocks one by one) and every
    # command, run in one process, leave scipy unloaded
    data, csv, cfg = tmp_path / "d.rcls", tmp_path / "d.csv", tmp_path / "cmp.yaml"
    cfg.write_text(CONFIG.replace("method: crc", "methods: [src, crc, procrc, sa_crc, sa_procrc]\nk: 4"))
    commands = [
        SYNTH_ARGS + ["--out", str(data)],
        ["convert", "--in", str(data), "--out", str(csv)],
        ["classify", "--train", str(data), "--test", str(csv), "--method", "procrc", "--k", "3"],
        ["classify", "--train", str(data), "--test", str(data), "--method", "sa_crc", "--k", "3"],
        ["diag", "--train", str(data), "--sample-index", "0", "--method", "sa_procrc",
         "--k", "2", "--out-dir", str(tmp_path / "diag")],
        ["bench", "--config", str(tmp_path / "bench.yaml")],
        ["compare", "--config", str(cfg)],
    ]
    (tmp_path / "bench.yaml").write_text(CONFIG)
    script = f"""
import sys
import rcls
from rcls import cli
ds = rcls.normalize_columns(rcls.synth(rcls.SynthSpec(3, 12, 2, 8, 0.1, 4)))
rcls.fit_method("procrc", ds)
rcls.fit_method("sa_crc", ds, k=3)
for argv in {commands!r}:
    assert cli.main(argv) == 0, argv
assert "scipy" not in sys.modules
"""
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
