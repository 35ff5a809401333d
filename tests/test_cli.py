import os
import subprocess
import sys

import numpy as np
import pytest

from rcls import bench, cli
from rcls.bench import load_experiment_config, run_experiment
from rcls.data import load_bin, load_csv
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
    rc = cli.main(["compare", "--config", str(cfg_path), "--out-csv", str(out_csv)])
    assert rc == 0
    captured = capsys.readouterr()
    assert "crc" in captured.out and "procrc" in captured.out
    lines = out_csv.read_text().strip().split("\n")
    assert lines[0] == "method,mean,std,trials,base_seed,err_reduction_pct"
    assert len(lines) == 3
    assert captured.err.count("# timing") == 2


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
    table = bench.compare_methods(bench.load_compare_configs(str(cfg_path)))
    assert out == bench.comparison_text(table)
    assert [r.method for r in table.rows] == list(bench.METHODS)
    if C == 1:
        assert all(r.mean == 100.0 for r in table.rows)


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
    real_omp = bench.omp

    def counting_omp(*args, **kwargs):
        calls.append(args)
        return real_omp(*args, **kwargs)

    monkeypatch.setattr(bench, "omp", counting_omp)
    out_dir = tmp_path / "diag"
    rc = cli.main(
        ["diag", "--train", str(data), "--sample-index", "4",
         "--method", "sa_procrc", "--k", "2", "--out-dir", str(out_dir)]
    )
    assert rc == 0
    assert len(calls) == 1
    # the printed prediction is the argmax of the scores written to disk
    rows = (out_dir / "scores.csv").read_text().splitlines()[1:]
    best = max(rows, key=lambda r: float(r.split(",")[2])).split(",")[1]
    assert capsys.readouterr().out.startswith(f"sample 4: true class 2, predicted {best}\n")


def test_diag_sample_index_out_of_range(tmp_path, capsys):
    data = make_data(tmp_path)
    capsys.readouterr()
    rc = cli.main(
        ["diag", "--train", str(data), "--sample-index", "6",
         "--method", "crc", "--out-dir", str(tmp_path / "d")]
    )
    assert rc == 1
    assert "out of range" in capsys.readouterr().err


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


def test_missing_input_file_exits_two(tmp_path, capsys):
    rc = cli.main(
        ["classify", "--train", str(tmp_path / "nope.rcls"),
         "--test", str(tmp_path / "nope.rcls"), "--method", "crc"]
    )
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: FileNotFoundError:")
    assert cli.main(["bench", "--config", str(tmp_path / "nope.yaml")]) == 2


def test_bad_config_exits_two(tmp_path, capsys):
    cfg_path = tmp_path / "bad.yaml"
    cfg_path.write_text(CONFIG + "warp_drive: 9\n")
    assert cli.main(["bench", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ConfigError:")
    assert "warp_drive" in err


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
    ("crc", "--lambda", "lam"), ("procrc", "--gamma", "gamma"),
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
