"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workload yaleb --seeds 1-10 [--trace 0] [--out runs.jsonl]

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``run_seconds`` of BENCHMARK.json, and prints per metric the median, the
quartiles and their distance as a share of the median (the spread that
BENCHMARK.json's bounds are compared with). ``--out`` appends every run's
JSON line, with its seed and summary line, to a file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 1-10")
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    ap.add_argument("--out")
    args = ap.parse_args()
    seconds = str(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    values, units = {}, {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", seconds, "--trace", args.trace],
            cwd=ROOT, capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
        if args.out:
            with open(args.out, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(dict(result, seed=seed, workload=args.workload,
                                         summary=lines[-2])) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]

    print(f"{'metric':32} {'unit':>9} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:32} {units[name]:>9} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}")


if __name__ == "__main__":
    main()
