#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed and prints, per metric, the median and the
interquartile range as a share of the median (the spread a bound in
BENCHMARK.json must cover). Run from the repository root:

    python3 perfbench/spread.py --workload expert-session --seeds 1 2 3 4 5
    python3 perfbench/spread.py --workload serve-crowd --seeds 1-10 --seconds 10

`--bin` runs a prebuilt benchmark binary instead of `cargo run`.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec:
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", nargs="+", default=["1-5"])
    ap.add_argument("--seconds", default="10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--bin", help="prebuilt perfbench binary")
    a = ap.parse_args()
    cmd = [a.bin] if a.bin else [
        "cargo", "run", "--quiet", "--release", "--offline",
        "--manifest-path", "perfbench/Cargo.toml", "--"]
    values = {}
    for seed in seeds(a.seeds):
        run = subprocess.run(
            cmd + ["--workload", a.workload, "--seed", str(seed),
                   "--seconds", a.seconds, "--trace", a.trace],
            capture_output=True, text=True, check=False)
        if run.returncode != 0:
            sys.exit(f"seed {seed} failed ({run.returncode}):\n{run.stderr}")
        result = json.loads(run.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    print(f"\n{'metric':28} {'median':>12} {'iqr/median':>11}")
    for name, xs in values.items():
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4)
        share = (q3 - q1) / med if med else float("nan")
        print(f"{name:28} {med:12.5g} {share:11.4f}")


if __name__ == "__main__":
    main()
