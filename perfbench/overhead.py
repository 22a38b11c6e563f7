"""Tracing overhead: traced minus untraced, for each end-to-end metric.

    python3 perfbench/overhead.py --workload scale --seed 1 [--seconds 20]

Runs the benchmark once untraced and once traced at the same seed and run
length, and prints one line per metric: untraced value, traced value (the
traced run's ``trace.*`` metric) and their difference.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def metrics(workload, seed, seconds, trace):
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=RUN.parent.parent, capture_output=True, text=True, check=True)
    return {k: v["value"] for k, v in json.loads(proc.stdout.splitlines()[-1])["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args()
    plain = metrics(args.workload, args.seed, args.seconds, 0)
    traced = metrics(args.workload, args.seed, args.seconds, 1)
    for name, value in plain.items():
        t = traced[f"trace.{name}"]
        print(f"{args.workload} {name}: untraced {value:.6g} traced {t:.6g} "
              f"overhead {t - value:+.6g} ({(t - value) / value:+.1%})")


if __name__ == "__main__":
    main()
