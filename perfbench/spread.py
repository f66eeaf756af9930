"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

Usage (from the root of a checkout):

    python3 perfbench/spread.py --workload NAME --seeds 1 2 3 ... [--seconds S]

Runs the benchmark once per seed with --trace 0 and prints, per metric, the
median, the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, and that share
against a third of the metric's bound in BENCHMARK.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = args.seconds or bench["run_seconds"]
    values = {}
    for seed in args.seeds:
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", "0"]
        started = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        took = time.monotonic() - started
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        if not doc["correct"]:
            print(f"seed {seed}: {doc['failed']} of {doc['attempted']} requests failed")
        for name, m in doc["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({took:.1f} s): " + " ".join(f"{k}={m['value']:.4g}"
                                          for k, m in doc["metrics"].items()), flush=True)
    if len(args.seeds) < 2:
        return 0
    for metric in bench["end_to_end"]:
        v = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        share = (q3 - q1) / med
        verdict = "ok" if share < metric["bound"] / 3 else "WIDE"
        print(f"{metric['name']:18s} median {med:.5g} {metric['unit']:5s} iqr/median "
              f"{share:.3f} bound/3 {metric['bound'] / 3:.3f} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
