"""Steadiness mode: run one workload repeatedly and report the spread.

    python3 bench/steady.py --workload cli [--runs 10] [--first-seed 1]
                            [--seconds 40] [--trace 0]

Each run is a fresh `bench/run.py` process with its own seed (first-seed,
first-seed + 1, ...), one after another.  For every metric the script
prints the median of the runs and the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) as a share of the
median, and the share of failed operations in each run.  The raw
results go to bench/out/steady-<workload>.json.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SUMMARY = re.compile(r"operations .* in ([0-9.]+) s, ([0-9.]+) ops/s")


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=os.path.dirname(HERE), timeout=600)
    if proc.returncode != 0:
        raise SystemExit("run with seed %d exited %d:\n%s"
                         % (seed, proc.returncode, proc.stderr))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    timed = SUMMARY.search(proc.stderr)
    result["timed_ops_per_s"] = float(timed.group(2))
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    results = []
    for i in range(args.runs):
        seed = args.first_seed + i
        results.append(one_run(args.workload, seed, args.seconds, args.trace))
        r = results[-1]
        print("seed %d: correct=%s attempted=%d failed=%d %s" % (
            seed, r["correct"], r["attempted"], r["failed"],
            " ".join("%s=%.6g" % (k, v["value"]) for k, v in r["metrics"].items()
                     if not k.endswith(".calls"))), flush=True)

    print("\n%s: %d runs, seeds %d..%d" % (args.workload, args.runs, args.first_seed,
                                           args.first_seed + args.runs - 1))
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print("failed share per run: %s; all correct: %s"
          % (shares, all(r["correct"] for r in results)))
    names = list(results[0]["metrics"]) + ["timed_ops_per_s"]
    for name in names:
        values = [r[name] if name == "timed_ops_per_s" else r["metrics"][name]["value"]
                  for r in results]
        if len(values) >= 2:
            med, iqr = spread(values)
            same = " (identical in every run)" if len(set(values)) == 1 else ""
            print("%-40s median %-14.6g IQR/median %.4f%s" % (name, med, iqr, same))
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", "steady-%s.json" % args.workload), "w") as fh:
        json.dump({"args": vars(args), "results": results}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
