"""morseflow benchmark: one workload per process, a fixed list of operations.

    python3 bench/run.py --workload suite|cli [--seed N]
                         [--seconds S] [--trace 0|1]

A run sets up (imports and input generation) SETUPS times and keeps the
last set-up, times every operation of the workload's fixed list in
order, then checks every output outside the timed region.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
operations run under the per-layer tracer (tracing.py) and the metrics
are the per-layer ones, and the spans are written to
bench/out/spans-<workload>.tsv.  --seconds sets the number of whole
rounds of the list, never a time budget: a run makes the same
operations whatever the machine's speed.  --describe prints the make-up
of the workload's inputs instead of running it.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from types import SimpleNamespace

import checks
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUPS = 5
MIN_OPS = 40             # the tail percentile needs ten operations beyond it
PROGRAM = ("algebra", "bifurcation", "cerf", "cli", "escape", "rings", "tracker")


def import_program(fresh):
    """Import morseflow and the random generator and oracles from tests/.

    fresh drops every module imported before, so that each set-up pays
    for the imports again.
    """
    if fresh:
        for key in list(sys.modules):
            if key.split(".")[0] in ("morseflow", "randgen", "oracles", "fixtures"):
                del sys.modules[key]
    mods = {m: importlib.import_module("morseflow." + m) for m in PROGRAM}
    mods["randgen"] = importlib.import_module("randgen")
    mods["oracles"] = importlib.import_module("oracles")
    return SimpleNamespace(**mods)


def rounds_for(workload, seconds):
    """Whole rounds for about `seconds` of timing, with at least MIN_OPS
    operations.  The count is odd, so that the median of an operation's
    repeats is one of them."""
    by_time = round(seconds / workload.round_seconds)
    return max(by_time, -(-MIN_OPS // workload.round_len), 1) | 1


def tail_ms(times_ms):
    """The highest order statistic with at least ten operations beyond it.

    Runs shorter than MIN_OPS (the self-test's tiny ones) get the maximum.
    """
    ordered = sorted(times_ms)
    return ordered[-11] if len(ordered) >= MIN_OPS else ordered[-1]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload, seed, seconds, trace, tiny=False):
    """Set up, time the fixed list, check; returns the result object."""
    rounds = 1 if tiny else rounds_for(workload, seconds)
    setup_times = []
    for _ in range(SETUPS):
        gc.collect()             # each set-up starts from the same clean heap
        t0 = time.perf_counter()
        mf = import_program(fresh=True)
        inputs = workload.setup(mf, seed, rounds, tiny)
        setup_times.append(time.perf_counter() - t0)
    ops = workload.plan(mf, inputs)
    gc.collect()                 # no set-up garbage is collected while timing

    tracer = tracing.Tracer() if trace else None
    times, done, failed, correct = [], [], 0, True
    for op in ops:
        if tracer:
            tracer.install()
        t0 = time.perf_counter()
        try:
            out, error = op.call(), None
        except Exception as e:   # counted as failed; the run goes on
            out, error = None, e
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.remove()
        if error is not None:
            failed += 1
            print("operation %s failed:\n%s" % (op.label, "".join(
                traceback.format_exception(error))), file=sys.stderr)
            continue
        try:
            done.append((op, op.summarize(out)))
        except Exception:      # output too malformed to read: not correct
            correct = False
            print("cannot read the output of %s:\n%s" % (op.label, traceback.format_exc()),
                  file=sys.stderr)

    for op, summary in done:
        try:
            op.check(summary)
        except checks.CheckFailed as e:
            correct = False
            print("check failed on %s: %s" % (op.label, e), file=sys.stderr)
        except Exception:      # e.g. a report line missing: not correct
            correct = False
            print("check of %s raised:\n%s" % (op.label, traceback.format_exc()),
                  file=sys.stderr)

    times_ms = [t * 1000 for t in times]
    if tracer:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        tracer.write_spans(os.path.join(HERE, "out", "spans-%s.tsv" % workload.name))
        metrics = tracer.metrics()
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "ops/s"},
            "latency_p50_ms": {"value": statistics.median(times_ms), "unit": "ms"},
            "latency_tail_ms": {"value": tail_ms(times_ms), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
    print("%s: %d operations (%d rounds) in %.2f s, %.3f ops/s, setups %s s"
          % (workload.name, len(times), rounds, sum(times), len(times) / sum(times),
             " ".join("%.3f" % s for s in setup_times)), file=sys.stderr)
    return {"correct": correct, "attempted": len(ops), "failed": failed,
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=20260817,
                    help="seed of the suite's random families (default: the "
                         "acceptance gate's seed)")
    ap.add_argument("--seconds", type=int, default=40,
                    help="intended length of the timed part; sets the rounds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true",
                    help="print the make-up of the workload's inputs and exit")
    args = ap.parse_args(argv)

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    try:
        mf = import_program(fresh=False)
    except ImportError as e:
        print("error: cannot import the program from %s: %s" % (ROOT, e), file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r (have %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.describe:
        rounds = rounds_for(w, args.seconds)
        print(w.describe(w.setup(mf, args.seed, rounds, False)))
        return 0
    result = run(w, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
