"""Self-test of the benchmark: every check must reject a wrong answer.

    python3 bench/selftest.py

1. Runs each workload once at a tiny size, untraced and traced, and
   requires correct outputs, no failed operation, and exactly the
   metric names that BENCHMARK.json declares.
2. Takes real summaries from tiny operations, plants one wrong answer
   in a copy (a transfer parameter moved by 1/1000, a spectral value
   taken from the wrong arc, a rank off by one, a budget off by ln 2,
   and more), and requires the check to raise CheckFailed.
3. Copies only BENCHMARK.json and bench/ into an empty directory and
   requires run.py to exit nonzero there without printing a result.

Exits 0 when every case behaves, 1 otherwise.
"""

import copy
import json
import math
import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import checks      # noqa: E402
import run         # noqa: E402
import workloads   # noqa: E402

PROBLEMS = []


def problem(msg):
    PROBLEMS.append(msg)
    print("FAIL: " + msg)


def tiny_runs():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {0: [m["name"] for m in spec["end_to_end"]],
            1: [m["name"] for m in spec["per_layer"]]}
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problem("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for name, w in workloads.WORKLOADS.items():
        for trace in (0, 1):
            res = run.run(w, 1, 1, trace, tiny=True)
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problem("tiny %s run (trace %d): %s" % (name, trace, res))
            if list(res["metrics"]) != want[trace]:
                problem("tiny %s run (trace %d) reports %s, BENCHMARK.json "
                        "declares %s" % (name, trace, list(res["metrics"]), want[trace]))
            print("ok: tiny %s run, trace %d, %d operations"
                  % (name, trace, res["attempted"]))


def real_summaries(name):
    """Tiny inputs and (op, summary) for each operation; checks must pass."""
    mf = run.import_program(fresh=False)
    w = workloads.WORKLOADS[name]
    inputs = w.setup(mf, 1, 1, True)
    out = []
    for op in w.plan(mf, inputs):
        s = op.summarize(op.call())
        op.check(s)
        out.append((op, s))
    return inputs, out


def must_reject(label, check, wrong):
    try:
        check(wrong)
    except checks.CheckFailed as e:
        print("ok: %s rejected (%s)" % (label, e))
        return
    problem("check accepted a wrong answer: %s" % label)


def suite_cases():
    (families, _), ops = real_summaries("suite")
    (z2_op, z2), (z_op, z) = ops[0], ops[1]
    assert (families[0].ring.name, families[1].ring.name) == ("Z2", "Z")
    # the top of the first slab, replaced by another arc of the window
    # whose action differs there
    fam = workloads.WORKLOADS["suite"].plain_family(families[0])
    wrong = copy.deepcopy(z2)
    tr = wrong["traces"]["wide"][0]
    idx, lo, hi, top, cert = tr["segments"][0]
    mid = (lo + hi) / 2
    heights = dict(fam["arcs"])
    other = next(g for g in checks.window_gens(fam["arcs"], *fam["windows"]["wide"], mid)
                 if checks.pl_value(heights[g], mid) != checks.pl_value(heights[top], mid))
    tr["segments"][0] = (idx, lo, hi, other, cert)
    must_reject("Z2 spectral value taken from arc %s instead of %s" % (other, top),
                z2_op.check, wrong)
    wrong = copy.deepcopy(z2)
    rank, tors = wrong["windowed"]["tier"][0]
    wrong["windowed"]["tier"][0] = (rank + 1, tors)
    must_reject("Z2 windowed rank off by one", z2_op.check, wrong)
    wrong = copy.deepcopy(z2)
    segs = wrong["traces"]["tier"][0]["segments"]
    segs[0] = segs[0][:4] + (False,)
    must_reject("Z2 slab not certified", z2_op.check, wrong)
    wrong = copy.deepcopy(z)
    rank, tors = wrong["homology"][-1]
    wrong["homology"][-1] = (rank + 1, tors)
    must_reject("Z homology rank off by one", z_op.check, wrong)
    wrong = copy.deepcopy(z)
    wrong["homology"][-1] = (wrong["homology"][-1][0], (2,))
    must_reject("Z torsion changed across an event", z_op.check, wrong)
    wrong = copy.deepcopy(z)
    lo, hi, rows, entries = wrong["intervals"][0]
    rows = sorted(rows)
    entries[(rows[0], rows[1])] = 1
    entries[(rows[1], rows[0])] = 1
    must_reject("Z count matrix that does not square to zero", z_op.check, wrong)


def cli_cases():
    ops = {op.label: (op, s) for op, s in real_summaries("cli")[1]}
    n = workloads.Cli.tiny_stages[0]

    def edit(label, pattern, repl):
        op, s = ops[label]
        code, text = s
        new = re.sub(pattern, repl, text, count=1, flags=re.M)
        assert new != text, (label, pattern)
        return op.check, (code, new)

    op, s = ops["track n=%d" % n]
    must_reject("cli track exit code 1", op.check, (1, s[1]))
    r = checks.transfers_in(s[1])[0][0]
    must_reject("cli track transfer moved by 1/1000",
                *edit("track n=%d" % n, re.escape("r=%s:" % r), "r=%s:" % (r + Fraction(1, 1000))))
    must_reject("cli track final value off",
                *edit("track n=%d" % n, r"^final: \d+", "final: %d" % (2 ** n + 1)))
    total = float(checks.parse_report(ops["escape n=%d" % n][1][1])["total"])
    must_reject("cli escape total off by ln 2",
                *edit("escape n=%d" % n, r"^total: .*$", "total: %r" % (total + math.log(2))))
    must_reject("cli escape verdict flipped",
                *edit("escape n=%d" % n, r"^verdict: .*$", "verdict: WithinBudget"))
    op, s = ops["homology pass"]
    code, text = s[n]
    wrong = dict(s)
    wrong[n] = (code, re.sub(r"^0\t([^\t]+)\t%d\t" % (n + 1), r"0\t\1\t%d\t" % (n + 2),
                             text, count=1, flags=re.M))
    assert wrong[n] != s[n]
    must_reject("cli homology rank off by one", op.check, wrong)
    op, s = ops["plot n=%d" % n]
    bad = os.path.join(workloads.OUT_DIR, "selftest-broken.svg")
    with open(bad, "w") as fh:
        fh.write("<svg><g></svg>")
    must_reject("cli plot SVG that does not parse", op.check, (0, s[1].split()[0] + "\n" + bad))
    op, s = ops["bundled pass"]
    wrong = dict(s)
    code, text = wrong[("slide", "track")]
    wrong[("slide", "track")] = (code, text.replace("r=3/4:", "r=751/1000:"))
    must_reject("cli slide transfer moved by 1/1000", op.check, wrong)
    wrong = dict(s)
    code, text = wrong[("slide", "homology")]
    wrong[("slide", "homology")] = (code, re.sub(r"^(\d+\t[^\t]+\t)1\t", r"\g<1>2\t",
                                                text, count=1, flags=re.M))
    must_reject("cli slide homology rank off by one", op.check, wrong)
    wrong = dict(s)
    wrong[("eyeball", "rabinowitz")] = (1, "")
    must_reject("cli bundled command exit code 1", op.check, wrong)


def bare_directory():
    bare = os.path.join(workloads.OUT_DIR, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problem("run.py in a directory without the program exited %d, printed %r"
                % (proc.returncode, proc.stdout))
    else:
        print("ok: without the program run.py exits %d: %s"
              % (proc.returncode, proc.stderr.strip()))


def main():
    tiny_runs()
    suite_cases()
    cli_cases()
    bare_directory()
    print("\n%s" % ("all cases behave" if not PROBLEMS else
                    "%d problem(s):\n  %s" % (len(PROBLEMS), "\n  ".join(PROBLEMS))))
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
