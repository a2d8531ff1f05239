"""Differential check of the working tree against a git revision.

    python tests/differential.py REV [--kinds bundled,cascade,ladder]

unpacks ``git archive REV src`` into a temporary directory and runs one
fixed, seeded corpus through that tree and through the working tree's
src, each in its own subprocess, then compares the two case by case.
Probe kinds:

* bundled: every golden.COMMANDS on every golden.BUNDLED scenario under
  --coeff z2, z and q.  Both trees read the working tree's scenario
  files by path, so a file the revision does not bundle is compared too.
* cascade: the cascades 6, 12 and 30 that each tree generates, and every
  golden.COMMANDS on them under the same rings.
* ladder: full_homology on randgen families, 150 per ring over Z2, Z
  and Q: at every interval midpoint, one drawn ladder of five nested
  windows and each of its leading 1-5 windows; the repr of the
  StabilizationReport, or the error raised.

A command case records its exit code, standard output and the sha256 of
every file written under --out (the SVGs), as tests/golden.py does.  The
script prints one count line per probe kind, the first differing cases
and a summary line, and exits 1 on any difference.  pytest does not
collect this file; tests/test_differential.py checks the script itself.
"""

import argparse
import io
import json
import os
import random
import subprocess
import sys
import tarfile
import tempfile
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
DATA = os.path.join(SRC, "morseflow", "data")
COEFFS = ("z2", "z", "q")
CASCADES = (6, 12, 30)
SHOWN = 5                    # differing cases printed per kind


# ---------------------------------------------------------------------------
# probes: run in a worker process, against the morseflow on its path, so
# each imports the program (and the test helpers that import it) itself

def _commands(cases, label, path, work):
    import golden
    for coeff in COEFFS:
        for cmd in golden.COMMANDS:
            out = (os.path.join(work, "%s-%s-%s" % (cmd, label, coeff))
                   if cmd == "plot" else None)
            cases["%s %s --coeff %s" % (cmd, label, coeff)] = golden._run(
                [cmd, path, "--coeff", coeff], work, out)


def probe_bundled(work):
    import golden
    cases = {}
    for name in golden.BUNDLED:
        _commands(cases, name, os.path.join(DATA, name + ".scn"), work)
    return cases


def probe_cascade(work):
    import golden
    cases = {}
    for n in CASCADES:
        out = os.path.join(work, "cascade%d" % n)
        cases["cascade --n %d" % n] = golden._run(
            ["cascade", "--n", str(n)], work, out)
        _commands(cases, "cascade%d" % n,
                  os.path.join(out, "cascade%d.scn" % n), work)
    return cases


# randgen's lanes and bubbles clear each of these levels
LEVELS = [-20, -5, 10, F(55, 2), F(65, 2), F(75, 2), 50, 75, 85, 95, 110]


def probe_ladder(work):
    import randgen
    from morseflow.bifurcation import evolve
    from morseflow.errors import MorseflowError
    from morseflow.rings import Q, Z, Z2
    from morseflow.tracker import Window, full_homology

    cases = {}
    for ring in (Z2, Z, Q):
        for seed in range(150):
            rng = random.Random("%s/%d" % (ring.name, seed))
            sc = randgen.random_scenario(rng, ring)
            log = evolve(sc.gamma0, sc.events, sc.family)
            for fc in log.intervals:
                split = rng.randrange(1, len(LEVELS))
                floors = sorted(rng.choices(LEVELS[:split], k=5), reverse=True)
                ceilings = sorted(rng.choices(LEVELS[split:], k=5))
                ladder = [Window.constant(a, b)
                          for a, b in zip(floors, ceilings)]
                r = fc.midpoint()
                for k in range(1, 6):
                    try:
                        got = repr(full_homology(sc.family, log, r, ladder[:k]))
                    except MorseflowError as e:
                        got = "%s: %s" % (type(e).__name__, e)
                    cases["ladder %s seed %d r=%s k=%d"
                          % (ring.name, seed, r, k)] = got
    return cases


PROBES = {"bundled": probe_bundled, "cascade": probe_cascade,
          "ladder": probe_ladder}


def _worker(src, kinds, path):
    """Run the probes of kinds and write {kind: {case: result}} to path.
    The morseflow imported must be the one under src."""
    import morseflow
    where = os.path.dirname(os.path.abspath(morseflow.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise SystemExit("imported morseflow from %s, not from %s" % (where, src))
    got = {}
    with tempfile.TemporaryDirectory() as work:
        for kind in kinds:
            got[kind] = PROBES[kind](work)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(got, fh, sort_keys=True)


# ---------------------------------------------------------------------------
# comparing two trees

def run_tree(src, kinds, path):
    """Start a worker on the tree whose package directory is src."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--worker", src,
         "--kinds", ",".join(kinds), "--into", path], env=env)


def compare(src_a, src_b, kinds=tuple(PROBES)):
    """(report lines, number of cases, number of differing cases) of the
    trees src_a and src_b on the probes of kinds; the two workers run side
    by side."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")]
        procs = [run_tree(s, kinds, p) for s, p in zip((src_a, src_b), paths)]
        for src, proc in zip((src_a, src_b), procs):
            if proc.wait():
                raise RuntimeError("the probes failed on %s" % src)
        a, b = [json.load(open(p, encoding="utf-8")) for p in paths]
    lines, total, cases = [], 0, 0
    for kind in kinds:
        names = sorted(set(a[kind]) | set(b[kind]))
        bad = [n for n in names if a[kind].get(n) != b[kind].get(n)]
        total += len(bad)
        cases += len(names)
        lines.append("%s: %d cases, %d differ" % (kind, len(names), len(bad)))
        for n in bad[:SHOWN]:
            x, y = _around(a[kind].get(n), b[kind].get(n))
            lines += ["  " + n, "    - " + x, "    + " + y]
    return lines, cases, total


def _around(x, y, width=160):
    """x and y as JSON, cut to width characters around their first
    difference."""
    x, y = json.dumps(x, sort_keys=True), json.dumps(y, sort_keys=True)
    i = next((i for i, (p, q) in enumerate(zip(x, y)) if p != q),
             min(len(x), len(y)))
    lo = max(0, i - width // 2)
    return tuple(("..." if lo else "") + t[lo:lo + width]
                 + ("..." if len(t) > lo + width else "") for t in (x, y))


def checkout(rev, into):
    """The src directory of rev, unpacked from git archive under into."""
    tar = subprocess.run(["git", "-C", REPO, "archive", "--format=tar", rev,
                          "src"], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as tf:
        tf.extractall(into, filter="data")
    return os.path.join(into, "src")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", nargs="?", help="git revision to compare against")
    ap.add_argument("--kinds", default=",".join(PROBES),
                    help="comma-separated probe kinds (default: all)")
    ap.add_argument("--worker", help=argparse.SUPPRESS)
    ap.add_argument("--into", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    kinds = args.kinds.split(",")
    if any(k not in PROBES for k in kinds):
        ap.error("probe kinds are %s" % ", ".join(PROBES))
    if args.worker:
        _worker(args.worker, kinds, args.into)
        return 0
    if not args.rev:
        ap.error("give a git revision")
    with tempfile.TemporaryDirectory() as tmp:
        lines, cases, differ = compare(checkout(args.rev, tmp), SRC, kinds)
    print("\n".join(lines))
    print("differential %s vs working tree: %d cases, %d differ"
          % (args.rev, cases, differ))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
