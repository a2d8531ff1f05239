"""Golden outputs of the morseflow command line.

Every report command runs on each bundled scenario and on generated
cascade files; a case records the exit code and standard output of one
command.  Files written under an --out directory are recorded by their
sha256, and the temporary directory in printed paths reads ``<out>``.

Rewrite tests/golden_cli.json from the program on the path with

    PYTHONPATH=src python tests/golden.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from morseflow.cli import main

BUNDLED = ("slide", "twoslides", "birth", "eyeball", "escaping",
           "duplicate_event", "ladder")
CASCADES = (6, 12)
COMMANDS = ("validate", "evolve", "homology", "track", "escape",
            "rabinowitz", "plot")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_cli.json")


def _run(argv, work, out=None):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv + (["--out", out] if out else []))
        except SystemExit as e:
            code = e.code
    case = {"exit": code, "stdout": stdout.getvalue().replace(work, "<out>")}
    if out and os.path.isdir(out):
        case["files"] = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                case["files"][name] = hashlib.sha256(fh.read()).hexdigest()
    return case


def collect(work):
    """{case name: {"exit", "stdout"[, "files"]}} for every command."""
    cases = {}
    inputs = [(name, name) for name in BUNDLED]
    for n in CASCADES:
        out = os.path.join(work, "cascade%d" % n)
        cases["cascade --n %d" % n] = _run(["cascade", "--n", str(n)], work, out)
        inputs.append(("cascade%d" % n, os.path.join(out, "cascade%d.scn" % n)))
    for label, arg in inputs:
        for cmd in COMMANDS:
            out = os.path.join(work, "%s-%s" % (cmd, label)) if cmd == "plot" else None
            cases["%s %s" % (cmd, label)] = _run([cmd, arg], work, out)
    return cases


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        got = collect(work)
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(got, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %d cases to %s" % (len(got), GOLDEN), file=sys.stderr)
