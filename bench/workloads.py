"""The two workloads: fixed lists of operations, their summaries and checks.

A workload's setup() makes the inputs; plan() returns the operations of
one run in their fixed order.  Each Op has a call (the timed work), a
summarize step that reads plain data off the call's result outside the
timed region, and a check on that summary (see checks.py).
"""

import contextlib
import io
import os
import random
from fractions import Fraction

import checks

LANES = [(u, l) for u in range(1, 5) for l in range(1, 5)]
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Op:
    __slots__ = ("label", "call", "summarize", "check")

    def __init__(self, label, call, summarize, check):
        self.label, self.call, self.summarize, self.check = label, call, summarize, check


# ---------------------------------------------------------------------------
# suite: many small seeded random families

class Suite:
    """One operation per family of tests/randgen.py, alternating Z2 and Z.

    The families are stratified on what sets most of their cost: family
    i has i % 7 events and the (upper, lower) lane counts
    LANES[(i // 2) % 16], so 224 consecutive families cover every (ring,
    events, lanes) cell once.  Families are drawn from the seed and each
    fills the first open slot of its cell; the rest of each family is
    random.  Without the strata, the work of a run swings with the seed
    by more than the machine's own noise.
    """

    name = "suite"
    round_seconds = 1.0
    round_len = 14
    tier = (10, 200)

    def setup(self, mf, seed, rounds, tiny):
        rng = random.Random(seed)
        rings = (mf.rings.Z2, mf.rings.Z)
        count = 2 if tiny else self.round_len * rounds
        families = [None] * count
        # i % 14 fixes the ring (i % 2) and the event count (i % 7); within
        # each such group, every draw fills the first open slot of its lanes
        for group in range(14):
            want = {}
            for i in range(group, count, 14):
                want.setdefault(LANES[(i // 2) % 16], []).append(i)
            while want:
                sc = mf.randgen.random_scenario(rng, rings[group % 2], n_events=group % 7)
                ids = [a.id for a in sc.family.arcs]
                lanes = (sum(1 for a in ids if a.startswith("u")),
                         sum(1 for a in ids if a.startswith("l")))
                if lanes in want:
                    families[want[lanes].pop(0)] = sc
                    if not want[lanes]:
                        del want[lanes]
        tier = mf.tracker.Window.constant(*(Fraction(x) for x in self.tier))
        return families, tier

    def plan(self, mf, inputs):
        families, tier = inputs
        return [self._op(mf, i, sc, tier) for i, sc in enumerate(families)]

    def describe(self, inputs):
        families, _ = inputs
        lines = ["suite: %d families" % len(families)]
        for ring in ("Z2", "Z"):
            fams = [sc for sc in families if sc.ring.name == ring]
            kinds = {}
            for sc in fams:
                for e in sc.events:
                    kinds[e.kind] = kinds.get(e.kind, 0) + 1
            lines.append("  %-2s %d families, %d arcs, %d events (%s), %d count entries"
                         % (ring, len(fams), sum(len(sc.family.arcs) for sc in fams),
                            sum(len(sc.events) for sc in fams),
                            ", ".join("%s %d" % kv for kv in sorted(kinds.items())),
                            sum(len(sc.gamma0.gamma.entries) for sc in fams)))
        return "\n".join(lines)

    def _op(self, mf, i, sc, tier):
        bif, trk = mf.bifurcation, mf.tracker
        t = sc.family
        ids = {a.id for a in t.arcs}
        tracked = [{"l1": 1}] + ([{"l1": 1, "l2": 1}] if "l2" in ids else [])
        slides = tuple(e.r for e in sc.events
                       if isinstance(e.payload, bif.HandleSlide))

        def call():
            cerf = mf.cerf.validate_cerf(t, event_params=slides)
            axioms = bif.validate_axioms(sc.gamma0, sc.events, t)
            log = bif.evolve(sc.gamma0, sc.events, t)
            homs = [mf.algebra.homology(fc.gamma) for fc in log.intervals]
            out = {}
            for wname, w in (("wide", trk.wide_window(t)), ("tier", tier)):
                filt = [trk.filtered_homology(t, fc, fc.midpoint(), w)
                        for fc in log.intervals]
                out[wname] = (filt, [trk.track_class(h, log, w) for h in tracked])
            return cerf, axioms, log, homs, out

        def summarize(res):
            cerf, axioms, log, homs, out = res
            return {
                "cerf_ok": cerf.ok, "axioms_ok": axioms.ok,
                "intervals": [(fc.r_lo, fc.r_hi, tuple(fc.gamma.rows),
                               dict(fc.gamma.entries)) for fc in log.intervals],
                "homology": [(h.free_rank, h.torsion) for h in homs],
                "windowed": {w: [(h.free_rank, h.torsion) for h in filt]
                             for w, (filt, _) in out.items()},
                "traces": {w: [{"outcome": tr.outcome,
                                "segments": [(s.interval_index, s.r_lo, s.r_hi,
                                              s.top, s.certified)
                                             for s in tr.segments],
                                "reps": {c.interval_index: dict(c.representative)
                                         for c in tr.classes}}
                               for tr in traces]
                           for w, (_, traces) in out.items()},
            }

        fam = self.plain_family(sc)
        return Op("family %d (%s, %d events)" % (i, sc.ring.name, len(sc.events)),
                  call, summarize,
                  lambda s: checks.check_family(fam, s, mf.oracles))

    def plain_family(self, sc):
        """Ring name, arc polylines and both windows, read off the input."""
        arcs = [(a.id, a.f3.points) for a in sc.family.arcs]
        values = [v for _, pts in arcs for _, v in pts]
        return {"ring": sc.ring.name, "arcs": arcs,
                "windows": {"wide": (min(values) - 1, max(values) + 1),
                            "tier": self.tier}}


# ---------------------------------------------------------------------------
# cli: the morseflow command, in-process

def run_cli(main, argv):
    """(exit code, stdout) of one morseflow command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


class Cli:
    """morseflow commands on generated cascade files and bundled scenarios.

    track, escape and plot are one operation per file.  The cheap
    cascade, validate and evolve run as one pass over all files, homology
    as another, and the bundled scenarios as one pass over all their
    commands.  Per round, 5 operations take under 80 ms (the files pass,
    the bundled pass and the three on N = 6), 3 take about 100 ms (N = 8)
    and 7 take 190 ms or more (the homology pass and the six on N = 10
    and 12).  With an odd number of rounds the median is then the 43rd of
    the 51 operations on N = 8 at 17 rounds, and the tail the 41st of the
    51 on N = 12: both sit in the upper part of a cluster of operations
    doing the same work.  The machine this was tuned on switches between
    a fast and a slow state; the middle of such a cluster flips between
    the two from run to run, while its upper part stays in the slow one.
    """

    name = "cli"
    stages = (6, 8, 10, 12)
    tiny_stages = (3,)
    file_cmds = ("cascade", "validate", "evolve")
    per_file = ("track", "escape", "plot")
    bundled = ("slide", "twoslides", "birth", "eyeball")
    bundled_cmds = ("validate", "evolve", "homology", "track", "plot")
    round_len = 2 + len(per_file) * len(stages) + 1
    round_seconds = 2.3

    def setup(self, mf, seed, rounds, tiny):
        work = os.path.join(OUT_DIR, "cli")
        os.makedirs(work, exist_ok=True)
        for name in os.listdir(work):
            if name.endswith((".scn", ".svg")):
                os.remove(os.path.join(work, name))
        return work, (self.tiny_stages if tiny else self.stages), (1 if tiny else rounds)

    def plan(self, mf, inputs):
        work, stages, rounds = inputs
        main = mf.cli.main
        scn = {n: os.path.join(work, "cascade%d.scn" % n) for n in stages}

        def svg_dir(tag):
            return os.path.join(work, tag)

        def cmd_argv(cmd, n):
            if cmd == "cascade":
                return ["cascade", "--n", str(n), "--out", work]
            if cmd == "plot":
                return ["plot", scn[n], "--out", svg_dir("plot%d" % n)]
            return [cmd, scn[n]]

        def files_op():
            def call():
                return {(cmd, n): run_cli(main, cmd_argv(cmd, n))
                        for n in stages for cmd in self.file_cmds}

            def check(res):
                for (cmd, n), r in res.items():
                    checks.check_command(cmd, n, r)
            return Op("files pass", call, dict, check)

        def homology_op():
            def call():
                return {n: run_cli(main, cmd_argv("homology", n)) for n in stages}

            def check(res):
                for n, r in res.items():
                    checks.check_command("homology", n, r)
            return Op("homology pass", call, dict, check)

        def file_op(cmd, n):
            return Op("%s n=%d" % (cmd, n), lambda: run_cli(main, cmd_argv(cmd, n)),
                      tuple, lambda r: checks.check_command(cmd, n, r))

        argvs = [((s, c), [c, s] + (["--out", svg_dir("b-" + s)] if c == "plot" else []))
                 for s in self.bundled for c in self.bundled_cmds]
        argvs.append((("eyeball", "rabinowitz"), ["rabinowitz", "eyeball"]))
        bundled_op = Op("bundled pass",
                        lambda: {key: run_cli(main, argv) for key, argv in argvs},
                        dict, checks.check_bundled)

        one_round = [files_op(), homology_op()]
        one_round += [file_op(cmd, n) for n in stages for cmd in self.per_file]
        one_round.append(bundled_op)
        return one_round * rounds

    def describe(self, inputs):
        work, stages, rounds = inputs
        return ("cli: %d rounds of %d operations on cascade files N = %s\n"
                "  passes over all files: %s on each file, then homology\n"
                "  one operation per file: %s\n"
                "  one pass over the bundled %s: %s, and rabinowitz on eyeball"
                % (rounds, self.round_len, " ".join(map(str, stages)),
                   ", ".join(self.file_cmds), ", ".join(self.per_file),
                   ", ".join(self.bundled), ", ".join(self.bundled_cmds)))


WORKLOADS = {w.name: w for w in (Suite(), Cli())}
