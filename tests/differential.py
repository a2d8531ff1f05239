"""Differential check of the working tree against a git revision.

    python tests/differential.py REV [--kinds bundled,cascade,ladder,...]

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
  windows and each of its leading 1-5 windows.
* geometry: on randgen families, 150 per ring over Z2, Z and Q, the
  crossings of every arc pair; each arc's contains and value at every
  knot of the family and every knot midpoint; window_violation and
  validate_window for wide_window, three drawn constant windows and
  three drawn windows whose cutoffs have 2-3 knots at values near the
  arcs' knot values, so that their ranges overlap the arcs' and the
  walk decides; in each usable one, track_class(...).table() of l1 (and
  of l1 + l2 when l2 exists) and spectral_value's value, support and
  top at every interval midpoint; and validate_axioms's findings on the
  family and on copies with one entry of the initial count matrix
  reversed.
* escape: under the bounds linear, linear with the asymmetric gap
  (-1, 5), square, polylog p=1/2 and iterlog depth 1, check_H1 on
  randgen families, 50 per ring, and on cascades 6 and 12; escape_budget on each one's trace in the wide window, and on
  two traces of c3 in the bundled slide (the boundary of c2): one in its
  window, where the class is zero (ZeroClass), and one in the window
  (3/2, 10), which it leaves at once (EmptyTrace); and budget_for_heights
  and check_H2 (kappa 1/2 and 2, from the first height) on the heights
  of each trace that has any, the zero class's -inf heights included,
  in both directions, and on the tie [64/9, 361/36].
* values: what escape and plot read of a trace (track_class) of
  cascades 6, 12, 30 and 60, and of l1 (and of l1 + l2 when l2 exists)
  on randgen families, 150 per ring over Z2, Z and Q, in wide_window and
  in the window (10, 200): each slab's interval, bounds, top and values,
  the transfers and outcome, and each class's interval, representative
  and values.
* track: the whole trace (track_class) of l1 (and of l1 + l2 when
  l2 exists) on randgen families, 150 per ring over Z2, Z and Q, and of
  c1 on cascades 6, 12 and 30, in wide_window and in the window
  (10, 200): every slab with its support, the transfers, the outcome and
  the classes.
* homology: on randgen families, 100 per ring over Z2, Z and Q,
  homology of every interval's count matrix, filtered_homology at the
  interval's midpoint in wide_window and in the window (10, 200), and
  the count matrix's homology asked again after those, which a kept
  result that went stale would change; and homology of
  randgen.conjugated_block's differentials over Z at n = 10, 20 and 30,
  and over Z2 at n = 10, 30 and 70 (past 64 generators), seeds 1-3,
  each asked twice.
* parse: _rational on a fixed list of literals, in the form
  serialize_scenario writes and in every other form (decimals,
  exponents, signs, leading zeros, spaces, underscores, non-ASCII
  digits, zero denominators, past the digit bound); and parse_scenario
  then serialize_scenario of randgen files, 60 per ring over Z2, Z and
  Q, and of copies with every literal rewritten by each of LITERAL_FORMS.
* cerf: on randgen families, 150 per ring over Z2, Z and Q, on the
  variants with one vertex's branches swapped or its declared f3
  shifted by +1/3 or by -1/2, and on one drawn randgen.mutate variant
  of each of randgen.MUTATIONS: validate_cerf's verdict and its error
  codes and messages (a vertex-orientation finding by its code only);
  and evolve's outcome, ok or the error class, with each birth's column
  set to each arc alive at the birth other than its branches.
* coset: on randgen families, 100 per ring over Z2, Z and Q, at every
  interval midpoint in wide_window and in the window (10, 200), the
  support _coset_minimize returns for the windowed differential, under
  the descending order and two drawn orders of the in-window
  generators, and three drawn representatives (any chain on them, not
  only cycles).
* maps: on randgen families, 150 per ring over Z2, Z and Q, each step's
  kind and its forward, backward and homotopy maps as sorted items; and
  validate_axioms's findings and then evolve's outcome on the family and
  on three copies with one drawn extra entry in the initial count
  matrix: the whole log evolve returns (each interval's bounds and
  sorted items, and each step's record), or the error; and then, copy
  by copy, validate_axioms's findings taken after an evolve of the same
  objects.
* affine: on randgen families, 100 per ring over Z2, Z and Q, and on one
  drawn randgen.mutate variant of each, under each map v -> c*v + s of
  AFFINE: the family against its image (randgen.affine_family), with
  wide_window and the window (10, 200) moved alike.  validate_cerf's
  verdict and error codes; and, on a valid family, filtered_homology at
  every interval midpoint and track_class of l1 (and of l1 + l2 when l2
  exists), each slab's interval, bounds, support and top, its values
  after rescaling, the transfers, the outcome and the classes.  A case
  records the parts that differ, so it reads [] wherever the invariance
  holds.

* numbers: the doors by which a number enters: frac, each ring's coerce,
  Piecewise with the value or the parameter of a point given as each of
  a fixed list of values (ints, Fractions and floats whole or not, NaN
  and the infinities, text within and past the literal bound, None,
  tuples, a complex and a Decimal), Piecewise.value at each of them and
  Piecewise with too few or unordered points; _side on both sides of
  each end of two profiles' common domain, inside it and outside either
  domain; and the growth-bound doors at each value: polylog's logs as
  the value and as its one exponent, GrowthBound's log exponents, each
  end of linear(1).cost, and the lower end of square(1).cost up to 2
  and of polylog(1, 1/2, gap=(-1, 1)).cost up to -1.

A library probe (ladder, geometry, escape, values, track, homology, parse,
coset, maps, affine, numbers) records the repr of each result, or the
class name and message of the error raised: a MorseflowError or a
ValueError, which older revisions raise for a profile's domain, and for
numbers an error of any class.

A command case records its exit code, standard output and the sha256 of
every file written under --out (the SVGs), as tests/golden.py does.  The
script prints one count line per probe kind, the first differing cases
and a summary line, and exits 1 on any difference.  pytest does not
collect this file; tests/test_differential.py checks the script itself.
"""

import argparse
import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tarfile
import tempfile
from decimal import Decimal
from fractions import Fraction as F

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
DATA = os.path.join(SRC, "morseflow", "data")
COEFFS = ("z2", "z", "q")
CASCADES = (6, 12, 30)
SHOWN = 5                    # differing cases printed per kind
NEG_INF = float("-inf")


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


def _attempt(fn):
    """repr of fn(), or the class name and message of the error it
    raises."""
    from morseflow.errors import MorseflowError
    try:
        return repr(fn())
    except (MorseflowError, ValueError) as e:
        return "%s: %s" % (type(e).__name__, e)


def probe_ladder(work):
    import randgen
    from morseflow.bifurcation import evolve
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
                    cases["ladder %s seed %d r=%s k=%d"
                          % (ring.name, seed, r, k)] = _attempt(
                        lambda: full_homology(sc.family, log, r, ladder[:k]))
    return cases


# drawn with LEVELS for the geometry probe's windows: each meets a lane or
# a bubble of some randgen families
HITS = [-8, 0, 40, 99]


# the inner knot and the offsets from the arcs' knot values of the
# geometry probe's bending cutoffs
WALK_KNOTS = [F(1, 3), F(1, 2), F(5, 7)]
NUDGES = [0, F(1, 3), F(-1, 3), 7, -7]


def geometry_windows(t, rng, walk):
    """The geometry probe's windows for the family t, as (label, window):
    wide_window, three constant windows that rng draws from LEVELS and
    HITS, and three that walk draws with cutoffs of 2-3 knots at values
    near the arcs' knot values."""
    from morseflow.piecewise import Piecewise
    from morseflow.tracker import Window, wide_window

    windows = [("wide", wide_window(t))]
    for k in range(3):
        lo, hi = sorted(rng.sample(LEVELS + HITS, 2))
        windows.append(("[%s, %s] #%d" % (lo, hi, k), Window.constant(lo, hi)))
    heights = sorted({v for a in t.arcs for _, v in a.f3.points})
    for k in range(3):
        rs = [0] + ([walk.choice(WALK_KNOTS)]
                    if walk.random() < 0.5 else []) + [1]
        floor, ceiling = zip(*(sorted(
            walk.choice(heights) + walk.choice(NUDGES)
            for _ in range(2)) for _ in rs))
        w = Window(Piecewise(tuple(zip(rs, floor))),
                   Piecewise(tuple(zip(rs, ceiling))))
        windows.append(("%s %s #%d" % (w.a.points, w.b.points, k), w))
    return windows


def probe_geometry(work):
    import randgen
    from morseflow.bifurcation import FlowCounter, evolve, validate_axioms
    from morseflow.matrix import SparseMatrix
    from morseflow.piecewise import crossings
    from morseflow.rings import Q, Z, Z2
    from morseflow.tracker import (spectral_value, track_class,
                                   validate_window, window_violation)

    def spectral(h, r, log, w):
        sv = spectral_value(h, r, log, w)
        return sv.value, sv.support, sv.top

    cases = {}
    for ring in (Z2, Z, Q):
        for seed in range(150):
            rng = random.Random("geometry %s/%d" % (ring.name, seed))
            sc = randgen.random_scenario(rng, ring)
            t = sc.family
            log = evolve(sc.gamma0, sc.events, t)
            name = "geometry %s seed %d" % (ring.name, seed)
            for f, g in itertools.combinations(t.arcs, 2):
                cases["%s crossings %s %s" % (name, f.id, g.id)] = _attempt(
                    lambda: crossings(f.f3, g.f3))
            knots = sorted({r for a in t.arcs for r, _ in a.f3.points})
            rs = knots + [(x + y) / 2 for x, y in zip(knots, knots[1:])]
            for a in t.arcs:
                cases["%s profile %s" % (name, a.id)] = [
                    [str(r), a.f3.contains(r),
                     _attempt(lambda: a.f3.value(r))] for r in rs]
            # cutoffs bending through the arcs' values are drawn with
            # their own generator, so the cases above draw as they did
            windows = geometry_windows(t, rng, random.Random(
                "geometry walk %s/%d" % (ring.name, seed)))
            hs = [("l1", {"l1": 1})]
            if any(a.id == "l2" for a in t.arcs):
                hs.append(("l1+l2", {"l1": 1, "l2": 1}))
            for label, w in windows:
                key = "%s window %s" % (name, label)
                why = window_violation(w, t)
                cases[key + " violation"] = why
                cases[key + " sides"] = _attempt(
                    lambda: sorted(validate_window(w, t).items()))
                if why is not None:
                    continue
                for hl, h in hs:
                    cases["%s track %s" % (key, hl)] = _attempt(
                        lambda: track_class(h, log, w).table())
                    for fc in log.intervals:
                        r = fc.midpoint()
                        cases["%s spectral %s r=%s" % (key, hl, r)] = _attempt(
                            lambda: spectral(h, r, log, w))
            g0 = sc.gamma0
            cases[name + " axioms"] = _attempt(
                lambda: validate_axioms(g0, sc.events, t).findings)
            for (c1, c2), v in g0.gamma.items():
                entries = dict(g0.gamma.entries)
                del entries[c1, c2]
                entries[c2, c1] = v
                rev = FlowCounter(g0.interval_index, g0.r_lo, g0.r_hi,
                                  SparseMatrix(ring, g0.gamma.rows,
                                               g0.gamma.cols, entries))
                cases["%s axioms %s reversed" % (name, (c1, c2))] = _attempt(
                    lambda: validate_axioms(rev, sc.events, t).findings)
    return cases


def _heights(trace, direction):
    """The heights escape_budget reads off a trace's slabs."""
    return [v if v == NEG_INF else direction * v
            for seg in trace.segments for v in (seg.rho_lo, seg.rho_hi)]


def probe_escape(work):
    import randgen
    from morseflow.bifurcation import evolve
    from morseflow.errors import MorseflowError
    from morseflow.escape import (budget_for_heights, build_cascade,
                                  check_H1, check_H2, escape_budget, iterlog,
                                  linear, polylog, square)
    from morseflow.rings import Q, Z, Z2
    from morseflow.scenario import load_scenario
    from morseflow.tracker import Window, track_class, wide_window

    bounds = [("linear", linear(1)), ("linear gap=(-1, 5)", linear(1, (-1, 5))),
              ("square", square(1)),
              ("polylog p=1/2", polylog(1, F(1, 2))),
              ("iterlog 1", iterlog(1, 1))]
    logs = []
    for n in (6, 12):
        t, g0, events = build_cascade(n)
        logs.append(("cascade %d" % n, evolve(g0, events, t), {"c1": 1}))
    for ring in (Z2, Z, Q):
        for seed in range(50):
            sc = randgen.random_scenario(
                random.Random("escape %s/%d" % (ring.name, seed)), ring)
            logs.append(("randgen %s seed %d" % (ring.name, seed),
                         evolve(sc.gamma0, sc.events, sc.family), {"l1": 1}))

    cases = {}
    traces = []
    for label, log, h in logs:
        t = log.family
        for bl, phi in bounds:
            cases["escape %s %s H1" % (label, bl)] = _attempt(
                lambda: check_H1(phi, t))
        try:
            traces.append((label, track_class(h, log, wide_window(t))))
        except MorseflowError as e:
            cases["escape %s trace" % label] = "%s: %s" % (type(e).__name__, e)
    # c3 is the boundary of c2 in slide, so it is zero in the window;
    # below the floor 3/2 it leaves at once and its trace is empty
    sc = load_scenario(os.path.join(DATA, "slide.scn"))
    log = evolve(sc.gamma0, sc.events, sc.family)
    traces += [("slide c3 zero", track_class({"c3": 1}, log, sc.window)),
               ("slide c3 empty", track_class(
                   {"c3": 1}, log, Window.constant(F(3, 2), 10)))]

    climbs = [("tie", [F(64, 9), F(361, 36)]),
              ("descending", [F(2), F(5), F(4)])]
    for label, trace in traces:
        for d, sign in (("+", 1), ("-", -1)):
            climbs.append(("%s %s" % (label, d), _heights(trace, sign)))
            for bl, phi in bounds:
                cases["escape %s %s %s escape_budget" % (label, d, bl)] = (
                    _attempt(lambda: escape_budget(trace, phi, sign)))
    for label, heights in climbs:
        if not heights:
            continue             # an empty trace has no climb to price
        rho0 = heights[0] if heights[0] != NEG_INF else 0
        for bl, phi in bounds:
            key = "escape %s %s" % (label, bl)
            cases[key + " budget"] = _attempt(
                lambda: budget_for_heights(heights, phi))
            for kappa in (F(1, 2), 2):
                cases["%s H2 kappa=%s" % (key, kappa)] = _attempt(
                    lambda: check_H2(phi, kappa, rho0))
    return cases


def _values(trace):
    """What escape and plot read of a trace: each slab's interval,
    bounds, top and values, the transfers and outcome, and each class's
    interval, representative and values."""
    return ([(s.interval_index, s.r_lo, s.r_hi, s.top, s.rho_lo, s.rho_hi)
             for s in trace.segments],
            trace.transfers, trace.outcome,
            [(c.interval_index, c.representative, c.rho_start, c.rho_end)
             for c in trace.classes])


def probe_values(work):
    import randgen
    from morseflow.bifurcation import evolve
    from morseflow.escape import build_cascade
    from morseflow.rings import Q, Z, Z2
    from morseflow.tracker import Window, track_class, wide_window

    runs = []
    for n in (6, 12, 30, 60):
        t, g0, events = build_cascade(n)
        runs.append(("cascade %d" % n, evolve(g0, events, t),
                     [("c1", {"c1": 1})], [("wide", wide_window(t))]))
    for ring in (Z2, Z, Q):
        for seed in range(150):
            sc = randgen.random_scenario(
                random.Random("values %s/%d" % (ring.name, seed)), ring)
            t = sc.family
            hs = [("l1", {"l1": 1})]
            if any(a.id == "l2" for a in t.arcs):
                hs.append(("l1+l2", {"l1": 1, "l2": 1}))
            runs.append(("randgen %s seed %d" % (ring.name, seed),
                          evolve(sc.gamma0, sc.events, t), hs,
                          [("wide", wide_window(t)),
                           ("(10, 200)", Window.constant(10, 200))]))
    cases = {}
    for label, log, hs, windows in runs:
        for wl, w in windows:
            for hl, h in hs:
                cases["values %s window %s %s" % (label, wl, hl)] = _attempt(
                    lambda: _values(track_class(h, log, w)))
    return cases


def probe_track(work):
    import randgen
    from morseflow.bifurcation import evolve
    from morseflow.escape import build_cascade
    from morseflow.rings import Q, Z, Z2
    from morseflow.tracker import Window, track_class, wide_window

    runs = []
    for n in CASCADES:
        t, g0, events = build_cascade(n)
        runs.append(("cascade %d" % n, t, evolve(g0, events, t),
                     [("c1", {"c1": 1})]))
    for ring in (Z2, Z, Q):
        for seed in range(150):
            sc = randgen.random_scenario(
                random.Random("track %s/%d" % (ring.name, seed)), ring)
            hs = [("l1", {"l1": 1})]
            if any(a.id == "l2" for a in sc.family.arcs):
                hs.append(("l1+l2", {"l1": 1, "l2": 1}))
            runs.append(("randgen %s seed %d" % (ring.name, seed), sc.family,
                         evolve(sc.gamma0, sc.events, sc.family), hs))
    cases = {}
    for label, t, log, hs in runs:
        for wl, w in (("wide", wide_window(t)),
                      ("(10, 200)", Window.constant(10, 200))):
            for hl, h in hs:
                cases["track %s window %s %s" % (label, wl, hl)] = _attempt(
                    lambda: track_class(h, log, w))
    return cases


def probe_homology(work):
    import randgen
    from morseflow.algebra import homology
    from morseflow.bifurcation import evolve
    from morseflow.matrix import SparseMatrix
    from morseflow.rings import Q, Z, Z2
    from morseflow.tracker import Window, filtered_homology, wide_window

    cases = {}
    for ring in (Z2, Z, Q):
        for seed in range(100):
            sc = randgen.random_scenario(
                random.Random("homology %s/%d" % (ring.name, seed)), ring)
            t = sc.family
            windows = [("wide", wide_window(t)),
                       ("(10, 200)", Window.constant(10, 200))]
            for fc in evolve(sc.gamma0, sc.events, t).intervals:
                key = "homology %s seed %d interval %d" % (
                    ring.name, seed, fc.interval_index)
                cases[key] = _attempt(lambda: homology(fc.gamma))
                for wl, w in windows:
                    cases["%s window %s" % (key, wl)] = _attempt(
                        lambda: filtered_homology(t, fc, fc.midpoint(), w))
                cases[key + " again"] = _attempt(lambda: homology(fc.gamma))
    for ring, sizes, name in ((Z, (10, 20, 30), ""), (Z2, (10, 30, 70), "Z2 ")):
        for n in sizes:
            for seed in (1, 2, 3):
                d = randgen.conjugated_block(random.Random(seed), n)[1]
                ids = ["g%02d" % i for i in range(n)]
                m = SparseMatrix.from_rows(ring, ids, ids, d)
                key = "homology %sconjugated block n=%d seed %d" % (
                    name, n, seed)
                cases[key] = _attempt(lambda: homology(m))
                cases[key + " again"] = _attempt(lambda: homology(m))
    return cases


def probe_coset(work):
    import oracles
    import randgen
    from morseflow.bifurcation import evolve
    from morseflow.rings import Q, Z, Z2
    from morseflow.tracker import Window, _coset_minimize, wide_window

    cases = {}
    for ring in (Z2, Z, Q):
        values = [1] if ring is Z2 else [-3, -2, -1, 1, 2, 3] + (
            [F(1, 2), F(-2, 3)] if ring is Q else [])
        for seed in range(100):
            rng = random.Random("coset %s/%d" % (ring.name, seed))
            sc = randgen.random_scenario(rng, ring)
            t = sc.family
            windows = [("wide", wide_window(t)),
                       ("(10, 200)", Window.constant(10, 200))]
            for fc in evolve(sc.gamma0, sc.events, t).intervals:
                r = fc.midpoint()
                for wl, w in windows:
                    gens = oracles.in_window_at(t, w, r)
                    d = fc.gamma.restrict(gens)
                    orders = [("descending", oracles.descending_order(
                        t, gens, r))]
                    orders += [("drawn %d" % k, rng.sample(gens, len(gens)))
                               for k in range(2)]
                    reps = [{g: rng.choice(values) for g in rng.sample(
                        gens, rng.randint(0, len(gens)))} for _ in range(3)]
                    for ol, order in orders:
                        for k, rep in enumerate(reps):
                            cases["coset %s seed %d interval %d window %s "
                                  "%s rep %d" % (ring.name, seed,
                                                 fc.interval_index, wl, ol,
                                                 k)] = _attempt(
                                lambda: _coset_minimize(ring, d, rep, order))
    return cases


def probe_maps(work):
    import randgen
    from morseflow.bifurcation import FlowCounter, evolve, validate_axioms
    from morseflow.matrix import SparseMatrix
    from morseflow.rings import Q, Z, Z2

    def bundle(maps):
        return (maps.kind, maps.forward.items(), maps.backward.items(),
                None if maps.homotopy is None else maps.homotopy.items())

    def whole(log):
        return ([(fc.interval_index, fc.r_lo, fc.r_hi, fc.gamma.rows,
                  fc.gamma.items()) for fc in log.intervals],
                [st.record for st in log.steps])

    cases = {}
    for ring in (Z2, Z, Q):
        values = [1] if ring is Z2 else [-2, -1, 1, 2] + (
            [F(1, 2)] if ring is Q else [])
        for seed in range(150):
            rng = random.Random("maps %s/%d" % (ring.name, seed))
            sc = randgen.random_scenario(rng, ring)
            t, g0 = sc.family, sc.gamma0
            name = "maps %s seed %d" % (ring.name, seed)
            for k, step in enumerate(evolve(g0, sc.events, t).steps):
                cases["%s step %d" % (name, k)] = _attempt(
                    lambda: bundle(step.maps))
            copies = [("as drawn", g0)]
            rows = g0.gamma.rows
            for _ in range(3):
                entries = dict(g0.gamma.entries)
                c1, c2 = rng.choice(rows), rng.choice(rows)
                entries[c1, c2] = rng.choice(values)
                copies.append(("with %s" % ((c1, c2, entries[c1, c2]),),
                               FlowCounter(g0.interval_index, g0.r_lo,
                                           g0.r_hi, SparseMatrix(
                                               ring, rows, g0.gamma.cols,
                                               entries))))
            for label, g in copies:
                key = "%s %s" % (name, label)
                cases[key + " axioms"] = _attempt(
                    lambda: validate_axioms(g, sc.events, t).findings)
                cases[key + " evolve"] = _attempt(
                    lambda: whole(evolve(g, sc.events, t)))
            # evolve first: the last objects read were another copy's
            for label, g in copies:
                _attempt(lambda: evolve(g, sc.events, t))
                cases["%s %s axioms after evolve" % (name, label)] = _attempt(
                    lambda: validate_axioms(g, sc.events, t).findings)
    return cases


# a numeric literal of a scenario file: not part of an id, a decimal or
# another fraction
_LITERAL = re.compile(r"(?<![\w./])(-?)([0-9]+)(?:/([0-9]+))?(?![\w./])")


def _decimal(sign, num, den):
    """The literal as a decimal, where its denominator divides a power of
    ten; as it is otherwise."""
    den = int(den or 1)
    scale = next((k for k in range(40) if 10 ** k % den == 0), None)
    if scale is None:
        return "%s%s/%d" % (sign, num, den)
    digits = str(int(num) * 10 ** scale // den).rjust(scale + 1, "0")
    return "%s%s.%s" % (sign, digits[:len(digits) - scale] or "0",
                        digits[len(digits) - scale:] or "0")


# literal rewrites: each takes the sign, numerator and denominator text
# of a literal and writes the same value in another form, which the
# reader may accept or refuse (spaces split a key=value field); decimal
# and exponent leave a fraction they cannot write as it is
LITERAL_FORMS = {
    "decimal": _decimal,
    "exponent": lambda s, n, d: s + n + ("/" + d if d else "e0"),
    "sign": lambda s, n, d: (s or "+") + n + ("/" + d if d else ""),
    "zeros": lambda s, n, d: "%s00%s%s" % (s, n, "/0" + d if d else ""),
    "spaces": lambda s, n, d: " %s%s%s " % (s, n, "/" + d if d else ""),
    "underscores": lambda s, n, d: "%s%s%s" % (
        s, n[0] + "_" + n[1:] if len(n) > 1 else n, "/" + d if d else ""),
}

LITERALS = ["0", "-0", "7", "-7", "007", "-0012", "3/4", "-3/4", "6/8",
            "-10/4", "03/04", "1/0", "0/0", "-1/00", "1/-2", "--1", "+-1",
            "1/2/3", "", " ", "+3", "+3/4", " 5/7 ", "\t-2\n", "1 / 2",
            "1/ 2", "2.5", "-0.125", ".5", "5.", "1e3", "1E-3", "2.5e-2",
            "1_000", "1__0", "_1", "1_/2", "\u0663", "1/\u0662", "x",
            "1/2x", "9" * 100, "-" + "9" * 100, "9" * 101, "1/" + "9" * 99,
            "1/" + "9" * 100, "1e99", "1e100", "0" * 101 + "1"]


def probe_parse(work):
    import randgen
    from morseflow.rings import Q, Z, Z2
    from morseflow.scenario import (_rational, parse_scenario,
                                    serialize_scenario)

    cases = {}
    for i, text in enumerate(LITERALS):
        cases["parse literal %d %r" % (i, text)] = _attempt(
            lambda: _rational(text, 1))
    rng = random.Random("parse literals")
    for i in range(300):
        sign = rng.choice(["", "-"])
        num = str(rng.randrange(10 ** rng.randrange(1, 12)))
        den = rng.choice([None, str(rng.randrange(1, 10 ** rng.randrange(
            1, 8)))])
        for form, write in [("plain", lambda s, n, d: s + n + (
                "/" + d if d else ""))] + sorted(LITERAL_FORMS.items()):
            text = write(sign, num, den)
            cases["parse drawn %d %s %r" % (i, form, text)] = _attempt(
                lambda: _rational(text, 1))
    for ring in (Z2, Z, Q):
        for seed in range(60):
            text = serialize_scenario(randgen.random_scenario(
                random.Random("parse %s/%d" % (ring.name, seed)), ring))
            name = "parse %s seed %d" % (ring.name, seed)
            for form, write in [("as written", None)] + sorted(
                    LITERAL_FORMS.items()):
                copy = text if write is None else _LITERAL.sub(
                    lambda m: write(*m.groups()), text)
                cases["%s %s" % (name, form)] = _attempt(
                    lambda: serialize_scenario(parse_scenario(copy)))
    return cases


# every kind of value a caller may pass for a number, for the numbers
# probe: ints, Fractions and floats that are whole or not, NaN and the
# infinities, text within and past the literal bound, and non-numbers
NUMBER_VALUES = [0, 1, -7, 2, 10 ** 400, True, False, F(1, 2), F(-6, 2),
                 F(1, 3), 2.0, 0.5, -0.0, 0.1, 1e308, float("nan"),
                 float("inf"), float("-inf"), None, "1", "-3/4", " 5 ", "0.25",
                 "1e3", "1e97", "1e98", "9" * 101, "x", "", "1/0", (), (1, 2),
                 1j, Decimal("0.5")]


def probe_numbers(work):
    from morseflow.escape import GrowthBound, linear, polylog, square
    from morseflow.piecewise import Piecewise, _side, frac
    from morseflow.rings import Q, Z, Z2

    def attempt(fn):
        # any error class: a revision may let Python's own errors through
        try:
            return repr(fn())
        except Exception as e:
            return "%s: %s" % (type(e).__name__, e)

    cases = {}
    pw = Piecewise(((0, 0), (F(1, 2), 1), (1, 3)))
    for v in NUMBER_VALUES + [F(-1, 2), F(3, 2)]:
        cases["numbers frac %r" % (v,)] = attempt(lambda: frac(v))
        for ring in (Z2, Z, Q):
            cases["numbers %s.coerce %r" % (ring, v)] = attempt(
                lambda: ring.coerce(v))
        cases["numbers Piecewise value %r" % (v,)] = attempt(
            lambda: Piecewise(((0, v), (1, 1))))
        cases["numbers Piecewise parameter %r" % (v,)] = attempt(
            lambda: Piecewise(((v, 0), (2, 1))))
        cases["numbers value %r" % (v,)] = attempt(lambda: pw.value(v))
        cases["numbers polylog logs %r" % (v,)] = attempt(
            lambda: polylog(1, 1, logs=v))
        cases["numbers polylog log exponent %r" % (v,)] = attempt(
            lambda: polylog(1, 1, logs=(v,)))
        cases["numbers GrowthBound log_powers %r" % (v,)] = attempt(
            lambda: GrowthBound(1, 1, v, (-2, 2)))
        cases["numbers cost lo %r" % (v,)] = attempt(
            lambda: linear(1).cost(v, 2))
        cases["numbers cost hi %r" % (v,)] = attempt(
            lambda: linear(1).cost(2, v))
        cases["numbers square cost lo %r" % (v,)] = attempt(
            lambda: square(1).cost(v, 2))
        cases["numbers root cost lo %r to -1" % (v,)] = attempt(
            lambda: polylog(1, F(1, 2), gap=(-1, 1)).cost(v, -1))
    for short in ((), ((0, 1),), ((1, 1), (0, 2)), ((0, 1), (0, 2))):
        cases["numbers Piecewise %r" % (short,)] = attempt(
            lambda: Piecewise(short))
    # _side at the ends of two profiles that share [1/4, 1/2], inside it
    # and outside either domain, on both sides
    f = Piecewise(((0, 0), (F(1, 2), 1)))
    g = Piecewise(((F(1, 4), 1), (1, 0)))
    for r in (-1, 0, F(1, 4), F(3, 8), F(1, 2), F(3, 4), 1, 2):
        for after in (True, False):
            cases["numbers _side r=%s after=%s" % (r, after)] = attempt(
                lambda: _side(f, g, r, after))
            cases["numbers _side f f r=%s after=%s" % (r, after)] = attempt(
                lambda: _side(f, f, r, after))
    return cases


def probe_cerf(work):
    import randgen
    from morseflow.bifurcation import Birth, EventRecord, evolve
    from morseflow.cerf import CerfTuple, validate_cerf
    from morseflow.errors import MorseflowError
    from morseflow.rings import Q, Z, Z2

    def findings(t):
        report = validate_cerf(t)
        return report.ok, [
            (f.code, None if f.code == "vertex-orientation" else f.message)
            for f in report.errors()]

    def outcome(gamma0, events, t):
        try:
            evolve(gamma0, events, t)
        except (MorseflowError, ValueError) as e:
            return type(e).__name__
        return "ok"

    cases = {}
    for ring in (Z2, Z, Q):
        for seed in range(150):
            sc = randgen.random_scenario(
                random.Random("cerf %s/%d" % (ring.name, seed)), ring)
            t = sc.family
            name = "cerf %s seed %d" % (ring.name, seed)
            cases[name] = findings(t)
            rng = random.Random("cerf mutants %s/%d" % (ring.name, seed))
            for kind in randgen.MUTATIONS:
                bad = randgen.mutate(rng, t, kind)
                if bad is not None:
                    cases["%s %s" % (name, kind)] = findings(bad)
            for i, v in enumerate(t.vertices):
                variants = [("swapped", randgen.vertex_with(
                    v, plus_arc=v.minus_arc, minus_arc=v.plus_arc))]
                variants += [("f3%+d/%d" % (d.numerator, d.denominator),
                              randgen.vertex_with(v, f3=v.f3 + d))
                             for d in (F(1, 3), F(-1, 2))]
                for label, w in variants:
                    vs = t.vertices[:i] + (w,) + t.vertices[i + 1:]
                    cases["%s %s %s" % (name, v.id, label)] = findings(
                        CerfTuple(t.arcs, vs))
            for e in sc.events:
                if not isinstance(e.payload, Birth):
                    continue
                v = t.vertex(e.payload.vertex)
                for a in t.arcs_alive(e.r):
                    if a.id in (v.plus_arc, v.minus_arc):
                        continue
                    ev = EventRecord(e.r, Birth(
                        e.payload.vertex, e.payload.pivot, ((a.id, 1),)))
                    events = [ev if x is e else x for x in sc.events]
                    cases["%s evolve %s column %s" % (name, v.id, a.id)] = (
                        outcome(sc.gamma0, events, t))
    return cases


# the affine probe's maps v -> c*v + s, each with c > 0: a scale far
# below 1, one far above it with a shift, and a shift alone
AFFINE = [(F(1, 10**9), 0), (F(10**9, 7), F(-5, 3)), (1, F(5, 7))]


def _affine_mismatches(sc, t, c, s):
    """The parts of the family t (a variant of sc's family) that differ
    from those of its image under v -> c*v + s, after rescaling: [] when
    the invariance holds."""
    import randgen
    from morseflow.bifurcation import evolve
    from morseflow.cerf import validate_cerf
    from morseflow.tracker import (Window, filtered_homology, track_class,
                                   wide_window)

    def moved(v):
        return v if v == NEG_INF else c * v + s

    def codes(t):
        report = validate_cerf(t)
        return report.ok, [f.code for f in report.errors()]

    def trace(h, log, w, move):
        tr = track_class(h, log, w)
        return ([(g.interval_index, g.r_lo, g.r_hi, g.support, g.top,
                  move(g.rho_lo), move(g.rho_hi)) for g in tr.segments],
                tr.transfers, tr.outcome,
                [(k.interval_index, k.representative, move(k.rho_start),
                  move(k.rho_end)) for k in tr.classes])

    t2 = randgen.affine_family(t, c, s)
    if codes(t) != codes(t2):
        return ["findings"]
    if not validate_cerf(t).ok:
        return []
    out = []
    logs = [evolve(sc.gamma0, sc.events, x) for x in (t, t2)]
    hs = [("l1", {"l1": 1})]
    if any(a.id == "l2" for a in t.arcs):
        hs.append(("l1+l2", {"l1": 1, "l2": 1}))
    for wl, w in (("wide", wide_window(t)),
                  ("(10, 200)", Window.constant(10, 200))):
        w2 = Window(randgen.affine_profile(w.a, c, s),
                    randgen.affine_profile(w.b, c, s))
        for fc, fc2 in zip(*(log.intervals for log in logs)):
            r = fc.midpoint()
            if (_attempt(lambda: filtered_homology(t, fc, r, w))
                    != _attempt(lambda: filtered_homology(t2, fc2, r, w2))):
                out.append("homology interval %d window %s"
                           % (fc.interval_index, wl))
        for hl, h in hs:
            if (_attempt(lambda: trace(h, logs[0], w, moved))
                    != _attempt(lambda: trace(h, logs[1], w2, lambda v: v))):
                out.append("track window %s %s" % (wl, hl))
    return out


def probe_affine(work):
    import randgen
    from morseflow.rings import Q, Z, Z2

    cases = {}
    for ring in (Z2, Z, Q):
        for seed in range(100):
            rng = random.Random("affine %s/%d" % (ring.name, seed))
            sc = randgen.random_scenario(rng, ring)
            kind = rng.choice(sorted(randgen.MUTATIONS))
            variants = [("", sc.family),
                        (" " + kind, randgen.mutate(rng, sc.family, kind))]
            for label, t in variants:
                if t is None:
                    continue
                for c, s in AFFINE:
                    cases["affine %s seed %d%s c=%s s=%s" % (
                        ring.name, seed, label, c, s)] = _attempt(
                        lambda: _affine_mismatches(sc, t, c, s))
    return cases


PROBES = {"bundled": probe_bundled, "cascade": probe_cascade,
          "ladder": probe_ladder, "geometry": probe_geometry,
          "escape": probe_escape, "values": probe_values, "track": probe_track,
          "cerf": probe_cerf, "homology": probe_homology, "parse": probe_parse,
          "coset": probe_coset, "maps": probe_maps, "affine": probe_affine,
          "numbers": probe_numbers}


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
