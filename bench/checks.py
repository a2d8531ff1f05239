"""Checks of workload outputs against computations made apart from morseflow.

Every check takes plain data (a summary read off the program's outputs)
and raises CheckFailed on the first disagreement.  The expected values
come from closed forms, from the brute-force oracles in tests/oracles.py,
from a dense re-derivation written here, or from invariance properties;
none is a stored copy of an earlier run.
"""

import math
import xml.etree.ElementTree as ET
from fractions import Fraction

NEG_INF = float("-inf")
LN2 = math.log(2.0)


class CheckFailed(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise CheckFailed(msg)


# ---------------------------------------------------------------------------
# the doubling cascade in closed form

def cascade_transfers(n):
    """Transfer parameters of the tracked class in build_cascade(n).

    Lane k+1 sits at l = k/(2n+2), rises linearly on [lo, hi] with
    lo = (6k-3)/(6n) and hi = (6k-1)/(6n) to 2^k, and overtakes the
    current top c_k (at 2^(k-1)) where its value reaches 2^(k-1).
    """
    out = []
    for k in range(1, n + 1):
        ell = Fraction(k, 2 * n + 2)
        lo = Fraction(6 * k - 3, 6 * n)
        hi = Fraction(6 * k - 1, 6 * n)
        r = lo + (hi - lo) * (2 ** (k - 1) - ell) / (2 ** k - ell)
        out.append((r, "c%d" % k, "c%d" % (k + 1)))
    return out


def close(x, want, rel=1e-9):
    return abs(x - want) <= rel * max(abs(want), 1.0)


# ---------------------------------------------------------------------------
# exact piecewise-linear evaluation and dense linear algebra, written apart
# from morseflow.piecewise / matrix / algebra

def pl_value(points, r):
    """Value at r of the polyline through points, or None outside it."""
    for (r0, v0), (r1, v1) in zip(points, points[1:]):
        if r0 <= r <= r1:
            return v0 + (v1 - v0) * (r - r0) / (r1 - r0)
    return None


def window_gens(arcs, floor, ceiling, r):
    """Ids of arcs (id, points) alive at r with floor < value < ceiling."""
    out = []
    for aid, pts in arcs:
        v = pl_value(pts, r)
        if v is not None and floor < v < ceiling:
            out.append(aid)
    return out


def dense(entries, gens):
    return [[entries.get((g, c), 0) for c in gens] for g in gens]


def squares_to_zero(entries):
    """d.d == 0 for a sparse matrix given as {(row, col): value}."""
    by_row = {}
    for (r, c), v in entries.items():
        by_row.setdefault(r, []).append((c, v))
    acc = {}
    for (a, b), v in entries.items():
        for c, w in by_row.get(b, ()):
            acc[(a, c)] = acc.get((a, c), 0) + v * w
    return all(x == 0 for x in acc.values())


def rank_q(rows):
    """Rank over the rationals by Gauss-Jordan elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c] / m[rank][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# the random suite

def check_family(fam, s, oracles):
    """fam: plain family (ring, arcs, windows); s: summary of one operation.

    Z2 families are compared with full enumeration, as in acceptance
    criterion 8: windowed ranks and every slab's spectral value.  Z
    families must square to zero on every interval and keep homology
    rank and torsion across every event; the free rank is re-derived
    as n - 2 rank_Q(d).
    """
    expect(s["cerf_ok"], "family structure reported invalid")
    expect(s["axioms_ok"], "axiom report not ok")
    intervals = s["intervals"]
    if fam["ring"] == "Z":
        first = s["homology"][0]
        for (lo, hi, rows, entries), h in zip(intervals, s["homology"]):
            expect(squares_to_zero(entries),
                   "count matrix on (%s, %s) does not square to zero" % (lo, hi))
            expect(h == first, "homology changes across an event: %s -> %s" % (first, h))
            rows = sorted(rows, key=str)
            free = len(rows) - 2 * rank_q(dense(entries, rows))
            expect(h[0] == free, "free rank %d on (%s, %s), want %d" % (h[0], lo, hi, free))
        return
    arcs = fam["arcs"]
    heights = dict(arcs)
    for wname, (floor, ceiling) in fam["windows"].items():
        for (lo, hi, _, entries), h in zip(intervals, s["windowed"][wname]):
            mid = (lo + hi) / 2
            gens = window_gens(arcs, floor, ceiling, mid)
            want = oracles.z2_homology_rank(dense(entries, gens))
            expect(h == (want, ()), "window %s on (%s, %s): rank %s, oracle %d"
                   % (wname, lo, hi, h, want))
        for tr in s["traces"][wname]:
            expect(tr["outcome"] == "Survived", "track outcome %s" % tr["outcome"])
            for idx, lo, hi, top, certified in tr["segments"]:
                expect(certified, "slab (%s, %s) not certified" % (lo, hi))
                mid = (lo + hi) / 2
                entries = intervals[idx][3]
                gens = window_gens(arcs, floor, ceiling, mid)
                masks = oracles.z2_matrix_to_rowmasks(dense(entries, gens))
                bits = 0
                for g, v in tr["reps"][idx].items():
                    expect(v == 1 and g in gens, "representative entry %r=%r" % (g, v))
                    bits |= 1 << gens.index(g)
                vals = [pl_value(heights[g], mid) for g in gens]
                brute = oracles.z2_spectral_bruteforce(bits, masks, len(gens), vals)
                engine = NEG_INF if top is None else pl_value(heights[top], mid)
                expect(engine == brute, "window %s slab (%s, %s): spectral value "
                       "%s, oracle %s" % (wname, lo, hi, engine, brute))


# ---------------------------------------------------------------------------
# the command line

def parse_report(text):
    """Map 'key: value' lines of a text report to their last value."""
    out = {}
    for line in text.splitlines():
        if ": " in line and not line.startswith("#"):
            k, v = line.split(": ", 1)
            out[k] = v
    return out


def transfers_in(trace_text):
    out = []
    for line in trace_text.splitlines():
        if line.startswith("# transfer at r="):
            r, move = line[len("# transfer at r="):].split(": ")
            a, b = move.split(" -> ")
            out.append((Fraction(r), a, b))
    return out


def homology_rows(text):
    """(full rank, windowed rank) per interval row of a homology report."""
    rows = []
    body = text.split("interval\tspan\trank\ttorsion\twindowed\n", 1)[1]
    for line in body.split("\n\n", 1)[0].splitlines():
        cells = line.split("\t")
        rows.append((int(cells[2]), int(cells[4].split()[0])))
    return rows


def svg_ok(path):
    try:
        return ET.parse(path).getroot().tag.endswith("svg")
    except (OSError, ET.ParseError):
        return False


def check_command(cmd, n, res):
    """res: (exit code, stdout) of one command on the cascade file of n stages."""
    code, out = res
    expect(code == 0, "%s on n=%d exited %d" % (cmd, n, code))
    if cmd == "cascade":
        expect(out.strip().endswith("cascade%d.scn" % n), "cascade wrote %r" % out)
    elif cmd == "validate":
        expect(out.count("result: ok") == 2, "validate n=%d not ok" % n)
    elif cmd == "evolve":
        events = [ln for ln in out.splitlines() if ln.startswith("event r=")]
        expect(len(events) == n, "evolve n=%d: %d events" % (n, len(events)))
        expect(not any(ln.startswith("  (") for ln in out.splitlines()),
               "evolve n=%d: nonzero count entries" % n)
    elif cmd == "homology":
        rows = homology_rows(out)
        expect(len(rows) == n + 1 and all(r == (n + 1, n + 1) for r in rows),
               "homology n=%d: ranks %s, want %d everywhere" % (n, rows, n + 1))
    elif cmd == "track":
        expect(transfers_in(out) == cascade_transfers(n),
               "track n=%d: transfers differ from the closed form" % n)
        expect(parse_report(out).get("final") == str(2 ** n),
               "track n=%d: final %s" % (n, parse_report(out).get("final")))
    elif cmd == "escape":
        rep = parse_report(out)
        want = (n - 1) * LN2
        expect(close(float(rep["total"]), want),
               "escape n=%d: total %s, want (n-1) ln 2 = %r" % (n, rep["total"], want))
        expect(rep["verdict"] == ("InfeasibleWithinUnitTime" if n >= 3 else "WithinBudget"),
               "escape n=%d: verdict %s" % (n, rep["verdict"]))
    elif cmd == "plot":
        paths = out.split()
        expect(len(paths) == 2 and all(svg_ok(p) for p in paths),
               "plot n=%d: SVG files %r do not parse" % (n, paths))
    else:
        raise CheckFailed("no check for command %r" % cmd)


def check_bundled(results):
    """results: {(scenario, command): (exit code, stdout)} of one pass."""
    for (name, cmd), (code, out) in sorted(results.items()):
        expect(code == 0, "%s %s exited %d" % (cmd, name, code))
        if cmd == "plot":
            expect(all(svg_ok(p) for p in out.split()), "plot %s: bad SVG" % name)
        elif (name, cmd) == ("slide", "homology"):
            rows = homology_rows(out)
            expect(rows and all(full == 1 for full, _ in rows),
                   "slide: homology ranks %s, want 1 everywhere" % rows)
        elif (name, cmd) == ("slide", "track"):
            moves = transfers_in(out)
            expect(moves == [(Fraction(3, 4), "c1", "c2")],
                   "slide: transfers %s, want c1 -> c2 at 3/4" % moves)
