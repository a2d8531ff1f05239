"""Seeded construction of random valid scenarios for the stress suites.

Families produced here are valid by construction rather than by
rejection sampling:

* Permanent lanes live in height tiers (uppers near 100, lowers near
  40) whose pairwise order never changes, so any count entry among
  them keeps a positive action gap on every interval.
* The initial matrix only counts upper -> lower pairs.  Columns of
  uppers stay empty under every generated event, so a birth column
  supported on uppers always satisfies the cycle condition.
* Branch pairs born at a vertex sit in bands below the lowers and are
  never slid, so a scheduled cancellation finds the pivot as the sole
  entry of its plus row and empty minus row / plus column.
"""

import random
from fractions import Fraction as F

from morseflow.bifurcation import Birth, Death, EventRecord, FlowCounter, HandleSlide
from morseflow.cerf import (Arc, BirthVertex, BoundaryAt0, BoundaryAt1, CerfTuple,
                            DeathVertex, Vertex)
from morseflow.matrix import SparseMatrix
from morseflow.piecewise import Piecewise
from morseflow.scenario import Scenario

from fixtures import chord

# event parameters are drawn from this grid; lane knots avoid it
_GRID = [F(i, 64) for i in range(4, 61, 4)]
_KNOTS = [F(3, 13), F(6, 13), F(9, 13)]


def _value(rng, ring):
    if ring.name == "Z2":
        return 1
    if ring.name == "Z":
        return rng.choice([1, -1, 2, -2])
    return rng.choice([1, -1, F(1, 2), F(-3, 2), 2])


def _unit(rng, ring):
    if ring.name == "Z2":
        return 1
    if ring.name == "Z":
        return rng.choice([1, -1])
    return rng.choice([1, -1, F(1, 2), 3])


def _lane(rng, aid, base, amp):
    """Full-width chord wiggling at most amp around its base height."""
    style = rng.randrange(3)
    if style == 0:
        pts = [(0, base), (1, base)]
    elif style == 1:
        off = rng.choice([-amp, amp])
        pts = [(0, base), (1, base + off)]
    else:
        off = rng.choice([-amp, amp])
        k = rng.choice(_KNOTS)
        pts = [(0, base), (k, base + off), (1, base)]
    return chord(aid, pts)


def random_scenario(rng, ring, max_arcs=10, max_events=6, n_events=None):
    """One random valid Scenario over the given ring."""
    if n_events is None:
        n_events = rng.randint(0, max_events)
    n_upper = rng.randint(1, 4)
    n_lower = rng.randint(1, 4)

    slots = sorted(rng.sample(_GRID, n_events))
    free = list(slots)
    arc_budget = max_arcs - n_upper - n_lower

    # branch pairs: band, birth slot, death slot or None
    bubbles = []
    for band in (0, -10):
        if arc_budget < 2 or not free or rng.random() < 0.45:
            continue
        if len(free) >= 2 and rng.random() < 0.6:
            i = rng.randrange(len(free) - 1)
            j = rng.randrange(i + 1, len(free))
            r_d = free.pop(j)
            r_b = free.pop(i)
            bubbles.append((band, r_b, r_d))
        else:
            r_b = free.pop(rng.randrange(len(free)))
            bubbles.append((band, r_b, None))
        arc_budget -= 2
    slide_slots = free

    arcs = []
    vertices = []
    uppers = []
    lowers = []
    order = []                       # lane ids, descending base height
    for i in range(n_upper):
        aid = "u%d" % (i + 1)
        arcs.append(_lane(rng, aid, 100 - 10 * i, 2))
        uppers.append(aid)
        order.append(aid)
    for i in range(n_lower):
        aid = "l%d" % (i + 1)
        arcs.append(_lane(rng, aid, 40 - 5 * i, 1))
        lowers.append(aid)
        order.append(aid)

    events = []
    for k, (band, r_b, r_d) in enumerate(bubbles, start=1):
        pid, mid = "p%d" % k, "m%d" % k
        vb = "vb%d" % k
        new_col = tuple((u, _value(rng, ring)) for u in uppers
                        if rng.random() < 0.3)
        events.append(EventRecord(r_b, Birth(vb, _unit(rng, ring), new_col)))
        if r_d is None:
            arcs.append(Arc(pid, Piecewise([(r_b, band), (1, band + 4)]),
                            BirthVertex(vb), BoundaryAt1()))
            arcs.append(Arc(mid, Piecewise([(r_b, band), (1, band - 4)]),
                            BirthVertex(vb), BoundaryAt1()))
            vertices.append(Vertex(vb, "birth", r_b, band, pid, mid))
        else:
            vd = "vd%d" % k
            top = (r_b + r_d) / 2
            arcs.append(Arc(pid, Piecewise([(r_b, band), (top, band + 4), (r_d, band)]),
                            BirthVertex(vb), DeathVertex(vd)))
            arcs.append(Arc(mid, Piecewise([(r_b, band), (top, band - 4), (r_d, band)]),
                            BirthVertex(vb), DeathVertex(vd)))
            vertices.append(Vertex(vb, "birth", r_b, band, pid, mid))
            vertices.append(Vertex(vd, "death", r_d, band, pid, mid))
            events.append(EventRecord(r_d, Death(vd)))

    for r in slide_slots:
        i, j = sorted(rng.sample(range(len(order)), 2)) if len(order) > 1 else (0, 0)
        if i == j:
            continue
        delta = [(order[i], order[j], _value(rng, ring))]
        if len(order) > 2 and rng.random() < 0.25:
            i2, j2 = sorted(rng.sample(range(len(order)), 2))
            if (i2, j2) != (i, j):
                delta.append((order[i2], order[j2], _value(rng, ring)))
        events.append(EventRecord(r, HandleSlide(tuple(delta))))

    t = CerfTuple(tuple(arcs), tuple(vertices))

    entries = {}
    for u in uppers:
        for low in lowers:
            if rng.random() < 0.45:
                entries[(u, low)] = ring.coerce(_value(rng, ring))
    ids = uppers + lowers
    first = min((e.r for e in events), default=F(1))
    gamma0 = FlowCounter(0, F(0), first, SparseMatrix(ring, ids, ids, entries))
    return Scenario(ring, t, gamma0, tuple(sorted(events, key=lambda e: e.r)))


def affine_profile(pw, c, s):
    """The profile pw with every action v replaced by c*v + s."""
    return Piecewise(tuple((r, c * v + s) for r, v in pw.points))


def arc_with(a, **changes):
    """The arc a with the fields in changes replaced.

    Made by Arc's constructor, not a._replace, as vertex_with is by
    Vertex's: tests/differential.py runs this module against the classes
    of another revision, and both share only the constructors.
    """
    fields = dict(id=a.id, f3=a.f3, lo_tag=a.lo_tag, hi_tag=a.hi_tag,
                  lo_open=a.lo_open, hi_open=a.hi_open)
    fields.update(changes)
    return Arc(**fields)


def vertex_with(v, **changes):
    """The vertex v with the fields in changes replaced (arc_with)."""
    fields = dict(id=v.id, kind=v.kind, r=v.r, f3=v.f3, plus_arc=v.plus_arc,
                  minus_arc=v.minus_arc)
    fields.update(changes)
    return Vertex(**fields)


def affine_family(t, c, s):
    """The family with every action v replaced by c*v + s."""
    arcs = tuple(arc_with(a, f3=affine_profile(a.f3, c, s)) for a in t.arcs)
    verts = tuple(vertex_with(v, f3=c * v.f3 + s) for v in t.vertices)
    return CerfTuple(arcs, verts)


def conjugate_unipotent(rng, d, steps):
    """d, a dense square integer matrix, conjugated in place by steps
    unipotent steps: add c times row j to row i (i < j) and subtract c
    times column i from column j, c = 1 or -1.  Each step is P d P^-1
    with P = I + c e_ij, so the homology of a differential is kept."""
    n = len(d)
    for _ in range(steps):
        i, j = sorted(rng.sample(range(n), 2))
        c = rng.choice([-1, 1])
        d[i] = [x + c * y for x, y in zip(d[i], d[j])]
        for row in d:
            row[j] -= c * row[i]
    return d


def conjugated_block(rng, n):
    """(B, d): B an h x h block of integers in [-3, 3], and d the dense
    differential [[0, B], [0, 0]] on n = 2h generators conjugated by n
    unipotent steps, whose elimination grows its entries.  The homology
    of d is free of rank n - 2 rank B, with a cyclic group per invariant
    factor of B above 1."""
    h = n // 2
    b = [[rng.randint(-3, 3) for _ in range(h)] for _ in range(h)]
    d = [[0] * h + row for row in b] + [[0] * n for _ in range(h)]
    return b, conjugate_unipotent(rng, d, n)


def planted_smith(rng, n, factors):
    """Dense differential [[0, B], [0, 0]] on n = 2h generators, B = U D V
    with D = diag(factors) padded with zeros to h x h and U, V products
    of 2h drawn steps that add +-1 times one row, or column, of
    B to another, then conjugated by n unipotent steps.  For a
    divisibility chain of at most h nonzero factors, its homology over
    the integers is free of rank n - 2 len(factors), with a cyclic group
    per factor above 1, by construction."""
    h = n // 2
    b = [[factors[i] if i == j < len(factors) else 0 for j in range(h)]
         for i in range(h)]
    for _ in range(2 * h):
        i, j = rng.sample(range(h), 2)
        c = rng.choice((-1, 1))
        b[i] = [x + c * y for x, y in zip(b[i], b[j])]
        i, j = rng.sample(range(h), 2)
        c = rng.choice((-1, 1))
        for row in b:
            row[j] += c * row[i]
    d = [[0] * h + row for row in b] + [[0] * n for _ in range(h)]
    return conjugate_unipotent(rng, d, n)


MUTATIONS = ("retag", "repoint", "drop", "duplicate")


def mutate(rng, t, kind):
    """The family t with one drawn defect of a kind in MUTATIONS: an arc
    end retagged, a vertex's plus or minus arc repointed to another arc,
    a vertex dropped, or an arc given another arc's id.  None when t has
    no vertex (repoint, drop) or fewer than two arcs (duplicate)."""
    arcs, verts = list(t.arcs), list(t.vertices)
    if kind == "retag":
        i = rng.randrange(len(arcs))
        end = rng.choice(("lo_tag", "hi_tag"))
        tags = [BoundaryAt0(), BoundaryAt1()]
        tags += [tag(v.id) for v in verts for tag in (BirthVertex, DeathVertex)]
        tags.remove(getattr(arcs[i], end))
        arcs[i] = arc_with(arcs[i], **{end: rng.choice(tags)})
    elif kind == "repoint" and verts:
        i = rng.randrange(len(verts))
        side = rng.choice(("plus_arc", "minus_arc"))
        ids = [a.id for a in arcs if a.id != getattr(verts[i], side)]
        verts[i] = vertex_with(verts[i], **{side: rng.choice(ids)})
    elif kind == "drop" and verts:
        del verts[rng.randrange(len(verts))]
    elif kind == "duplicate" and len(arcs) > 1:
        i, j = rng.sample(range(len(arcs)), 2)
        arcs[i] = arc_with(arcs[i], id=arcs[j].id)
    else:
        return None
    return CerfTuple(arcs, verts)
