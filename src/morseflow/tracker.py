"""Windows, filtered homology, continuation maps, and spectral tracking.

A window is a pair of piecewise-linear cutoffs a(r) < b(r) whose graphs
stay clear of every arc of the family.  That clearance is what makes the
windowed theory exact: each arc is entirely below a, inside, or above b
for its whole lifetime, so restricting the count matrix to in-window
arcs is a chain-map-compatible truncation (flows only ever decrease the
action, so nothing leaks back in across the floor).

Class tracking pushes a representative through the comparison maps of
the event log and recomputes its spectral value on every slab between
action crossings of its coset's generators; the spectral value of a
class is the smallest top action over all representatives in its
coset.  Tracking is the one reader of those maps: a step builds them on
the first read, and they relate its two complexes because evolve
checked the log (bifurcation's module docstring).  The greedy coset
reduction that finds the smallest top action is proven tight over every
coefficient ring (_coset_minimize), so every spectral value and slab is
certified.  A class leaves the window only below, so a trace's outcome
is Survived or LeftWindow(below).

The geometry those calls read is kept once per family and window, in
one entry per usable window, made by _window: its sides, in-window ids
and the crossings of its in-window pairs sorted by parameter, which the
first trace in that window fills.  An unusable window gets no entry:
every read of it judges it again and raises InvalidWindow.  A pair
whose lives do not meet, or whose value ranges are strictly apart (the
kernel's _range and _apart), never meets, so it adds no crossings and
is not walked.
validate_window, filtered_homology, full_homology and track_class read
the entries of the family they are given.  One slot holds the entries of
the last family read, keyed by its identity, and each entry is keyed by
its window's value.  A profile's integer points are its own
(Piecewise.ints); track_class and _window_cuts look each in-window
arc's profile up once per call.

An interval's in-window generators have one reader, _interval_gens:
the window's in-window ids among the rows of the interval's count
matrix.  The rows are the arcs alive on the interval (evolve checks it),
so no reader scans the family's arcs.  Each entry point finds its
interval one way: filtered_homology is given it and checks that r lies
in it, and full_homology takes it from EvolutionLog.counter_at; an
event parameter raises DegenerateParameter.
The windowed complex has one reader too, _window_complex: the count
matrix itself when the window holds every row, and its restriction
otherwise.  A matrix keeps its homology (matrix.py), so in a window
that holds every arc alive filtered_homology, full_homology and the
count matrix's own homology share one computation, and the sweep reads
the count matrix without copying it.
A trace walks the window's sorted crossings with one pointer across the
intervals, so each interval reads only the crossings inside it.  The
sweep is the one reader of a class's coset.  It orders only the
generators that the representative or an entry of the windowed
differential holds (_coset_gens gives the proof): no other generator is
nonzero in any element of the coset, so the sweep cuts an interval only
where two of them meet.  It minimizes on every slab: that order is
sorted on an interval's first slab and then carried across each cut,
re-sorting only the arcs that meet there.  A trace that once had a top
and then finds none raises VerificationFailed: a class nonzero in the
window stays so.

A ladder of nested windows (full_homology) is compared through the
projection and inclusion legs between consecutive windows.  They are
chain maps because every count lowers action (gamma1), and evolve
checks gamma1 on every interval of every log it returns.  Each window's
complex is restricted once and read by its homology and by both legs it
meets; each leg's rank is one elimination (_induced_rank) with no
cycle basis.  Every elimination here enters through algebra._echelon,
which alone picks bit rows (Z2) or dense lists (Z and Q).

The sweep's sign tests are integer ones, through the piecewise kernel:
window clearance, ladder nesting, an arc's side of the window and the
slab order compare (numerator, denominator) pairs by cross products,
and so do the sort of the window's crossings and the grouping of a
slab's bounds.  Window clearance reads the value ranges first and
walks only where they overlap.  Fractions are built for what a trace
returns and prints: the crossing parameters, once per family and
window, and one spectral value per slab end, a slab whose top carries
over starting at the value the last one ended on.
"""

import functools
import itertools
from fractions import Fraction
from typing import NamedTuple

from .algebra import _echelon, homology
from .bifurcation import HandleSlide
from .errors import (DegenerateParameter, InvalidWindow, NonNestedLadder,
                     NotACycle, VerificationFailed)
from .matrix import vec_apply
from .piecewise import Piecewise, _apart, _range, _ratio_at, _walk, crossings

NEG_INF = float("-inf")


# ---------------------------------------------------------------------------
# windows

class Window(NamedTuple):
    a: Piecewise
    b: Piecewise

    @staticmethod
    def constant(a, b):
        return Window(Piecewise.constant(a), Piecewise.constant(b))

    def contains_value(self, r, v):
        return self.a.value(r) < v < self.b.value(r)


def wide_window(t):
    """Constant window clearing every action value of the family by 1.
    A family with no arcs gets (-1, 1), as one whose every action is 0
    does: every window is usable for it."""
    lo, hi = t.f3_range()
    if lo is None:
        lo = hi = 0
    return Window.constant(lo - 1, hi + 1)


def window_violation(w, t):
    """Reason the window is unusable for t, or None if it is fine.

    The cutoffs must clear every arc strictly, on the same side for the
    arc's whole lifetime.  Both are piecewise-linear, so strict signs at
    their common knots decide it exactly, whatever the scale or offset
    of the actions; the signs are the kernel's integer numerators.

    A range decides first.  A piecewise-linear function takes its least
    and greatest values at its knots, so a floor whose range lies below
    the ceiling's stays below it, and an arc whose range lies strictly
    above or below a cutoff's clears it for its whole life.  The walk
    runs only where the ranges overlap or touch, and for an arc whose
    life leaves [0, 1], which the walk refuses.  Each range is taken
    once per call.
    """
    if w.a.r_lo != 0 or w.a.r_hi != 1 or w.b.r_lo != 0 or w.b.r_hi != 1:
        return "cutoffs must be defined on all of [0, 1]"
    ra, rb = _range(w.a), _range(w.b)
    if _apart(ra, rb) >= 0:
        ks, nums, _ = _walk(w.a, w.b, 0, 1)
        for k, d in zip(ks, nums):
            if not d < 0:
                return "floor meets ceiling at r=%s" % k
    for arc in t.arcs:
        f = arc.f3
        p = f.ints
        rf = _range(f) if p[0][0] >= 0 and p[-1][0] <= p[-1][1] else None
        for cutoff, rc, name in ((w.a, ra, "floor"), (w.b, rb, "ceiling")):
            if rf is not None and _apart(rf, rc):
                continue
            nums = _walk(f, cutoff, arc.r_lo, arc.r_hi)[1]
            if not (all(d > 0 for d in nums) or all(d < 0 for d in nums)):
                return "arc %r touches or crosses the %s" % (arc.id, name)
    return None


BELOW, INSIDE, ABOVE = -1, 0, 1


_prepared = None         # (family, {window: entry}) of the family read last


def _window(w, t):
    """The entry [sides, inside, cuts] of the window w for t: each arc's
    side, by id, the in-window ids in declaration order, and the
    crossings of the in-window pairs, None until _window_cuts fills
    them.  The entry is made on the first read and kept only for a
    usable window; an unusable one raises InvalidWindow on every read.

    The slot is keyed by the family's identity and holds a strong
    reference to it, so no other family can take over its id while it is
    there; only the last family read is kept alive.  Its entries are
    keyed by the window's value.
    """
    global _prepared
    if _prepared is None or _prepared[0] is not t:
        _prepared = t, {}
    windows = _prepared[1]
    entry = windows.get(w)
    if entry is not None:
        return entry
    why = window_violation(w, t)
    if why is not None:
        raise InvalidWindow(why)
    a, b = w.a.ints, w.b.ints
    sides = {}
    for arc in t.arcs:
        if arc.id in sides:
            continue             # the first arc with an id wins
        rn, rd, vn, vd = arc.f3.ints[0]
        an, ad = _ratio_at(a, rn, rd)
        bn, bd = _ratio_at(b, rn, rd)
        sides[arc.id] = (BELOW if vn * ad < an * vd else
                         INSIDE if vn * bd < bn * vd else ABOVE)
    entry = windows[w] = [
        sides, [g for g, side in sides.items() if side == INSIDE], None]
    return entry


def validate_window(w, t):
    """Side of the window (BELOW, INSIDE or ABOVE) of each arc, by id.

    Raises InvalidWindow if the window is unusable for t.  A usable
    window clears every arc strictly on one side for the arc's whole
    life, so the arc's first point decides, compared with each cutoff
    there by a cross product.  The first arc with an id wins, as in
    CerfTuple.arc.  The sides returned are the window entry's own:
    callers read them and do not change them.
    """
    return _window(w, t)[0]


# a stable sort of cuts by parameter, compared by one cross product
_BY_PARAMETER = functools.cmp_to_key(lambda u, v: u[1] * v[2] - v[1] * u[2])


def _window_cuts(w, t):
    """The crossings of every pair of in-window arcs whose lives meet, as
    (x, numerator, denominator, id, id), sorted by x: computed once per
    family and window, into the window's entry, walking each pair once.
    A pair whose value ranges are strictly apart never meets, so it gets
    no crossings without a walk."""
    entry = _window(w, t)
    if entry[2] is None:
        prof = {g: t.arc(g).f3 for g in entry[1]}
        ranges = {g: _range(f) for g, f in prof.items()}
        cuts = []
        for g1, g2 in itertools.combinations(entry[1], 2):
            f1, f2 = prof[g1], prof[g2]
            p, q = f1.ints, f2.ints
            if (p[0][0] * q[-1][1] > q[-1][0] * p[0][1]
                    or q[0][0] * p[-1][1] > p[-1][0] * q[0][1]
                    or _apart(ranges[g1], ranges[g2])):
                continue             # the lives or the ranges do not meet
            cuts.extend((x,) + x.as_integer_ratio() + (g1, g2)
                        for x in crossings(f1, f2))
        cuts.sort(key=_BY_PARAMETER)
        entry[2] = cuts
    return entry[2]


def _interval_gens(inside, fc):
    """The in-window generators of the interval of fc: the ids of inside
    (the window's in-window ids, in declaration order) among its
    matrix's rows.  The rows are exactly the arcs alive on the interval
    (evolve checks it at the midpoint), so no arc list is scanned."""
    rows = fc.gamma._row_set
    return [g for g in inside if g in rows]


def _window_complex(gamma, gens):
    """The count matrix gamma restricted to gens, a list of its rows
    without repeats: gamma itself when gens holds every row, so the
    complex of a window that holds every arc alive keeps its homology
    (matrix.py) across calls.  gens may list the rows in another order:
    equal lengths mean equal sets, and no reader of the complex reads
    the order of its rows (homology sorts them, and the sweep and the
    ladder take their orders from gens)."""
    return gamma if len(gens) == len(gamma.rows) else gamma.restrict(gens)


def filtered_homology(t, fc, r, w):
    """Homology of the count matrix restricted to the window at r, which
    must lie in the interval of fc (FlowCounter.holds).  The restriction
    squares to zero: a usable window clears every arc, and every count
    lowers action (gamma1), so no flow between two in-window generators
    passes outside the window."""
    inside = _window(w, t)[1]
    if not fc.holds(r):
        raise DegenerateParameter("r=%s is not inside the interval (%s, %s)"
                                  % (r, fc.r_lo, fc.r_hi))
    return homology(_window_complex(fc.gamma, _interval_gens(inside, fc)))


# ---------------------------------------------------------------------------
# comparison maps across events

def continuation_map(ev, log):
    """The comparison maps of one event of the log, built when the step's
    maps are first read."""
    return log.step_at(ev.r).maps


# ---------------------------------------------------------------------------
# spectral values

# generators as (num, den > 0, str(id)): higher action first, compared by
# one cross product, ties by str(id)
_DESCENDING = functools.cmp_to_key(
    lambda u, v: v[0] * u[1] - u[0] * v[1] or (u[2] > v[2]) - (u[2] < v[2]))


def _order_key(prof, rn, rd):
    """A cmp_to_key sort key (_DESCENDING) putting generators in
    descending action at rn/rd, ties by str(id), read from the integer
    points of prof, each generator's profile by id."""
    return lambda g: _DESCENDING(_ratio_at(prof[g].ints, rn, rd) + (str(g),))


def _coset_minimize(ring, d, rep, order):
    """Support, in order, of the representative of rep + im(d) minimizing
    the leading position.

    order lists the generators from highest action down; minimizing the
    top action means pushing the first nonzero coordinate as far down
    the list as possible.  Greedy reduction against an echelon basis of
    the image does it, and the result is certified on every ring.

    algebra._echelon runs that reduction on d's rows, taken in order:
    ordered_echelon returns a basis {b_p} of the image (over the
    integers, of the image lattice: its gcd steps are unimodular) with
    one vector leading at each pivot position p.  A nonzero element
    u = sum c_p b_p of the span leads at p0, the least p with c_p != 0,
    where it reads c_p0 b_p0[p0] != 0.  reduce_against stops with the
    vector v leading at a position l that either has no pivot or is
    blocked: its pivot's entry does not divide v[l].  Then v + u leads
    at p0 if p0 < l, at l if p0 > l, and also at l if p0 = l, since
    v[l] + c_l b_l[l] != 0 when b_l[l] does not divide v[l].  So no
    element of the coset leads below l, and greedy is tight.  Over Z2
    _echelon eliminates on bit rows, with the same pivots and support.
    """
    return _echelon(ring, d.entries, order, rep)[1]


def _coset_gens(gens, rep, d):
    """(list, set) of the generators of gens, the list in gens order,
    that rep or an entry of d holds: the only ones an element of
    rep + im(d) can be nonzero on.

    d is the windowed differential on gens and rep a chain on them.  A
    generator that neither rep nor an entry of d holds is zero in rep
    and in every image row, so it is zero in every element of the coset
    and can never be a top or sit in a support.  _coset_minimize on
    these generators, in an order that keeps the full order's relative
    order, returns the support it returns on the full order: such a
    generator is zero in every vector it reduces, so it never pivots and
    never leads, and the image rows are echelonized in the same
    sequence.

    The movers of a slab bound are the generators of this list that
    meet another of them there, and they form contiguous runs of its
    order on the slab before.  If a and b meet at the bound x and c sits
    between them on that slab, it stays between them up to x, where a
    and b take one value; c takes it too, so it meets a or b there (a
    crossing, a touch or a tie's end) and is a mover.  Two generators
    that do not meet at x keep their order across it, as no other
    parameter between the two slabs' midpoints is a meeting of two of
    them; so _resort_runs carries the order across a bound.
    """
    held = set(rep).union(*d.entries)
    return [g for g in gens if g in held], held


def _window_rep(h, fc, sides, inside, where):
    """(gens, rep, d): the in-window generators of fc's interval
    (_interval_gens), h restricted to them, and the windowed
    differential.

    Zero entries and entries below the floor are dropped (the floor is
    quotiented away); an entry not alive or above the ceiling, or a
    restriction that is not a cycle, raises NotACycle.
    """
    ring = fc.gamma.ring
    gens = _interval_gens(inside, fc)
    held = set(gens)
    rep = {}
    for g, v in h.items():
        v = ring.coerce(v)
        if v == ring.zero:
            continue
        if g in held:
            rep[g] = v
        elif g not in fc.gamma._row_set:
            raise NotACycle("representative touches %r, not alive %s" % (g, where))
        elif sides[g] == ABOVE:
            raise NotACycle(
                "representative touches %r above the window ceiling" % g)
    d = _window_complex(fc.gamma, gens)
    if vec_apply(ring, rep, d):
        raise NotACycle("representative is not a cycle in the window %s" % where)
    return gens, rep, d


# ---------------------------------------------------------------------------
# ladders of nested windows

class LadderLeg(NamedTuple):
    proj_rank: int
    incl_rank: int
    proj_iso: bool
    incl_iso: bool


class StabilizationReport(NamedTuple):
    results: tuple           # HomologyResult per window
    legs: tuple              # LadderLeg between consecutive windows
    stabilized: object       # HomologyResult or None
    message: str

    def __str__(self):
        lines = ["step %d: %s" % (i, res) for i, res in enumerate(self.results)]
        lines.append(self.message)
        return "\n".join(lines)


def _pointwise_leq(f, g):
    """f(r) <= g(r) for all r, exactly (both piecewise-linear on [0,1])."""
    return all(d <= 0 for d in _walk(f, g, 0, 1)[1])


def _induced_rank(d_from, d_to, h_to):
    """Rank of the map f induced on homology by a coordinate chain map
    from the complex of d_from to that of d_to (a source generator that
    is a target generator maps to itself, the others to zero: the
    ladder's projections and inclusions); h_to is the target's homology.

    One echelon (algebra._echelon) of the rows (x . d_from | f(x)) for
    the source generators x, then (0 | y . d_to) for the target ones y,
    the source block of positions first.  They span the elements
    (u . d_from | f(u) + v . d_to); those zero on the source block, u a
    cycle, form f(Z) + B, Z the source's cycles and B the target's
    boundaries.  An element of the span leads at the least pivot among
    the echelon rows it uses (each row is zero before its pivot, and the
    pivots differ; over the integers the rows are a basis of the row
    lattice), so it is zero on the source block exactly when it uses only
    rows pivoting past it: those rows, independent, count the rank of
    f(Z) + B.  Less the rank of B, (n - free rank) / 2 on the target's n
    generators, that is the rank of f's image (f(Z) + B) / B.  Over the
    integers each rank is that over Q, the integer cycles spanning the
    rational ones: the rank on the free part.
    """
    ring, n = d_to.ring, len(d_from.rows)
    entries = {((0, x), (0, c)): v for (x, c), v in d_from.entries.items()}
    entries.update((((0, x), (1, x)), ring.one)
                   for x in d_from.rows if x in d_to._row_set)
    entries.update((((1, y), (1, c)), v) for (y, c), v in d_to.entries.items())
    order = [(0, g) for g in d_from.rows] + [(1, g) for g in d_to.rows]
    pivots, _ = _echelon(ring, entries, order)
    return (sum(p >= n for p in pivots)
            - (len(d_to.rows) - h_to.free_rank) // 2)


def full_homology(t, log, r, ladder):
    """Homology along a nested ladder of windows, with stabilization.

    The ladder must be nested: floors nonincreasing, ceilings
    nondecreasing.  Consecutive windows are compared through the
    intermediate window (new floor, old ceiling); its projection and
    inclusion legs induce the comparison on homology.  Stabilized means
    three consecutive results agree and the legs between them are
    isomorphisms on the free part (torsion compared for equality).

    The legs are chain maps because every count lowers action (gamma1):
    the generators below a floor then form a subcomplex, the projection
    is the quotient by it, and the inclusion is that of a subcomplex.
    evolve checks gamma1 on every interval of the log.  Each window's and
    each intermediate window's complex is restricted once, and each leg's
    rank is one echelon of the rows of both its complexes (_induced_rank),
    with no cycle basis.
    """
    ladder = list(ladder)
    if not ladder:
        raise NonNestedLadder("empty ladder")
    sides, insides, _ = zip(*(_window(w, t) for w in ladder))
    for w1, w2 in zip(ladder, ladder[1:]):
        if not (_pointwise_leq(w2.a, w1.a) and _pointwise_leq(w1.b, w2.b)):
            raise NonNestedLadder(
                "ladder windows must nest: floors nonincreasing, ceilings "
                "nondecreasing")
    fc = log.counter_at(r)
    gen_sets = [_interval_gens(inside, fc) for inside in insides]
    ds = [_window_complex(fc.gamma, gens) for gens in gen_sets]
    results = [homology(d) for d in ds]

    legs = []
    for i in range(len(ladder) - 1):
        # the intermediate window (new floor, old ceiling) holds the arcs
        # inside the wider window and not above the narrower one
        gens_mid = [g for g in gen_sets[i + 1] if sides[i][g] != ABOVE]
        d_mid = _window_complex(fc.gamma, gens_mid)
        h_mid = homology(d_mid)
        pr, ir = (_induced_rank(d_mid, ds[j], results[j]) for j in (i, i + 1))
        legs.append(LadderLeg(
            pr, ir,
            pr == h_mid.free_rank == results[i].free_rank
            and h_mid.torsion == results[i].torsion,
            ir == h_mid.free_rank == results[i + 1].free_rank
            and h_mid.torsion == results[i + 1].torsion))

    stabilized = None
    for i in range(len(results) - 2):
        trio = results[i:i + 3]
        if trio[0] == trio[1] == trio[2]:
            span = legs[i:i + 2]
            if all(l.proj_iso and l.incl_iso for l in span):
                stabilized = trio[0]
                break
    if stabilized is not None:
        message = "stabilized: %s" % (stabilized,)
    else:
        message = "not stabilized at this ladder depth"
    return StabilizationReport(tuple(results), tuple(legs), stabilized, message)


# ---------------------------------------------------------------------------
# tracking a class along the family

class TraceSegment(NamedTuple):
    interval_index: int
    r_lo: Fraction
    r_hi: Fraction
    support: tuple
    top: object
    rho_lo: object
    rho_hi: object
    certified: bool


class TrackedClass(NamedTuple):
    """An interval the tracked class reached, and its representative there."""

    interval_index: int
    representative: tuple    # ((generator, value), ...) sorted by generator


class SpectralTrace(NamedTuple):
    """The slabs, transfers and classes of one tracked class.

    outcome is "Survived" or "LeftWindow(below)": no class leaves above
    the ceiling (track_class gives the proof).  track_class raises
    InvalidWindow for an unusable window instead.  An interval's values
    are those of its segments; classes holds only its representative.
    """

    segments: tuple
    transfers: tuple         # (r, generator before, generator after)
    outcome: str
    classes: tuple           # TrackedClass per interval reached

    @property
    def survived(self):
        return self.outcome == "Survived"

    def final_value(self):
        return self.segments[-1].rho_hi if self.segments else NEG_INF

    def table(self):
        """Tabular text form: one line per slab plus transfer markers."""
        lines = ["r_lo\tr_hi\trho_lo\trho_hi\ttop\tsupport"]
        marks = {r: (a, b) for r, a, b in self.transfers}
        for s in self.segments:
            if s.r_lo in marks:
                a, b = marks[s.r_lo]
                lines.append("# transfer at r=%s: %s -> %s" % (s.r_lo, a, b))
            lines.append("\t".join((
                str(s.r_lo), str(s.r_hi), str(s.rho_lo), str(s.rho_hi),
                "-" if s.top is None else str(s.top),
                "+".join(map(str, s.support)) or "-")))
        lines.append("# outcome: %s" % self.outcome)
        return "\n".join(lines)


def _resort_runs(order, movers, key):
    """order with each contiguous run of movers re-sorted by key."""
    out = []
    for moving, run in itertools.groupby(order, key=movers.__contains__):
        out.extend(sorted(run, key=key) if moving else run)
    return out


def track_class(h0, log, w):
    """Follow the class of h0 from r=0 through every event of the log.

    The trace records, slab by slab, the minimizing representative's
    support and its top generator; a transfer is a parameter where that
    top generator changes.  The spectral value is verified continuous
    across handle-slides.  An unusable window raises InvalidWindow.  A
    class that is zero in the window has no top: it reads -inf on every
    slab, and its outcome is Survived while the representative stays in
    the window.

    A class that is nonzero in the window stays nonzero while it stays
    in it, so a slab without a top after one with a top raises
    VerificationFailed.  On an interval the coset is fixed.  Across an
    event, a born or dying pair meets at its vertex, so the window's
    clearance keeps both its arcs on one side of the window, and the
    event's maps cut to the window relate the two windowed complexes.
    The section maps a boundary to a boundary, and the section after the
    transport is homotopic to the identity (is the identity, at a
    slide), so a class whose transport is a boundary was one already.

    The push across an event is the forward image restricted to the next
    interval's in-window generators, and every entry it drops lies below
    the floor: a class leaves the window only below.  The forward map
    sends a generator g to itself and to generators strictly below it at
    the event.  A slide's is I + N, whose entries are products of jump
    entries, each pointing down the action order (apply_handle_slide
    checks them).  A birth's adds the upper branch to g only along g's
    entry in the new column, and apply_birth checks that g lies above
    the lower branch; both branches start at the vertex, so they share
    the lower one's side, which is not above g's.  A death's projects.
    So each image entry of an in-window g lies below the ceiling at the
    event, and a window keeps each arc on one side for its whole life.

    A slab bound is a parameter strictly inside an interval where two
    of the coset's generators (_coset_gens) meet: they cross, touch, or
    start or end a tie.  Tops, values and supports are those of a finer
    sweep that cuts at every meeting of two in-window arcs.  A generator
    outside the coset is zero in every element of the coset, so the
    minimizing support reads only the order of the coset's generators,
    and that order is constant on a slab: each piece of a finer cut has
    the slab's support and top, and the top's values at its ends.

    Each interval is swept once.  The window's sides and in-window ids
    and the crossings of its in-window pairs sorted by parameter come
    from the window's entry, which the first trace in the window fills;
    the in-window arcs' profiles are looked up once per call, so no slab
    reads an arc by id.  Each interval reached derives its window once,
    its in-window generators (_interval_gens) and windowed complex:
    interval 0 in _window_rep, each later one at the push into it.  One
    pointer advances through the sorted crossings across the intervals;
    a crossing strictly inside an interval whose two arcs are both
    coset generators there cuts it.  The crossings at one parameter
    make one slab bound, and the arcs of their pairs are the bound's
    movers.  The first read of a step's maps builds them.

    The sweep minimizes on every slab of an interval whose windowed
    differential has entries.  With none, im(d) = 0 and the coset is
    rep alone; _window_rep and vec_apply keep only nonzero
    coefficients, so _coset_gens holds exactly rep's generators, and
    the support is the sorted order itself.  Only an interval's first
    slab is sorted by action: at each later bound the movers form
    contiguous runs of the previous order (_coset_gens), and only those
    runs are re-sorted.
    """
    t = log.family
    sides, inside, _ = _window(w, t)
    cuts = _window_cuts(w, t)
    prof = {g: t.arc(g).f3 for g in inside}
    ring = log.ring
    gens, rep, d = _window_rep(h0, log.intervals[0], sides, inside,
                               "at the start")

    segments = []
    transfers = []
    classes = []
    prev_top = None          # the last slab's top, None before any top
    outcome = "Survived"
    p = 0                    # the first crossing not yet passed

    for fc in log.intervals:
        classes.append(TrackedClass(fc.interval_index, tuple(
            sorted(rep.items(), key=lambda kv: str(kv[0])))))
        if not rep:
            outcome = "LeftWindow(below)"
            break

        after_slide = fc.interval_index and isinstance(
            log.steps[fc.interval_index - 1].record.payload, HandleSlide)
        ln, ld = fc.r_lo.as_integer_ratio()
        hn, hd = fc.r_hi.as_integer_ratio()
        while p < len(cuts) and cuts[p][1] * ld <= ln * cuts[p][2]:
            p += 1
        coset, in_coset = _coset_gens(gens, rep, d)
        # slab bounds as (x, numerator, denominator), and the movers of
        # each bound after the first
        bounds, movers = [(fc.r_lo, ln, ld)], [None]
        while p < len(cuts) and cuts[p][1] * hd < hn * cuts[p][2]:
            x, n, e, g1, g2 = cuts[p]
            p += 1
            if g1 in in_coset and g2 in in_coset:
                if n * bounds[-1][2] != bounds[-1][1] * e:
                    bounds.append((x, n, e))
                    movers.append({g1, g2})
                else:
                    movers[-1].update((g1, g2))
        bounds.append((fc.r_hi, hn, hd))
        for i in range(len(bounds) - 1):
            lo, a, b = bounds[i]
            hi, c, e = bounds[i + 1]
            key = _order_key(prof, a * e + c * b, 2 * b * e)  # the midpoint
            order = (_resort_runs(order, movers[i], key) if i
                     else sorted(coset, key=key))
            support = (_coset_minimize(ring, d, rep, order) if d.entries
                       else tuple(order))
            top = support[0] if support else None
            if top is None:
                if prev_top is not None:
                    raise VerificationFailed(
                        "the class turned zero in the window at r=%s" % lo)
                segments.append(TraceSegment(fc.interval_index, lo, hi,
                                             support, None, NEG_INF, NEG_INF,
                                             True))
                continue
            pts = prof[top].ints
            # a top carried over a bound starts where the last slab ended
            rho_lo = (segments[-1].rho_hi if i and top == prev_top
                      else Fraction(*_ratio_at(pts, a, b)))
            seg = TraceSegment(fc.interval_index, lo, hi, support, top,
                               rho_lo, Fraction(*_ratio_at(pts, c, e)), True)
            # continuity across a slide: the first slab after it starts at
            # the value the last slab before it ended on
            if (after_slide and i == 0 and segments[-1].top is not None
                    and segments[-1].rho_hi != seg.rho_lo):
                raise VerificationFailed(
                    "spectral value jumped across the slide at r=%s" % lo)
            if prev_top is not None and prev_top != top:
                transfers.append((lo, prev_top, top))
            segments.append(seg)
            prev_top = top

        if fc.interval_index == len(log.steps):
            continue
        nxt = log.intervals[fc.interval_index + 1]
        gens = _interval_gens(inside, nxt)
        held = set(gens)
        rep = {g: v for g, v in vec_apply(
            ring, rep, log.steps[fc.interval_index].maps.forward).items()
            if g in held}
        d = _window_complex(nxt.gamma, gens)

    return SpectralTrace(tuple(segments), tuple(transfers), outcome,
                         tuple(classes))
