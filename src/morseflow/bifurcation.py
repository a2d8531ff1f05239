"""Event engine: how the flow-line count matrix changes along the family.

Between events the matrix is constant.  Three kinds of event transform it:

* handle-slide: conjugation by a unipotent matrix I + D built from the
  declared jump entries; D is strictly triangular in the action order, so
  the inverse is I + N with N = -D + D^2 - ..., a finite series.  The
  new matrix is A + A N with A = G + D G, and neither I + D nor I + N
  is formed for it: only the maps recipe builds them.
* birth: the generator set grows by the vertex's two branches; the new
  column against the lower branch is event data, constrained so that the
  square of the new matrix is still zero.
* death: the generator set shrinks by the vertex's two branches after a
  Gaussian cancellation against the unit pivot joining them.

Square-zero is checked on the first interval only: every event keeps
it.  A slide conjugates the matrix.  A birth adds the lower branch's
column w and the pivot, and nothing flows into the upper branch or out
of the lower one, so gp^2 is gm^2 on the old block and gm w (zero by
the cycle condition) on the new column.  A death's constraints make
gp^2 the restriction of gm^2 to the survivors.  By induction the
matrix squares to zero on every interval when it does on the first.

Each event is computed once, by one function per kind, which returns
the new matrix together with a recipe for the comparison maps relating
the complexes on either side.  Only class tracking reads those maps, so
the evolution log stores the recipe and each step builds its maps when
they are first read and keeps them: validation, evolution and homology
never build a map.

The maps need no check of their own.  Every log evolve returns passed
_interval_findings on every interval before the event closing it, so
it squares to zero on every interval (above), and every event in it met
its constraints.  A map A from the complex of G to that of G' is a
chain map when G A = A G' (row convention), and every bundle passes:

* a slide's, on any matrix: G' = (I+D) G (I+N) with I + N the inverse
  of I + D, so G (I+N) = (I+N) G' and G' (I+D) = (I+D) G.
* a birth's inclusion, by the cycle condition: it sends an old
  generator c to c - w(c) e^-1 times the upper branch, w the new column
  and e the pivot, and the old matrix kills w.  The projection, its
  retraction of the inclusion and the homotopy, e^-1 from the lower
  branch to the upper one, need only the pivot and that nothing flows
  into the upper branch or out of the lower one.
* a death's inclusion, by square-zero: the maps are a birth's with the
  sides swapped, the inclusion corrects along the lower branch's
  column, and the before matrix's product into the lower branch runs
  over the survivors only.  The rest is as at a birth.

evolve and validate_axioms read one run, _evolve's.  It checks each
interval's structure before the event closing it, records the
interval's _interval_findings and goes on past them, and stops at the
first MorseflowError, keeping what it built.  validate_axioms reports
the run; evolve raises the first thing it met: the findings of the
earliest interval with any, recorded before that interval's event
applied, or else the error it stopped at.  The last run is kept, in
one slot, _last_run, with the gamma0, event records and family it
read, whatever its outcome; either reader given those same objects (by
is, not by ==, which would compare every field of every record) reads
it.  The slot holds strong references, so no other object can take
over an id while it is there.
"""

import copy
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .cerf import Finding, ValidationReport
from .errors import (ActionConstraintViolated, AxiomViolation,
                     ConstraintViolated, CycleConditionViolated,
                     DeathPivotNotUnit, DegenerateParameter, EvolutionError,
                     MorseflowError, NonTriangularDelta, NonUnitPivot)
from .matrix import SparseMatrix, vec_apply
from .piecewise import _apart, _range, _side, _walk, frac
from .values import Value


# ---------------------------------------------------------------------------
# event payloads

class HandleSlide(Value):
    _fields = ("delta",)

    def __init__(self, delta):
        # ((upper arc, lower arc, value), ...)
        object.__setattr__(self, "delta", tuple(tuple(d) for d in delta))


class Birth(Value):
    _fields = ("vertex", "pivot", "new_column")

    def __init__(self, vertex, pivot, new_column=()):
        object.__setattr__(self, "vertex", vertex)
        object.__setattr__(self, "pivot", pivot)    # unit of the coefficient ring
        # ((old arc, value), ...): column of the lower branch
        object.__setattr__(self, "new_column",
                           tuple(tuple(e) for e in new_column))


class Death(Value):
    _fields = ("vertex",)

    def __init__(self, vertex):
        object.__setattr__(self, "vertex", vertex)


class EventRecord(Value):
    _fields = ("r", "payload")

    def __init__(self, r, payload):
        object.__setattr__(self, "r", frac(r))
        object.__setattr__(self, "payload", payload)

    @property
    def kind(self):
        return type(self.payload).__name__.lower()


class FlowCounter(Value):
    """Constant count matrix on one open interval between events."""

    _fields = ("interval_index", "r_lo", "r_hi", "gamma")

    def __init__(self, interval_index, r_lo, r_hi, gamma):
        object.__setattr__(self, "interval_index", interval_index)
        object.__setattr__(self, "r_lo", frac(r_lo))
        object.__setattr__(self, "r_hi", frac(r_hi))
        object.__setattr__(self, "gamma", gamma)    # a SparseMatrix

    @property
    def generators(self):
        return sorted(self.gamma.rows, key=str)

    def holds(self, r):
        """r lies in the interval: strictly inside it, or at 0 or 1 when
        the interval reaches that end of the family."""
        return (self.r_lo < r < self.r_hi or r == self.r_lo == 0
                or r == self.r_hi == 1)

    def midpoint(self):
        """(r_lo + r_hi) / 2, computed on the first call and kept."""
        return self._midpoint

    @cached_property
    def _midpoint(self):
        return (self.r_lo + self.r_hi) / 2


class ChainMapBundle(NamedTuple):
    """Maps relating the complexes on either side of an event.

    forward transports representatives left-to-right in the parameter
    (rows: before-generators, cols: after-generators); backward is the
    section going the other way.  For a slide both are inverse
    isomorphisms and homotopy is None; for a birth or death the homotopy
    certifies that backward-then-forward is homotopic to the identity on
    the larger side.
    """

    kind: str
    forward: SparseMatrix
    backward: SparseMatrix
    homotopy: object = None


class EventStep(Value):
    """One event of a log: the counters on either side, and its maps.

    build_maps is the event update's recipe for the comparison maps.  It
    runs the first time maps is read, and every later read returns that
    same bundle.  It is not in _fields, so ==, hash and repr skip it;
    _replace passes it on.
    """

    _fields = ("record", "before", "after")

    def __init__(self, record, before, after, build_maps):
        object.__setattr__(self, "record", record)  # an EventRecord
        # the FlowCounters: the left and the right approximation at the
        # event parameter
        object.__setattr__(self, "before", before)
        object.__setattr__(self, "after", after)
        object.__setattr__(self, "build_maps", build_maps)

    def _replace(self, **changes):
        changes.setdefault("build_maps", self.build_maps)
        return super()._replace(**changes)

    @cached_property
    def maps(self):
        """The ChainMapBundle of the event (module docstring: it relates
        the two complexes)."""
        return self.build_maps()


class EvolutionLog(NamedTuple):
    family: object               # the CerfTuple the log was computed over
    intervals: tuple
    steps: tuple

    @property
    def ring(self):
        return self.intervals[0].gamma.ring

    def counter_at(self, r):
        """FlowCounter of the interval that holds r (FlowCounter.holds);
        an event parameter, or r outside [0, 1], raises
        DegenerateParameter."""
        r = frac(r)
        for fc in self.intervals:
            if fc.holds(r):
                return fc
        raise DegenerateParameter("r=%s is an event parameter" % r
                                  if 0 < r < 1 else
                                  "r=%s lies outside [0, 1]" % r)

    def step_at(self, r):
        r = frac(r)
        for st in self.steps:
            if st.record.r == r:
                return st
        raise EvolutionError("no event at r=%s" % r)


# ---------------------------------------------------------------------------
# single-event updates: each returns (new matrix, recipe), where the recipe
# builds the event's ChainMapBundle when called

def _nilpotent_series(delta):
    """N = -D + D^2 - ..., the nilpotent part of (I + D)^-1 = I + N.

    Each entry of D points strictly down the action order at the event
    (apply_handle_slide checks it), so an entry of D^k joins the ends of
    a chain of k strict descents, and D^k vanishes before k reaches the
    generator count.  The powers are formed until one vanishes.
    """
    minus_delta = delta.neg()
    series = term = minus_delta
    while True:
        term = term.mul(minus_delta)
        if term.is_zero():
            return series
        series = series.add(term)


def apply_handle_slide(gamma_minus, ev, t):
    """Conjugate the count matrix by I + D at a handle-slide.

    The closed form (I+D) G (I+D)^-1 is the unique solution of the
    implicit two-sided update.  With A = G + D G and (I+D)^-1 = I + N,
    where N = -D + D^2 - ... (_nilpotent_series), it is A + A N: the
    series' powers and two products, none with an identity factor.  The
    maps, I + N forward and the section I + D backward, are built only
    by the recipe, when class tracking first reads them.  Both arcs of
    each jump entry must be alive at the event parameter in the family
    t, and the entry is checked against the action order there, by the
    sign of the kernel's gap.
    """
    payload = ev.payload
    gm = gamma_minus.gamma
    ring = gm.ring
    ids = gm.rows
    entries = {}

    def dead(c1, c2):
        return EvolutionError(
            "jump entry (%s, %s) references an arc not alive at r=%s" %
            (c1, c2, ev.r))

    for c1, c2, val in payload.delta:
        if c1 not in ids or c2 not in ids:
            raise dead(c1, c2)
        if c1 == c2:
            raise NonTriangularDelta("jump entry on the diagonal: (%s, %s)" % (c1, c2))
        v = ring.coerce(val)
        if v != ring.zero:
            entries[(c1, c2)] = v
    for (c1, c2) in entries:
        f1, f2 = t.arc(c1).f3, t.arc(c2).f3
        if not (f1.contains(ev.r) and f2.contains(ev.r)):
            raise dead(c1, c2)
        if not _walk(f1, f2, ev.r, ev.r)[1][0] > 0:
            raise NonTriangularDelta(
                "jump entry (%s, %s) violates the action order at r=%s: "
                "%s <= %s" % (c1, c2, ev.r, f1.value(ev.r), f2.value(ev.r)))
    delta = SparseMatrix(ring, ids, ids, entries)
    series = _nilpotent_series(delta)
    a = gm.add(delta.mul(gm))
    gp = a.add(a.mul(series))

    def build():
        ident = SparseMatrix.identity(ring, ids)
        return ChainMapBundle("slide", ident.add(series), ident.add(delta))
    return gp, build


def _pair_maps(d_small, d_big, plus, minus):
    """Inclusion, projection and homotopy across a cancelling pair.

    d_big carries the pair joined by the unit pivot (plus, minus); d_small
    is the complex without it.
    """
    ring = d_big.ring
    small_ids = sorted(d_small.rows, key=str)
    big_ids = sorted(d_big.rows, key=str)
    e_inv = ring.invert(d_big.entry(plus, minus))

    # small -> big: send each generator past the pair, correcting along
    # its count against the lower branch
    incl = {(c, c): ring.one for c in small_ids}
    for c in small_ids:
        x = d_big.entry(c, minus)
        if x != ring.zero:
            incl[(c, plus)] = -x * e_inv     # coerced by the constructor
    incl = SparseMatrix(ring, small_ids, big_ids, incl)

    # big -> small: the coordinate projection killing the pair.  The
    # lower branch would map to -e_inv times the upper branch's flows to
    # the survivors, and those vanish: a birth puts nothing in the upper
    # branch's row besides its partner, and a death is refused otherwise.
    proj = SparseMatrix(ring, big_ids, small_ids,
                        {(c, c): ring.one for c in small_ids})

    homot = SparseMatrix(ring, big_ids, big_ids, {(minus, plus): e_inv})
    return incl, proj, homot


def apply_birth(gamma_minus, ev, t):
    """Extend the count matrix across a birth vertex.

    The old block is unchanged; the new column against the lower branch
    is the event's data, subject to the cycle condition (the old matrix
    kills it) and the action order just after the vertex; the pivot
    joining the branches must be a unit.  The inclusion of the old
    complex is the forward map.
    """
    payload = ev.payload
    gm = gamma_minus.gamma
    ring = gm.ring
    v = t.vertex(payload.vertex)
    if v.kind != "birth":
        raise EvolutionError("vertex %r is a %s, not a birth" % (v.id, v.kind))
    plus, minus = v.plus_arc, v.minus_arc
    old = sorted(gm.rows, key=str)
    if plus in gm.rows or minus in gm.rows:
        raise EvolutionError("branches of %r already alive before r=%s" % (v.id, ev.r))

    pivot = ring.coerce(payload.pivot)
    if not ring.is_unit(pivot):
        raise NonUnitPivot("birth pivot %r is not a unit" % (payload.pivot,))

    w = {}
    for aid, val in payload.new_column:
        if aid not in gm.rows:
            raise EvolutionError(
                "new column references %r, not alive before r=%s" % (aid, ev.r))
        x = ring.coerce(val)
        if x != ring.zero:
            w[aid] = x

    # cycle condition: the old matrix applied to the column vanishes; the
    # first row that does not, in str order, is named
    image = vec_apply(ring, w, gm.transpose())
    if image:
        c = next(c for c in old if c in image)
        raise CycleConditionViolated(
            "old matrix does not kill the new column: row %r gives %r" %
            (c, image[c]))

    # action order just after r (_side; None: not both alive there)
    f_minus = t.arc(minus).f3
    for aid in sorted(w, key=str):
        if _side(t.arc(aid).f3, f_minus, ev.r) != 1:
            raise ActionConstraintViolated(
                "new column entry at %r sits at or below the lower branch "
                "just after r=%s" % (aid, ev.r))

    ids = old + [plus, minus]
    entries = dict(gm.entries)
    for aid, x in w.items():
        entries[(aid, minus)] = x
    entries[(plus, minus)] = pivot
    gp = SparseMatrix(ring, ids, ids, entries)
    return gp, lambda: ChainMapBundle("birth", *_pair_maps(gm, gp, plus, minus))


def apply_death(gamma_minus, ev, t):
    """Cancel a dying pair of branches out of the count matrix.

    Requires the pivot joining the branches to be a unit and the other
    entries touching the pair to vanish.  The survivors then keep their
    entries: the Gaussian correction gm(c1, minus) inv gm(plus, c2) is
    zero, because the upper branch flows to nothing but its partner.
    The projection onto the survivors is the forward map.
    """
    payload = ev.payload
    gm = gamma_minus.gamma
    ring = gm.ring
    v = t.vertex(payload.vertex)
    if v.kind != "death":
        raise EvolutionError("vertex %r is a %s, not a death" % (v.id, v.kind))
    plus, minus = v.plus_arc, v.minus_arc
    if plus not in gm.rows or minus not in gm.rows:
        raise EvolutionError("branches of %r not alive before r=%s" % (v.id, ev.r))

    pivot = gm.entry(plus, minus)
    if not ring.is_unit(pivot):
        raise DeathPivotNotUnit(
            "count between the dying branches of %r is %r, not a unit" %
            (v.id, pivot))
    for c in gm.rows:
        if gm.entry(c, plus) != ring.zero:
            raise ConstraintViolated(
                "upper branch of %r still receives from %r" % (v.id, c))
        if c != plus and gm.entry(minus, c) != ring.zero:
            raise ConstraintViolated(
                "lower branch of %r still flows to %r" % (v.id, c))
        if c not in (minus,) and gm.entry(plus, c) != ring.zero:
            raise ConstraintViolated(
                "upper branch of %r flows to %r besides its partner" % (v.id, c))

    gp = gm.restrict(sorted((c for c in gm.rows if c not in (plus, minus)),
                            key=str))

    def build():
        incl, proj, homot = _pair_maps(gp, gm, plus, minus)
        return ChainMapBundle("death", proj, incl, homot)
    return gp, build


# ---------------------------------------------------------------------------
# interval-level axiom checks

def _triangularity_violations(gamma, t, r_lo, r_hi):
    """Entries whose action gap fails to stay positive on the open interval.

    Piecewise-linear profiles make this exact: positivity on the open
    interval means nonnegative gaps at every knot, strict at interior
    knots, and not identically zero.  The gaps' signs are the kernel's
    integer numerators.

    A range decides first: a piecewise-linear profile takes its least
    and greatest values at its knots, so an entry whose upper arc's
    range lies strictly above its lower arc's has a positive gap
    wherever both live, and needs no walk; otherwise the walk decides.
    Every entry's arcs live on all of [r_lo, r_hi]: _evolve's structure
    check refuses any other entry before it runs this.  Each
    arc's range is taken once per call.
    """
    ranges = {}

    def arc_range(c):
        if c not in ranges:
            ranges[c] = _range(t.arc(c).f3)
        return ranges[c]

    bad = []
    for (c1, c2), _ in gamma.items():
        if _apart(arc_range(c1), arc_range(c2)) > 0:
            continue
        f = t.arc(c1).f3
        g = t.arc(c2).f3
        diffs = _walk(f, g, r_lo, r_hi)[1]
        ok = (all(d >= 0 for d in diffs)
              and all(d > 0 for d in diffs[1:-1])
              and any(d > 0 for d in diffs))
        if not ok:
            bad.append((c1, c2))
    return bad


def _interval_findings(fc, t):
    """(axiom, message) of each standing axiom the counter violates: the
    action order of each entry (gamma1), and square-zero (gamma2) on the
    first interval only, since the events keep it."""
    out = [("gamma1", "entry (%s, %s) violates the action order on (%s, %s)"
            % (c1, c2, fc.r_lo, fc.r_hi))
           for c1, c2 in _triangularity_violations(fc.gamma, t, fc.r_lo,
                                                   fc.r_hi)]
    if fc.interval_index == 0 and not fc.gamma.mul(fc.gamma).is_zero():
        out.append(("gamma2", "square-zero fails on (%s, %s)"
                    % (fc.r_lo, fc.r_hi)))
    return out


def _alive_ids(lives, fc):
    """The set of ids of the arcs alive at the midpoint of fc's interval,
    as CerfTuple.arcs_alive finds them, and the set of those among them
    whose life does not cover the closed interval, by integer cross
    products.  lives holds each arc's id and the integer ends of its
    life, (id, lo_num, lo_den, hi_num, hi_den)."""
    a, b = fc.r_lo.as_integer_ratio()
    c, d = fc.r_hi.as_integer_ratio()
    mn, md = a * d + c * b, 2 * b * d
    alive, short = set(), set()
    for aid, ln, ld, hn, hd in lives:
        if ln * md <= mn * ld and mn * hd <= hn * md:
            alive.add(aid)
            if not (ln * b <= a * ld and c * hd <= hn * d):
                short.add(aid)
    return alive, short


_last_run = None


def _run(gamma0, events, t):
    """The run of these objects (by is) kept in _last_run, which holds
    (gamma0, event records, family, run), or else a new one, kept there."""
    global _last_run
    events = tuple(events)
    if _last_run is not None:
        g, evs, ft, run = _last_run
        if g is gamma0 and ft is t and [*map(id, evs)] == [*map(id, events)]:
            return run
    run = _evolve(gamma0, events, t)
    _last_run = gamma0, events, t, run
    return run


def evolve(gamma0, events, t):
    """Push the initial counter through every event in parameter order.

    gamma0 is the counter on the first interval.  Every vertex of the
    family must be matched by exactly one birth or death record; event
    parameters must be pairwise distinct and interior to (0, 1).  Each
    interval is checked before the event closing it is applied, and the
    last one at the end: its rows must be the arcs alive on it, each arc
    an entry names must live on all of it, and it must satisfy the
    standing axioms (_interval_findings).  So each step of the log
    builds, when read, maps that relate its two complexes (module
    docstring).

    It reads the run validate_axioms reads (module docstring) and raises
    the earliest interval's findings, joined by "; ", as an
    EvolutionError, or else a copy of the error the run stopped at, so
    that the kept error's traceback does not grow.
    """
    log, findings, stop = _run(gamma0, events, t)
    bad = next((f for f in findings if f), None)
    if bad:
        raise EvolutionError("; ".join(msg for _, msg in bad))
    if stop is not None:
        raise copy.copy(stop).with_traceback(stop.__traceback__)
    return log


def _evolve(gamma0, events, t):
    """The run evolve and validate_axioms read: (log, findings, stop), the
    log built, the _interval_findings of each interval that passed its
    structure check, and the MorseflowError that ended the run, or None."""
    intervals, steps, findings = [], [], []
    lives = [(a.id,) + a.f3.ints[0][:2] + a.f3.ints[-1][:2] for a in t.arcs]

    def check(fc):
        """Raise EvolutionError when fc's rows are not the arcs alive on
        its interval, or an entry names an arc alive on only part of it,
        where the action-order test could not read it; otherwise record
        fc's _interval_findings."""
        alive, short = _alive_ids(lives, fc)
        name = ("counter on interval %d" % fc.interval_index
                if fc.interval_index < len(evs) else "final counter")
        if set(fc.gamma.rows) != alive:
            raise EvolutionError(
                "%s indexes %s but the alive arcs are %s" %
                (name, sorted(fc.gamma.rows, key=str), sorted(alive)))
        cut = sorted(c for c in short
                     if any(c in pair for pair in fc.gamma.entries))
        if cut:
            raise EvolutionError(
                "%s has entries on %s, alive on only part of [%s, %s]" %
                (name, cut, fc.r_lo, fc.r_hi))
        findings.append(_interval_findings(fc, t))

    try:
        evs = sorted(events, key=lambda e: e.r)
        params = [e.r for e in evs]
        if len(set(params)) != len(params):
            raise EvolutionError("event parameters must be pairwise distinct")
        if params and (params[0] <= 0 or params[-1] >= 1):
            raise EvolutionError(
                "event parameters must lie strictly inside (0, 1)")

        by_vertex = {}
        for e in evs:
            if isinstance(e.payload, (Birth, Death)):
                if e.payload.vertex in by_vertex:
                    raise EvolutionError(
                        "vertex %r has two event records" % e.payload.vertex)
                by_vertex[e.payload.vertex] = e
        for v in t.vertices:
            e = by_vertex.pop(v.id, None)
            if e is None:
                raise EvolutionError("vertex %r has no event record" % v.id)
            want = Birth if v.kind == "birth" else Death
            if not isinstance(e.payload, want):
                raise EvolutionError(
                    "vertex %r is a %s but its event record is a %s" %
                    (v.id, v.kind, e.kind))
            if e.r != v.r:
                raise EvolutionError(
                    "vertex %r sits at r=%s but its event record says r=%s" %
                    (v.id, v.r, e.r))
        if by_vertex:
            raise EvolutionError("event records reference unknown "
                                 "vertices: %s" % sorted(by_vertex))

        boundaries = [Fraction(0)] + params + [Fraction(1)]
        current = FlowCounter(0, boundaries[0], boundaries[1], gamma0.gamma)
        intervals.append(current)
        for k, ev in enumerate(evs):
            check(current)
            if isinstance(ev.payload, HandleSlide):
                gp, build = apply_handle_slide(current, ev, t)
            elif isinstance(ev.payload, Birth):
                gp, build = apply_birth(current, ev, t)
            else:
                gp, build = apply_death(current, ev, t)
            nxt = FlowCounter(k + 1, ev.r, boundaries[k + 2], gp)
            steps.append(EventStep(ev, current, nxt, build))
            intervals.append(nxt)
            current = nxt
        check(current)
    except MorseflowError as e:
        return EvolutionLog(t, tuple(intervals), tuple(steps)), findings, e
    return EvolutionLog(t, tuple(intervals), tuple(steps)), findings, None


# ---------------------------------------------------------------------------
# total validation report

def validate_axioms(gamma0, events, t):
    """Run the full evolution, reporting every axiom violation found in
    a ValidationReport.

    Total: engine exceptions become findings, an AxiomViolation under
    its axiom code and any other engine error (a bad schedule, or an
    event value outside the ring) under "structure".  The events' own
    identities (gamma3 to gamma5) are checked once, by the updates inside
    evolve; what remains here is the per-interval action order and
    square-zero on the first interval, which the events carry to every
    later one (see the module docstring).  The run behind the report
    goes on past an interval's findings, so the report lists those of
    every interval; a report without errors means evolve accepts the
    same input, since both read one run (module docstring).  No
    comparison map is built.  Checking downstream of a failed event is
    impossible (there is no matrix to check), which the report states
    explicitly.
    """
    log, findings, stop = _run(gamma0, events, t)
    if isinstance(stop, AxiomViolation):
        return ValidationReport((
            Finding(stop.axiom, "error", str(stop)),
            Finding("structure", "info",
                    "checking stopped at the failing event")))
    if stop is not None:
        return ValidationReport((Finding("structure", "error", str(stop)),))
    out = [Finding(code, "error", msg) for bad in findings
           for code, msg in bad]
    if not out:
        out.append(Finding("summary", "info",
                           "all axioms pass on %d intervals, %d events" %
                           (len(log.intervals), len(log.steps))))
    return ValidationReport(tuple(out))
