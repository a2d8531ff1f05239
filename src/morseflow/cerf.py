"""Data model for one-parameter families of critical-point data.

A family is described by its diagram in the (parameter, action) strip
[0, 1] x R: each critical point traces an arc carrying a piecewise-linear
action profile, and arcs meet in pairs at birth and death vertices.  The
loop and chord components are implicit: no field holds them, and the
checks of validate_cerf make the arcs of an accepted family, joined at
their vertices, form loops and chords.  Everything is exact: the
parameter and the action values are rationals.

The validator is total.  It returns a report listing every violation it
finds rather than raising on the first one, so scenario authors see all
problems at once.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import (InvalidTuple, NonIsolatedCusp, VerticalTangency)
from .piecewise import _range, _side, frac
from .values import Value


# ---------------------------------------------------------------------------
# end tags

class BoundaryAt0(Value):
    def __str__(self):
        return "boundary@0"


class BoundaryAt1(Value):
    def __str__(self):
        return "boundary@1"


class BirthVertex(Value):
    _fields = ("vertex",)

    def __init__(self, vertex):
        object.__setattr__(self, "vertex", vertex)

    def __str__(self):
        return "birth(%s)" % self.vertex


class DeathVertex(Value):
    _fields = ("vertex",)

    def __init__(self, vertex):
        object.__setattr__(self, "vertex", vertex)

    def __str__(self):
        return "death(%s)" % self.vertex


# ---------------------------------------------------------------------------
# core types

class Arc(Value):
    """One critical point over a closed parameter subinterval.

    The action profile f3 determines the footprint: its first and last
    breakpoints are the interval ends.  lo_open / hi_open record a
    request for a half-open footprint; the validator rejects such arcs
    (compactness), but the data model must be able to express the
    request so the rejection can be tested.
    """

    _fields = ("id", "f3", "lo_tag", "hi_tag", "lo_open", "hi_open")

    def __init__(self, id, f3, lo_tag, hi_tag, lo_open=False, hi_open=False):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "f3", f3)          # a Piecewise
        object.__setattr__(self, "lo_tag", lo_tag)
        object.__setattr__(self, "hi_tag", hi_tag)
        object.__setattr__(self, "lo_open", lo_open)
        object.__setattr__(self, "hi_open", hi_open)

    @property
    def r_lo(self):
        return self.f3.r_lo

    @property
    def r_hi(self):
        return self.f3.r_hi

    def value(self, r):
        return self.f3.value(r)


class Vertex(Value):
    _fields = ("id", "kind", "r", "f3", "plus_arc", "minus_arc")

    def __init__(self, id, kind, r, f3, plus_arc, minus_arc):
        object.__setattr__(self, "id", id)
        object.__setattr__(self, "kind", kind)      # "birth" | "death"
        object.__setattr__(self, "r", frac(r))
        object.__setattr__(self, "f3", frac(f3))
        object.__setattr__(self, "plus_arc", plus_arc)
        object.__setattr__(self, "minus_arc", minus_arc)
        if kind not in ("birth", "death"):
            raise InvalidTuple("vertex kind must be birth or death: %r" % (kind,))


class CerfTuple(Value):
    _fields = ("arcs", "vertices")

    def __init__(self, arcs, vertices=()):
        arcs, vertices = tuple(arcs), tuple(vertices)
        object.__setattr__(self, "arcs", arcs)
        object.__setattr__(self, "vertices", vertices)
        # reversed, so the first arc or vertex with a repeated id wins
        object.__setattr__(self, "_arc_by_id",
                           {a.id: a for a in reversed(arcs)})
        object.__setattr__(self, "_vertex_by_id",
                           {v.id: v for v in reversed(vertices)})

    def arc(self, arc_id):
        """The first arc with this id."""
        return self._arc_by_id[arc_id]

    def vertex(self, vertex_id):
        """The first vertex with this id."""
        return self._vertex_by_id[vertex_id]

    def arcs_alive(self, r):
        """Arcs whose footprint contains r, in declaration order."""
        return [a for a in self.arcs if a.f3.contains(r)]

    def f3_range(self):
        """(least, greatest) action over every arc, (None, None) with no
        arcs.  Linear pieces reach their extremes at their breakpoints,
        so each arc's knot-value range (piecewise._range) decides; the
        ranges fold by integer cross products."""
        if not self.arcs:
            return None, None
        lo, hi = _range(self.arcs[0].f3)
        for a in self.arcs[1:]:
            (n, d), (m, e) = _range(a.f3)
            if n * lo[1] < lo[0] * d:
                lo = n, d
            if m * hi[1] > hi[0] * e:
                hi = m, e
        return Fraction(*lo), Fraction(*hi)


# ---------------------------------------------------------------------------
# validation

class Finding(NamedTuple):
    code: str
    severity: str        # "error" | "info"
    message: str

    def __str__(self):
        return "[%s] %s: %s" % (self.severity, self.code, self.message)


class ValidationReport(NamedTuple):
    findings: tuple

    @property
    def ok(self):
        return not self.errors()

    def errors(self):
        return [f for f in self.findings if f.severity == "error"]

    def __str__(self):
        if not self.findings:
            return "valid (no findings)"
        return "\n".join(str(f) for f in self.findings)


def validate_cerf(t, event_params=()):
    """Check the structural axioms of a family; returns a ValidationReport.

    event_params: parameter values of declared non-vertex events, folded
    into the disjointness check when they are known to the caller.

    The components are implicit, and no check reads them; a report
    without errors proves that they are loops and chords.  Every arc has
    two ends.  The end-tag checks make each end either a boundary at its
    footprint's end or a known vertex, and vertex-arcs makes each vertex
    join exactly its two distinct arcs, at one end of each.  So each arc
    is joined to at most two others, one per vertex end, and the arcs
    joined at vertices form paths whose two free ends are boundaries
    (chords) or cycles with no free end (loops).
    """
    out = []
    err = lambda code, msg: out.append(Finding(code, "error", msg))
    info = lambda code, msg: out.append(Finding(code, "info", msg))

    arc_ids = [a.id for a in t.arcs]
    dup = {x for x in arc_ids if arc_ids.count(x) > 1}
    for x in sorted(dup):
        err("duplicate-id", "arc id %r declared more than once" % x)
    vertex_ids = [v.id for v in t.vertices]
    for x in sorted({x for x in vertex_ids if vertex_ids.count(x) > 1}):
        err("duplicate-id", "vertex id %r declared more than once" % x)
    arcs = {a.id: a for a in t.arcs}
    verts = {v.id: v for v in t.vertices}

    # C1-compactness: every arc footprint is a closed subinterval of [0,1]
    for a in t.arcs:
        if a.lo_open or a.hi_open:
            side = "lower" if a.lo_open else "upper"
            err("C1-compactness",
                "arc %r requests a half-open footprint at its %s end; "
                "components must be compact, so arc intervals are closed" % (a.id, side))
        if a.r_lo < 0 or a.r_hi > 1:
            err("interval-range", "arc %r footprint [%s, %s] leaves [0, 1]" %
                (a.id, a.r_lo, a.r_hi))

    # end tags vs footprint ends and vertices; each vertex's incident
    # arcs, in file order, lo end first
    incident = {}
    for a in t.arcs:
        for end, tag, r_end in (("lo", a.lo_tag, a.r_lo), ("hi", a.hi_tag, a.r_hi)):
            if isinstance(tag, (BoundaryAt0, BoundaryAt1)):
                if r_end != (1 if isinstance(tag, BoundaryAt1) else 0):
                    err("interval-endpoint",
                        "arc %r tagged %s at %s end but that end is at r=%s"
                        % (a.id, tag, end, r_end))
            elif isinstance(tag, (BirthVertex, DeathVertex)):
                vid = tag.vertex
                incident.setdefault(vid, []).append(a.id)
                if vid not in verts:
                    err("dangling-vertex",
                        "arc %r references unknown vertex %r" % (a.id, vid))
                    continue
                v = verts[vid]
                want = "birth" if isinstance(tag, BirthVertex) else "death"
                if v.kind != want:
                    err("vertex-kind",
                        "arc %r tags vertex %r as %s but it is a %s" %
                        (a.id, vid, want, v.kind))
                # births are parameter minima, deaths maxima, along each arc
                if isinstance(tag, BirthVertex) and end != "lo":
                    err("vertex-end",
                        "birth vertex %r sits at the high end of arc %r; births "
                        "must open the parameter interval (alternation along the "
                        "component fails otherwise)" % (vid, a.id))
                if isinstance(tag, DeathVertex) and end != "hi":
                    err("vertex-end",
                        "death vertex %r sits at the low end of arc %r; deaths "
                        "must close the parameter interval" % (vid, a.id))
                if v.r != r_end:
                    err("vertex-parameter",
                        "arc %r ends at r=%s but vertex %r sits at r=%s" %
                        (a.id, r_end, vid, v.r))
                elif a.value(r_end) != v.f3:
                    err("vertex-action",
                        "arc %r has action %s at vertex %r, vertex declares %s" %
                        (a.id, a.value(r_end), vid, v.f3))
            else:
                err("unknown-tag", "arc %r has unrecognized %s tag %r" % (a.id, end, tag))

    # each vertex joins exactly its two declared arcs
    for v in t.vertices:
        arcs_at = incident.get(v.id, [])
        expected = {v.plus_arc, v.minus_arc}
        if v.plus_arc == v.minus_arc:
            err("vertex-arcs", "vertex %r declares the same arc twice" % v.id)
        elif set(arcs_at) != expected or len(arcs_at) != 2:
            err("vertex-arcs",
                "vertex %r declares arcs %r but is referenced by %r" %
                (v.id, sorted(expected), sorted(arcs_at)))
        for aid in (v.plus_arc, v.minus_arc):
            if aid not in arcs:
                err("dangling-arc", "vertex %r references unknown arc %r" % (v.id, aid))

    # orientation: the plus branch has strictly larger action beside the
    # vertex, after a birth and before a death
    for v in t.vertices:
        if v.plus_arc not in arcs or v.minus_arc not in arcs:
            continue
        # None: an endpoint mismatch, reported above
        if _side(arcs[v.plus_arc].f3, arcs[v.minus_arc].f3, v.r,
                 v.kind == "birth") not in (1, None):
            err("vertex-orientation",
                "vertex %r: plus arc %r must have strictly larger action than "
                "minus arc %r adjacent to the vertex" %
                (v.id, v.plus_arc, v.minus_arc))

    # parameters of distinct events are pairwise distinct
    params = [(v.r, "vertex %s" % v.id) for v in t.vertices]
    params += [(frac(p), "event") for p in event_params]
    seen = {}
    for r, who in sorted(params, key=lambda p: (p[0], p[1])):
        if r in seen:
            err("disjoint-parameters",
                "%s and %s share parameter r=%s; distinct events must occur at "
                "distinct parameters" % (seen[r], who, r))
        else:
            seen[r] = who

    # properness over compact windows is automatic for a finite family
    info("properness",
         "finite family: over any compact parameter window only finitely many "
         "arcs are alive and their action values are bounded")

    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# lifting a front to space

class LiftResult(NamedTuple):
    samples: tuple           # (s midpoint, x) per segment, exact rationals
    contact_residuals: tuple  # z' + x y' per segment; zero by construction
    nontransverse: tuple      # flagged self-intersection descriptions

    @property
    def embedded(self):
        return not self.nontransverse


def _segments_cross(p0, p1, q0, q1):
    """Exact intersection of two closed segments; returns a description or None."""
    (x1, y1), (x2, y2) = p0, p1
    (x3, y3), (x4, y4) = q0, q1
    d1 = (x2 - x1, y2 - y1)
    d2 = (x4 - x3, y4 - y3)
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        # parallel: overlap iff collinear with interval overlap
        cross = (x3 - x1) * d1[1] - (y3 - y1) * d1[0]
        if cross != 0:
            return None
        proj = lambda p: (p[0] - x1) * d1[0] + (p[1] - y1) * d1[1]
        lo, hi = sorted((proj(q0), proj(q1)))
        length = d1[0] * d1[0] + d1[1] * d1[1]
        if hi < 0 or lo > length:
            return None
        return ("overlap", None)
    t = ((x3 - x1) * d2[1] - (y3 - y1) * d2[0]) / denom
    u = ((x3 - x1) * d1[1] - (y3 - y1) * d1[0]) / denom
    if 0 <= t <= 1 and 0 <= u <= 1:
        return ("point", (x1 + t * d1[0], y1 + t * d1[1]))
    return None


def legendrian_lift(points, s_values=None):
    """Recover the missing space coordinate from a front polyline.

    points: (y, z) samples of the front; consecutive samples span straight
    segments.  The returned x on each segment is -z'/y', reported at the
    segment's parameter midpoint; the contact relation z' + x y' = 0 then
    holds exactly on every segment.
    """
    pts = [(frac(y), frac(z)) for y, z in points]
    if len(pts) < 2:
        raise VerticalTangency("need at least two samples")
    if s_values is None:
        svals = [Fraction(i) for i in range(len(pts))]
    else:
        svals = [frac(s) for s in s_values]
        if len(svals) != len(pts) or any(b <= a for a, b in zip(svals, svals[1:])):
            raise NonIsolatedCusp("parameter samples must strictly increase")

    samples = []
    residuals = []
    directions = []
    for i in range(len(pts) - 1):
        (y0, z0), (y1, z1) = pts[i], pts[i + 1]
        dy, dz = y1 - y0, z1 - z0
        if dy == 0 and dz == 0:
            raise NonIsolatedCusp(
                "samples %d and %d coincide: the fold locus is not isolated" % (i, i + 1))
        if dy == 0:
            raise VerticalTangency(
                "segment %d is vertical with z' = %s != 0; not the front of a "
                "space curve" % (i, dz))
        x = -dz / dy
        samples.append(((svals[i] + svals[i + 1]) / 2, x))
        residuals.append(dz + x * dy)
        directions.append((dy, dz))

    flags = []
    n = len(pts) - 1
    for i in range(n):
        for j in range(i + 1, n):
            hit = _segments_cross(pts[i], pts[i + 1], pts[j], pts[j + 1])
            if hit is None:
                continue
            kind, where = hit
            adjacent = (j == i + 1)
            di, dj = directions[i], directions[j]
            parallel = di[0] * dj[1] - di[1] * dj[0] == 0
            if kind == "overlap":
                flags.append("segments %d and %d overlap along a subsegment" % (i, j))
            elif adjacent:
                continue   # shared breakpoint of consecutive segments
            elif parallel:
                flags.append(
                    "non-transverse self-intersection of segments %d and %d at "
                    "(%s, %s)" % (i, j, where[0], where[1]))
    return LiftResult(tuple(samples), tuple(residuals), tuple(flags))
