"""Piecewise-linear functions of the deformation parameter, exact rationals.

Arc action profiles and window boundaries are both stored this way.  All
evaluation and crossing computations stay in Fraction arithmetic, so sign
tests and crossing parameters are exact.  Comparing two profiles reads
their difference at the common knots, found by one merged walk over both
point lists (differences).
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Tuple

_PARAM = itemgetter(0)


def frac(x):
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class Piecewise:
    """Linear interpolation through (r, value) breakpoints, r strictly increasing."""

    points: Tuple[Tuple[Fraction, Fraction], ...]

    def __post_init__(self):
        pts = tuple((frac(r), frac(v)) for r, v in self.points)
        if len(pts) < 2:
            raise ValueError("need at least two breakpoints")
        for (r0, _), (r1, _) in zip(pts, pts[1:]):
            if not r0 < r1:
                raise ValueError("breakpoints must be strictly increasing in r")
        object.__setattr__(self, "points", pts)

    @staticmethod
    def constant(value, lo=0, hi=1):
        return Piecewise(((frac(lo), frac(value)), (frac(hi), frac(value))))

    @property
    def r_lo(self):
        return self.points[0][0]

    @property
    def r_hi(self):
        return self.points[-1][0]

    def contains(self, r):
        return self.r_lo <= frac(r) <= self.r_hi

    def value(self, r):
        r = frac(r)
        pts = self.points
        if not pts[0][0] <= r <= pts[-1][0]:
            raise ValueError("parameter %s outside domain [%s, %s]" % (r, self.r_lo, self.r_hi))
        return _at(pts, bisect_left(pts, r, key=_PARAM), r)

    def pieces(self):
        """Yield (r0, r1, v0, v1) linear pieces."""
        pts = self.points
        for (r0, v0), (r1, v1) in zip(pts, pts[1:]):
            yield r0, r1, v0, v1

    def knots(self, lo=None, hi=None):
        """Breakpoint parameters clipped to [lo, hi], endpoints included."""
        lo = self.r_lo if lo is None else max(frac(lo), self.r_lo)
        hi = self.r_hi if hi is None else min(frac(hi), self.r_hi)
        if lo > hi:
            return []
        ks = [lo]
        for r, _ in self.points:
            if lo < r < hi:
                ks.append(r)
        if hi > lo:
            ks.append(hi)
        return ks

    def extremes(self, lo=None, hi=None):
        """(min, max) over [lo, hi]; linear pieces attain extremes at knots."""
        vals = [self.value(r) for r in self.knots(lo, hi)]
        return min(vals), max(vals)

    def shifted(self, dv):
        dv = frac(dv)
        return Piecewise(tuple((r, v + dv) for r, v in self.points))


def common_knots(f, g, lo, hi):
    lo, hi = frac(lo), frac(hi)
    ks = set(f.knots(lo, hi)) | set(g.knots(lo, hi))
    ks.add(lo)
    ks.add(hi)
    return sorted(k for k in ks if lo <= k <= hi)


def differences(f, g, lo, hi):
    """The common knots of f and g in [lo, hi], and f - g at each.

    One merged walk over both point lists evaluates the two profiles:
    the knots are sorted, so each profile's pointer only moves forward,
    and the domain is checked once rather than per knot.
    """
    ks = common_knots(f, g, lo, hi)
    for pw in (f, g):
        for k in ks[:1] + ks[-1:]:
            if not pw.r_lo <= k <= pw.r_hi:
                raise ValueError("parameter %s outside domain [%s, %s]"
                                 % (k, pw.r_lo, pw.r_hi))
    fp, gp = f.points, g.points
    i = j = 0
    out = []
    for k in ks:
        while fp[i][0] < k:
            i += 1
        while gp[j][0] < k:
            j += 1
        out.append(_at(fp, i, k) - _at(gp, j, k))
    return ks, out


def _at(pts, i, r):
    """Value at r, where pts[i] is the first point with parameter >= r."""
    r1, v1 = pts[i]
    if r == r1:
        return v1
    r0, v0 = pts[i - 1]
    return v0 + (v1 - v0) * (r - r0) / (r1 - r0)


def crossings(f, g, lo=None, hi=None):
    """Exact parameters in [lo, hi] where f = g.

    Returns a sorted list of Fractions; lo == hi gives [lo] when f and g
    meet there.  An interval of coincidence is reported by its endpoints
    (degenerate overlap; callers that forbid it should compare values at
    knots instead).
    """
    lo = max(f.r_lo, g.r_lo) if lo is None else frac(lo)
    hi = min(f.r_hi, g.r_hi) if hi is None else frac(hi)
    if lo > hi:
        return []
    ks, ds = differences(f, g, lo, hi)
    out = []
    for k0, d0, k1, d1 in zip(ks, ds, ks[1:], ds[1:]):
        if d0 == 0:
            out.append(k0)
        if (d0 > 0 > d1) or (d0 < 0 < d1):
            out.append(k0 + (k1 - k0) * d0 / (d0 - d1))
    if ds[-1] == 0:
        out.append(ks[-1])
    return out
