"""Piecewise-linear functions of the deformation parameter, exact rationals.

Arc action profiles and window boundaries are both stored this way, with
Fraction breakpoints.  Comparing two profiles runs on integers: one
private kernel (_walk) reads their points as (numerator, denominator)
pairs, emits their common knots in one merged walk and returns the
difference at each as an integer numerator over a positive denominator;
every comparison is a cross product.  contains and value read the same
integer pairs.  Each Piecewise is made in one pass over its points: each
point is converted once (frac, the one door for numbers), kept as
Fractions in points and as integers in Piecewise.ints, and its parameter
checked on those integers against the point before.  ints is the one
integer reader of a profile, for this module and for every caller that
evaluates the integer points itself (_ratio_at).  It is not in
Piecewise._fields, so ==, repr and _replace (values.Value) read the
Fraction points only, and _replace makes ints again from the new points;
hash reads ints, which agrees with ==, since equal Fractions have equal
reduced ratios.  A Fraction is built only where a value leaves the
kernel: a crossing parameter and Piecewise.value.  A profile that cannot
be made raises InvalidParameters, and a parameter outside its domain
OutOfRange.  _side is the one reader of local order, the sign of f - g
beside a parameter (None where the two are not both alive there), for
the family validator and the event engine alike.

_range is the kernel's second reader of a profile: its least and
greatest knot value, as integer pairs off ints.  A linear piece takes
its extremes at its ends, so when two ranges are strictly apart
(_apart) the sign of f - g is fixed wherever both are defined, and no
walk is needed.  Ranges that overlap or touch decide nothing, and the
caller walks.  A range is computed where it is read and is not stored
on the profile.  common_knots stays in Fraction arithmetic, as the
tests' reference for the kernel's knots.
"""

from fractions import Fraction

from .errors import (InvalidParameters, OutOfRange, ScenarioSyntaxError,
                     check_literal)
from .values import Value


def frac(x):
    """x as a Fraction, the one door for numbers: a Fraction (or a
    subclass) itself; an int, a float or a string (held to check_literal's
    bound) read exactly; anything else, NaN and the infinities refused
    with InvalidParameters.  The exact types come first: isinstance(x,
    Fraction) runs the ABC machinery, which costs more than Fraction(int)."""
    t = type(x)
    if t is int:
        return Fraction(x)
    if t is Fraction or isinstance(x, Fraction):
        return x
    if isinstance(x, (int, float, str)):
        try:
            if isinstance(x, str):
                check_literal(x)
            return Fraction(x)
        except ScenarioSyntaxError as e:
            raise InvalidParameters(str(e)) from None
        except (ValueError, OverflowError, ZeroDivisionError):
            pass
    raise InvalidParameters("not an exact number: %r" % (x,))


class Piecewise(Value):
    """Linear interpolation through (r, value) breakpoints, r strictly increasing."""

    _fields = ("points",)

    def __init__(self, points):
        # each point as Fractions and as the integers (r_num, r_den,
        # v_num, v_den); an order error is raised after the pass, so that
        # a conversion error anywhere, then too few points, come first
        pts, ints = [], []
        q = None
        increasing = True
        for r, v in points:
            r, v = frac(r), frac(v)
            p = r.as_integer_ratio() + v.as_integer_ratio()
            if q is not None and not q[0] * p[1] < p[0] * q[1]:
                increasing = False
            pts.append((r, v))
            ints.append(p)
            q = p
        if len(pts) < 2:
            raise InvalidParameters("need at least two breakpoints")
        if not increasing:
            raise InvalidParameters("breakpoints must be strictly increasing in r")
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "ints", tuple(ints))

    def __hash__(self):
        return hash(self.ints)

    @staticmethod
    def constant(value):
        return Piecewise(((0, value), (1, value)))

    @property
    def r_lo(self):
        return self.points[0][0]

    @property
    def r_hi(self):
        return self.points[-1][0]

    def contains(self, r):
        """r_lo <= r <= r_hi, by integer cross products."""
        rn, rd = frac(r).as_integer_ratio()
        pts = self.ints
        return (pts[0][0] * rd <= rn * pts[0][1]
                and rn * pts[-1][1] <= pts[-1][0] * rd)

    def value(self, r):
        """Value at r: a Fraction built from the kernel's integer pair."""
        r = frac(r)
        if not self.contains(r):
            raise OutOfRange("parameter %s outside domain [%s, %s]" % (r, self.r_lo, self.r_hi))
        return Fraction(*_ratio_at(self.ints, *r.as_integer_ratio()))


def common_knots(f, g, lo, hi):
    """lo, hi and every breakpoint of f or g strictly between them,
    sorted; [] when lo > hi."""
    lo, hi = frac(lo), frac(hi)
    if lo > hi:
        return []
    return sorted({lo, hi} | {r for r, _ in f.points + g.points if lo < r < hi})


def _eval(pts, i, kn, kd):
    """Value at kn/kd as (numerator, denominator > 0), from the integer
    points pts (Piecewise.ints), where pts[i] is the first with parameter
    >= kn/kd.

    Between points (a0/b0, v0) and (a1/b1, v1) the value is the weighted
    mean (v0 * x1 + v1 * x0) / (x0 + x1), with positive weights x0 and x1
    proportional to k - r0 and r1 - k.
    """
    a1, b1, p1, q1 = pts[i]
    x1 = a1 * kd - kn * b1
    if not x1:
        return p1, q1
    a0, b0, p0, q0 = pts[i - 1]
    x1 *= b0
    x0 = (kn * b0 - a0 * kd) * b1
    return p0 * q1 * x1 + p1 * q0 * x0, q0 * q1 * (x0 + x1)


def _ratio_at(pts, kn, kd):
    """The profile with integer points pts (Piecewise.ints) at kn/kd,
    inside its domain, as (numerator, denominator > 0)."""
    i = 0
    while pts[i][0] * kd < kn * pts[i][1]:
        i += 1
    return _eval(pts, i, kn, kd)


def _walk(f, g, lo, hi):
    """The kernel: common knots of f and g in [lo, hi], f - g at each.

    Returns (knots, nums, dens).  knots are lo, hi and every breakpoint
    of either profile strictly between them, increasing, as the Fraction
    objects given; f - g at knots[m] is nums[m] / dens[m], dens[m] > 0.
    lo or hi None stands for the start or end of the common domain.  One
    merged walk over both point lists, read as integers, emits the knots
    and evaluates both profiles; each pointer only moves forward, and
    every comparison is a cross product.  lo > hi gives empty lists; a
    range outside either domain raises OutOfRange.
    """
    fp, gp = f.points, g.points
    fi, gi = f.ints, g.ints
    if lo is None:
        lo = fp[0][0] if fi[0][0] * gi[0][1] >= gi[0][0] * fi[0][1] else gp[0][0]
    if hi is None:
        hi = fp[-1][0] if fi[-1][0] * gi[-1][1] <= gi[-1][0] * fi[-1][1] else gp[-1][0]
    lo, hi = frac(lo), frac(hi)
    ln, ld = lo.as_integer_ratio()
    hn, hd = hi.as_integer_ratio()
    if ln * hd > hn * ld:
        return [], [], []
    for pw, pts in ((f, fi), (g, gi)):
        for k, kn, kd in ((lo, ln, ld), (hi, hn, hd)):
            if pts[0][0] * kd > kn * pts[0][1] or kn * pts[-1][1] > pts[-1][0] * kd:
                raise OutOfRange("parameter %s outside domain [%s, %s]"
                                 % (k, pw.r_lo, pw.r_hi))
    i = j = 0
    while fi[i][0] * ld < ln * fi[i][1]:
        i += 1
    while gi[j][0] * ld < ln * gi[j][1]:
        j += 1
    ks, nums, dens = [], [], []
    k, kn, kd = lo, ln, ld
    while True:
        p, q = _eval(fi, i, kn, kd)
        s, u = _eval(gi, j, kn, kd)
        ks.append(k)
        nums.append(p * u - s * q)
        dens.append(q * u)
        if kn * hd == hn * kd:
            return ks, nums, dens
        # step each pointer past k, then take the nearer next knot, or hi
        if fi[i][0] * kd == kn * fi[i][1]:
            i += 1
        if gi[j][0] * kd == kn * gi[j][1]:
            j += 1
        a, b = fi[i][0], fi[i][1]
        c, e = gi[j][0], gi[j][1]
        if c * b < a * e:
            k, a, b = gp[j][0], c, e
        else:
            k = fp[i][0]
        if a * hd < hn * b:
            kn, kd = a, b
        else:
            k, kn, kd = hi, hn, hd


def crossings(f, g, lo=None, hi=None):
    """Exact parameters in [lo, hi] where f = g.

    Returns a sorted list of Fractions; lo == hi gives [lo] when f and g
    meet there.  An interval of coincidence is reported by its endpoints
    (degenerate overlap; callers that forbid it should compare values at
    knots instead).  Signs come from _walk's integers; a Fraction is
    built only for a root strictly between two knots.
    """
    ks, nums, dens = _walk(f, g, lo, hi)
    out = []
    for m in range(len(ks) - 1):
        d0, d1 = nums[m], nums[m + 1]
        if not d0:
            out.append(ks[m])
        elif d0 < 0 < d1 or d1 < 0 < d0:
            # the root of the linear difference: k0 + (k1 - k0) * t with
            # t = D0 / (D0 - D1), D the differences over one denominator
            a0, b0 = ks[m].as_integer_ratio()
            a1, b1 = ks[m + 1].as_integer_ratio()
            t0 = d0 * dens[m + 1]
            t1 = t0 - d1 * dens[m]
            out.append(Fraction(a0 * b1 * t1 + (a1 * b0 - a0 * b1) * t0,
                                b0 * b1 * t1))
    if ks and not nums[-1]:
        out.append(ks[-1])
    return out


def _range(f):
    """(least, greatest) knot value of f, each as (numerator, denominator
    > 0), read off f.ints: the least and greatest value of f anywhere."""
    pts = f.ints
    lo = hi = pts[0][2:]
    for p in pts[1:]:
        n, d = p[2], p[3]
        if n * lo[1] < lo[0] * d:
            lo = n, d
        elif n * hi[1] > hi[0] * d:
            hi = n, d
    return lo, hi


def _apart(rf, rg):
    """1 if the range rf lies strictly above the range rg, -1 if strictly
    below, 0 if they overlap or touch; ranges as _range gives them.  A
    nonzero result is the sign of f - g at every parameter where both
    are defined."""
    (fl, fh), (gl, gh) = rf, rg
    if fl[0] * gh[1] > gh[0] * fl[1]:
        return 1
    if fh[0] * gl[1] < gl[0] * fh[1]:
        return -1
    return 0


def _side(f, g, r, after=True):
    """Sign (-1, 0 or 1) of f - g on the immediate right (after) or left
    neighbourhood of r, or None where there is no such neighbourhood.

    Both profiles are linear between common knots, so _walk's difference
    at r decides, with a tie broken at the nearest common knot on that
    side: a tie there too means the profiles coincide beside r.  r
    outside either domain, or with no common knot beyond it on that
    side, gives None: the two are not both alive there.
    """
    if f.contains(r) and g.contains(r):
        diffs = (_walk(f, g, r, None)[1] if after
                 else _walk(f, g, None, r)[1][::-1])
        if len(diffs) > 1:
            d = diffs[0] or diffs[1]
            return (d > 0) - (d < 0)
    return None
