"""Growth hypotheses, the escape budget, and the cascade generator.

A growth bound is a function Phi(s) = c * |s|^p * prod_j (log^(j)|s|)^q_j
together with an exclusion interval (a, b) around the origin on which
nothing is required of it.  Away from the exclusion interval every
member of this family is positive, continuous, and unimodal in |s| (the
logarithmic derivative is (p + positive decreasing)/s), which is what
makes the slope check below exact with endpoint sampling only.

Whether the improper integrals of 1/Phi diverge is decided symbolically
from (p, q_1, q_2, ...), never numerically: no finite sampling can
certify divergence.
"""

import math
from fractions import Fraction
from typing import NamedTuple

from .bifurcation import EventRecord, FlowCounter, HandleSlide
from .cerf import Arc, BoundaryAt0, BoundaryAt1, CerfTuple, Finding
from .errors import (EmptyTrace, InvalidParameters, PrecisionExhausted,
                     UnsupportedFamily, ZeroClass)
from .matrix import SparseMatrix
from .piecewise import Piecewise, frac
from .rings import Z2
from .tracker import NEG_INF
from .values import Value

INF = float("inf")
_FLAT = Fraction(0)          # the cost of every flat step

# smallest integer safely above the point where the innermost log factor
# turns positive: 1, e, e^e, e^(e^e)
_LOG_THRESHOLD = {0: 0, 1: 2, 2: 3, 3: 16, 4: 3814280}
MAX_LOG_DEPTH = max(_LOG_THRESHOLD)


def _is_log_depth(depth):
    """Whether depth is a number of iterated log factors iterlog and
    LogTame accept: an int (not a bool) from 1 to MAX_LOG_DEPTH.  A whole
    Fraction or float is refused, since (1,) * depth needs an int."""
    return type(depth) is int and 1 <= depth <= MAX_LOG_DEPTH


def _log_powers(logs):
    """The exponents q_j of the iterated log factors, each read by frac;
    logs that is text or no sequence raises InvalidParameters."""
    if not isinstance(logs, str):
        try:
            return tuple(frac(q) for q in logs)
        except TypeError:
            pass
    raise InvalidParameters("the log exponents are a sequence of numbers, "
                            "not %r" % (logs,))


class GrowthBound(Value):
    _fields = ("coefficient", "power", "log_powers", "gap", "label")

    def __init__(self, coefficient, power, log_powers, gap, label="polylog"):
        coefficient, power = frac(coefficient), frac(power)
        log_powers = _log_powers(log_powers)
        if coefficient <= 0:
            raise InvalidParameters("coefficient must be positive")
        if any(q < 0 for q in log_powers):
            raise InvalidParameters("log exponents must be nonnegative")
        depth = len(log_powers)
        if depth > MAX_LOG_DEPTH:
            raise InvalidParameters("at most four iterated log factors")
        # the exclusion interval (a, b), a <= 0 <= b
        try:
            a, b = gap
        except (TypeError, ValueError):
            raise InvalidParameters("the exclusion interval is a pair (a, b), "
                                    "not %r" % (gap,)) from None
        a, b = frac(a), frac(b)
        if not a <= 0 <= b:
            raise InvalidParameters("exclusion interval must contain 0")
        thr = _LOG_THRESHOLD[depth]
        if depth and (b < thr or -a < thr):
            raise InvalidParameters(
                "with %d log factors the exclusion interval must reach +-%d"
                % (depth, thr))
        object.__setattr__(self, "coefficient", coefficient)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "log_powers", log_powers)
        object.__setattr__(self, "gap", (a, b))
        object.__setattr__(self, "label", label)

    def value(self, s):
        """Phi(s); exact Fraction when no transcendental factor enters,
        and PrecisionExhausted when that Fraction passes
        EXACT_POWER_CAP_BITS."""
        u = abs(frac(s))
        if not self.log_powers:
            if u == 0:
                if self.power > 0:
                    return Fraction(0)
                return self.coefficient if self.power == 0 else INF
            if self.power.denominator == 1:
                return self.coefficient * _power(u, int(self.power),
                                                 self.coefficient)
            return float(self.coefficient) * float(u) ** float(self.power)
        x = float(u)
        out = float(self.coefficient) * x ** float(self.power)
        y = x
        for q in self.log_powers:
            y = math.log(y)
            out *= y ** float(q)
        return out

    def diverges_at_infinity(self):
        """Exact divergence test for the improper integral of 1/Phi.

        The integral from any point past the exclusion interval to
        infinity diverges iff p < 1, or p = 1 and the first log exponent
        different from 1 is < 1 (all exponents equal to 1 diverges).
        """
        if self.power < 1:
            return True
        if self.power > 1:
            return False
        for q in self.log_powers:
            if q != 1:
                return q < 1
        return True

    def _antiderivative(self, s):
        """G(s) with G' = 1/Phi at a rational s; None where the iterated
        logs of G are undefined.

        Every bound without log factors has one; with them, only p = 1
        with every q = 1 does: the iterated log of s, over c, defined
        while each log's argument is positive.
        """
        c = self.coefficient
        if not self.log_powers:
            if self.power == 1:
                return math.log(float(s)) / float(c)
            e = 1 - self.power
            if e.denominator == 1:
                scale = c * e
                return _power(s, int(e), scale) / scale
            return float(s) ** float(e) / (float(c) * float(e))
        if self.power == 1 and all(q == 1 for q in self.log_powers):
            x = float(s)
            for _ in range(len(self.log_powers) + 1):
                if x <= 0:
                    return None
                x = math.log(x)
            return x / float(c)
        raise UnsupportedFamily(
            "no closed-form antiderivative registered for %s"
            % self._exponents())

    def cost(self, lo, hi):
        """Parameter cost of climbing from lo to hi: INT ds/Phi.

        Exact (rational) whenever the antiderivative stays rational.  lo
        and hi are read by frac; Phi is even, so the part of a climb below
        0 costs its mirror image's.  An end at 0 where 1/Phi is not
        integrable (p >= 1, no log factor) costs INF, as does a lower
        end where the antiderivative's iterated logs are undefined (at
        most 1 under one log factor, e under two).  The iterated logs
        increase, so where they are defined at lo they are defined at
        hi.  A climb whose float
        antiderivative leaves the range of floats raises
        InvalidParameters, and one whose exact antiderivative passes
        EXACT_POWER_CAP_BITS raises PrecisionExhausted.
        """
        lo, hi = frac(lo), frac(hi)
        if lo > hi:
            raise InvalidParameters("cost requires lo <= hi")
        if lo < 0:
            return self.cost(max(-hi, 0), -lo) + self.cost(0, max(hi, 0))
        if lo == hi:
            return Fraction(0)
        if lo == 0 and self.power >= 1 and not self.log_powers:
            return INF
        try:
            g_lo = self._antiderivative(lo)
            if g_lo is None:
                return INF
            return self._antiderivative(hi) - g_lo
        except OverflowError:
            raise InvalidParameters("the cost of this climb leaves the "
                                    "range of floats") from None

    def tail_integral(self, m):
        """INT_m^infinity ds/Phi in closed form; INF when divergent, and
        PrecisionExhausted when an exact tail passes EXACT_POWER_CAP_BITS.

        By evenness of Phi this is also the integral from -infinity to
        -m.  m at or below the positivity threshold gives INF (the
        integrand is eventually bounded below on a set of infinite
        measure, or blows up at the threshold).
        """
        m = frac(m)
        if self.diverges_at_infinity():
            return INF
        if not self.log_powers:
            # p > 1 here; the integral also diverges at 0
            if m <= 0:
                return INF
            e = self.power - 1
            if e.denominator == 1:
                scale = self.coefficient * e
                return 1 / (scale * _power(m, int(e), scale))
            return 1.0 / (float(self.coefficient) * float(e)
                          * float(m) ** float(e))
        raise UnsupportedFamily(
            "no closed-form tail registered for %s" % self._exponents())

    def _exponents(self):
        """p and the log exponents, as a growth bound's text writes them."""
        return "p=%s, logs=(%s)" % (self.power,
                                    ",".join(map(str, self.log_powers)))


# in each constructor below, gap=None gives the family's default interval
def linear(c, gap=None):
    return GrowthBound(c, 1, (), (-1, 1) if gap is None else gap, "linear")


def square(c, gap=None):
    return GrowthBound(c, 2, (), (0, 0) if gap is None else gap, "square")


def iterlog(c, depth, gap=None):
    if not _is_log_depth(depth):
        raise InvalidParameters("iterlog needs a depth from 1 to %d"
                                % MAX_LOG_DEPTH)
    if gap is None:
        gap = (-_LOG_THRESHOLD[depth], _LOG_THRESHOLD[depth])
    return GrowthBound(c, 1, (1,) * depth, gap, "iterlog")


def polylog(c, p, logs=(), gap=None):
    logs = _log_powers(logs)
    if gap is None:
        thr = max(_LOG_THRESHOLD.get(len(logs), 0), 1 if p != 0 else 0)
        gap = (-thr, thr)
    return GrowthBound(c, p, logs, gap, "polylog")


# bit cap on the integers that _power_sign builds; an exponent such as
# 1/1000 on inputs of a few hundred bits stays well inside it
POWER_CAP_BITS = 1 << 21

# bit cap on the exact powers that value, _antiderivative and
# tail_integral build, coefficient included.  A report prints such a
# value, or a step cost, the difference of two, whose numerator and
# denominator then have at most _STEP_COST_BITS bits each: inside the
# 14,284 bits (4,300 digits) that Python turns into text.
EXACT_POWER_CAP_BITS = 7000
_STEP_COST_BITS = 2 * EXACT_POWER_CAP_BITS + 1


def _power_bits(x, n):
    """The bits of x^n's numerator and denominator together, at most,
    for a rational x and an int n (bit lengths add under products)."""
    return abs(n) * (x.numerator.bit_length() + x.denominator.bit_length())


def _power(x, n, scale):
    """x^n, for a rational x and an int n, once the bits of x^n and of
    the rational scale it is printed with stay within
    EXACT_POWER_CAP_BITS; past it PrecisionExhausted is raised before any
    work is done."""
    need = _power_bits(x, n) + _power_bits(scale, 1)
    if need > EXACT_POWER_CAP_BITS:
        raise PrecisionExhausted(
            "raising a %d-bit rational to the power %d needs %d bits, past "
            "the cap of %d" % (_power_bits(x, 1), n, need,
                               EXACT_POWER_CAP_BITS))
    return x ** n


def _power_sign(x, u, e):
    """Sign of x - u^e for positive rationals x, u and rational e = p/q:
    that of x^q - u^p, compared as integers.  Past POWER_CAP_BITS bits
    PrecisionExhausted is raised rather than a guess."""
    p, q = e.numerator, e.denominator
    need = _power_bits(x, q) + _power_bits(u, p)
    if need > POWER_CAP_BITS:
        raise PrecisionExhausted(
            "comparing %s with %s^%s needs %d-bit integers, past the cap of "
            "%d" % (x, u, e, need, POWER_CAP_BITS))
    if p < 0:
        u, p = 1 / u, -p
    lhs = x.numerator ** q * u.denominator ** p
    rhs = u.numerator ** p * x.denominator ** q
    return (lhs > rhs) - (lhs < rhs)


# ---------------------------------------------------------------------------
# hypothesis (H1): slope bound plus two-sided divergence

class H1Report(NamedTuple):
    ok: bool
    slope_ok: bool
    divergence_ok: bool
    findings: tuple


def _piece_check_points(phi, smin, smax):
    """F3 values where the slope bound must be tested on one piece.

    Phi is unimodal in |s| outside the exclusion interval, so its
    minimum over each non-exempt closed subrange sits at a subrange
    endpoint.
    """
    a, b = phi.gap
    out = []
    if smin <= a:
        out += [smin, min(smax, a)]
    if smax >= b:
        out += [max(smin, b), smax]
    return out


def check_H1(phi, t):
    """Slope of every arc piece bounded by Phi of the action, exactly.

    Also certifies, symbolically, that the escape integrals on both
    sides of the exclusion interval diverge; the report is total and
    lists every violation.
    """
    findings = []
    slope_ok = True
    for arc in t.arcs:
        pts = arc.f3.points
        for k, ((r0, v0), (r1, v1)) in enumerate(zip(pts, pts[1:])):
            slope = abs((v1 - v0) / (r1 - r0))
            if slope == 0:
                continue
            smin, smax = min(v0, v1), max(v0, v1)
            for s in _piece_check_points(phi, smin, smax):
                bound = phi.value(s)
                if isinstance(bound, Fraction):
                    bad = slope > bound
                elif phi.log_powers or s == 0:
                    bad = float(slope) > bound
                else:
                    # c |s|^p with p fractional: printed as the float
                    bad = _power_sign(slope / phi.coefficient, abs(s),
                                      phi.power) > 0
                if bad:
                    slope_ok = False
                    findings.append(Finding(
                        "slope-bound", "error",
                        "arc %r piece %d: |slope| = %s exceeds the growth "
                        "bound %s at action %s" % (arc.id, k, slope, bound, s)))
                    break
    divergence_ok = phi.diverges_at_infinity()
    if not divergence_ok:
        # Phi is even, so both sides fail together
        findings.append(Finding(
            "divergence-upper", "error",
            "the escape integral above the exclusion interval converges"))
        findings.append(Finding(
            "divergence-lower", "error",
            "the escape integral below the exclusion interval converges"))
    if slope_ok and divergence_ok:
        findings.append(Finding("summary", "info",
                                "slope bound and both divergences hold"))
    return H1Report(slope_ok and divergence_ok, slope_ok, divergence_ok,
                    tuple(findings))


# ---------------------------------------------------------------------------
# hypothesis (H2): tail integrals past the class's starting value

class H2Report(NamedTuple):
    ok: bool
    upper_threshold: Fraction      # M = max(b, rho0)
    lower_threshold: Fraction      # m = min(a, rho0)
    upper_integral: object
    lower_integral: object
    required: Fraction             # 1 + kappa
    margin: object


def _reaches(phi, tail, m, need):
    """Whether tail = phi.tail_integral(m) >= need, exactly.  A float tail
    is 1 / (c e m^e), e = p - 1 fractional: it reaches need iff
    1 / (c e need) >= m^e."""
    if isinstance(tail, Fraction) or tail == INF:
        return tail >= need
    e = phi.power - 1
    return _power_sign(1 / (phi.coefficient * e * need), m, e) >= 0


def check_H2(phi, kappa, rho0):
    """Both tail integrals of 1/Phi must reach 1 + kappa.

    The upper tail starts at M = max(b, rho0), the lower tail ends at
    m = min(a, rho0); closed-form evaluation, so the boundary case is
    exact.
    """
    kappa = frac(kappa)
    if kappa <= 0:
        raise InvalidParameters("kappa must be positive")
    rho0 = frac(rho0)
    a, b = phi.gap
    big = max(b, rho0)
    small = min(a, rho0)
    upper = phi.tail_integral(big)
    lower = phi.tail_integral(abs(small))
    required = 1 + kappa
    ok = (_reaches(phi, upper, big, required)
          and _reaches(phi, lower, abs(small), required))
    worst = min(upper, lower)
    margin = INF if worst == INF else worst - required
    return H2Report(ok, big, small, upper, lower, required, margin)


# ---------------------------------------------------------------------------
# escape budget: the telescoping integral lower bound

class EscapeBudget(NamedTuple):
    heights: tuple
    step_costs: tuple
    total: object
    verdict: str                  # InfeasibleWithinUnitTime | WithinBudget
    escape_cost_infinite: bool

    def __str__(self):
        return "cost %s over %d steps: %s" % (
            self.total, len(self.step_costs), self.verdict)


def _exp_bounds(c, bits):
    """Integers (lo, hi) with lo < e^c * 2^bits < hi, for rational c > 0.

    e^c = (e^x)^(2^m) with x = c / 2^m <= 1/2.  The Taylor terms of e^x
    are carried in fixed point with `bits` fractional bits, rounded down
    for lo and up for hi; the sum stops at the first upper term of at
    most 1 (2^-bits), whose tail is at most twice that term because
    x <= 1/2.  Each of the m squarings rounds outward again.
    """
    m = (c.numerator // c.denominator).bit_length() + 1
    one = 1 << bits
    x_lo = (c.numerator << bits) // (c.denominator << m)
    x_hi = -((-c.numerator << bits) // (c.denominator << m))
    lo = hi = t_lo = t_hi = one
    k = 1
    while True:
        t_lo = t_lo * x_lo // (k << bits)
        t_hi = -((-t_hi * x_hi) // (k << bits))
        if t_hi <= 1:
            hi += 2 * t_hi
            break
        lo += t_lo
        hi += t_hi
        k += 1
    for _ in range(m):
        lo = lo * lo >> bits
        hi = -((-hi * hi) >> bits)
    return lo, hi


# precision cap of _exceeds_exp: 64 bits plus this many per bit of input
CAP_BITS_PER_INPUT_BIT = 8


def _exceeds_exp(q, c):
    """Whether the rational q exceeds e^c, for rational c > 0, exactly.

    e^c is irrational (Lindemann), so the two never tie: bounds on e^c
    are refined, doubling their precision, until q falls outside them.
    Past a cap of 64 bits plus CAP_BITS_PER_INPUT_BIT per bit of q's and
    c's numerators and denominators, PrecisionExhausted is raised rather
    than a guess.  q <= 1 < e^c, and ln 2 < 7/10 settles every c too
    large for q, at once.
    """
    a, b = q.numerator, q.denominator
    span = a.bit_length() - b.bit_length() + 1      # q < 2^span
    if a <= b or 10 * c >= 7 * span:                # q <= 1, or q < 2^span <= e^c
        return False
    cap = 64 + CAP_BITS_PER_INPUT_BIT * sum(
        n.bit_length() for n in (a, b, c.numerator, c.denominator))
    bits = 64
    while bits <= cap:
        lo, hi = _exp_bounds(c, bits)
        if a << bits < lo * b:
            return False
        if a << bits > hi * b:
            return True
        bits *= 2
    raise PrecisionExhausted(
        "cannot decide whether %s exceeds e^%s within %d bits"
        % (q, c, cap))


def budget_for_heights(heights, phi):
    """Total variation of G, G' = 1/Phi, over heights clipped below at b.

    A class whose value obeys |d rho/dr| <= Phi(rho) moves G by at most
    its parameter span, whether it rises or falls, so each non-flat step
    between consecutive clipped heights costs phi.cost(low, high) either
    way.  On a monotone climb the steps telescope to the single integral
    from the first clipped height to the last, so that total is
    invariant under refinement of the partition.  Under Phi = c|s| a
    step costs ln(high / low) / c, so while every clipped height is
    positive the verdict is the exact comparison of P, the product of
    the steps' high / low, with e^c (_exceeds_exp); the printed total
    and step costs stay floats.  The -inf of a zero class is told from a
    height by its type, so no height is compared with a float.  The
    partial totals of a monotone climb are step costs too, so an exact
    total past _STEP_COST_BITS, which only a trace that turns can reach,
    raises PrecisionExhausted.
    """
    b = phi.gap[1]
    clipped = [b if type(s) is float and s == NEG_INF else max(frac(s), b)
               for s in heights]
    # a clipped height is at least b >= 0, so positive unless it is 0
    exact = (phi.power == 1 and not phi.log_powers
             and (b > 0 or 0 not in clipped))
    costs = []
    total = Fraction(0)
    ratio = Fraction(1)
    for x, y in zip(clipped, clipped[1:]):
        # a slab whose top carried over starts at the very value the last
        # one ended on: such a pair is flat without a comparison
        if y is x or x == y:
            costs.append(_FLAT)
            continue
        lo, hi = (x, y) if x < y else (y, x)
        c = phi.cost(lo, hi)
        costs.append(c)
        total = total + c
        if type(total) is Fraction and max(
                total.numerator.bit_length(),
                total.denominator.bit_length()) > _STEP_COST_BITS:
            raise PrecisionExhausted(
                "the total of these step costs needs more than %d bits, "
                "the most a step cost needs" % _STEP_COST_BITS)
        if exact:
            ratio *= hi / lo
    over = _exceeds_exp(ratio, phi.coefficient) if exact else total > 1
    verdict = "InfeasibleWithinUnitTime" if over else "WithinBudget"
    return EscapeBudget(tuple(clipped), tuple(costs), total, verdict,
                        phi.diverges_at_infinity())


def escape_budget(trace, phi, direction=1):
    """Parameter cost lower bound for the heights a trace realizes.

    The heights are each slab's rho_lo and rho_hi, -inf where the class
    is zero, priced as they are by budget_for_heights.  direction -1
    reflects them to bound a dive toward -infinity (the mirrored
    computation of the negative direction); -inf stays as it is.  Phi
    is even, so the reflected heights are priced under the mirrored
    exclusion interval (-b, -a) of phi.gap = (a, b), and are clipped
    below at -a.  An empty trace realizes no climb, so it has no budget
    and raises EmptyTrace; nor does a class that is zero in the window,
    whose every slab reads -inf with no top (ZeroClass).
    """
    if not trace.segments:
        raise EmptyTrace("the trace has no segments, so there is no climb "
                         "to price (outcome %s)" % trace.outcome)
    if all(seg.top is None for seg in trace.segments):
        raise ZeroClass("the class is zero in the window, so there is no "
                        "climb to price")
    heights = [v for seg in trace.segments for v in (seg.rho_lo, seg.rho_hi)]
    if direction <= 0:
        heights = [v if type(v) is float else -v for v in heights]
        a, b = phi.gap
        phi = phi._replace(gap=(-b, -a))
    return budget_for_heights(heights, phi)


# ---------------------------------------------------------------------------
# the cascade scenario

def build_cascade(n, base=1, ratio=2, delta_value=1, ring=Z2):
    """Scenario whose tracked class climbs past every bound by transfers.

    n + 1 constant-then-rising lanes: lane k+1 handle-slides into the
    tracked class while still low, then rises past the class's current
    top, transferring the spectral value onto itself at height
    base*ratio^k.  The count matrix is identically zero, so every slide
    is an isomorphism of complexes and the homology never changes; only
    the spectral value moves.  Events sit on a uniform sixths grid so
    all parameters are exact and pairwise distinct.
    """
    if n < 0:
        raise InvalidParameters("n must be nonnegative")
    base = frac(base)
    ratio = frac(ratio)
    if base <= 0:
        raise InvalidParameters("base height must be positive")
    if ratio <= 1:
        raise InvalidParameters("height ratio must exceed 1")
    if ring.coerce(delta_value) == ring.zero:
        raise InvalidParameters("slide coefficient must be a nonzero scalar")

    heights = [base * ratio ** k for k in range(n + 1)]
    ids = ["c%d" % (k + 1) for k in range(n + 1)]
    arcs = [Arc(ids[0], Piecewise.constant(heights[0]),
                BoundaryAt0(), BoundaryAt1())]
    events = []
    for k in range(1, n + 1):
        level = base * Fraction(k, 2 * n + 2)
        slide_r = Fraction(6 * (k - 1) + 2, 6 * n)
        rise_lo = Fraction(6 * (k - 1) + 3, 6 * n)
        rise_hi = Fraction(6 * (k - 1) + 5, 6 * n)
        pts = [(Fraction(0), level), (rise_lo, level),
               (rise_hi, heights[k])]
        if rise_hi < 1:
            pts.append((Fraction(1), heights[k]))
        arcs.append(Arc(ids[k], Piecewise(tuple(pts)),
                        BoundaryAt0(), BoundaryAt1()))
        events.append(EventRecord(
            slide_r, HandleSlide(((ids[k - 1], ids[k], delta_value),))))

    t = CerfTuple(tuple(arcs))
    gamma0 = FlowCounter(0, Fraction(0), events[0].r if events else Fraction(1),
                         SparseMatrix(ring, ids, ids, {}))
    return t, gamma0, tuple(events)
