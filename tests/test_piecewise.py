"""Piecewise-linear profiles: evaluation and crossings agree with references."""

import random
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import randgen
from morseflow.errors import InvalidParameters, OutOfRange
from morseflow.piecewise import (Piecewise, _apart, _range, _side, _walk,
                                 common_knots, crossings, frac)
from morseflow.rings import Z
from morseflow.tracker import Window, wide_window

rationals = st.builds(F, st.integers(-60, 60), st.integers(1, 6))
scan_value = oracles.profile_value


@st.composite
def profiles(draw):
    rs = sorted(draw(st.sets(rationals, min_size=2, max_size=7)))
    vs = draw(st.lists(rationals, min_size=len(rs), max_size=len(rs)))
    return Piecewise(tuple(zip(rs, vs)))


class TestValue:
    @settings(max_examples=150, deadline=None)
    @given(pw=profiles(), t=st.fractions(0, 1))
    def test_agrees_with_linear_scan(self, pw, t):
        pts = pw.points
        queries = [r for r, _ in pts]                        # knots, endpoints
        queries += [(r0 + r1) / 2 for (r0, _), (r1, _) in zip(pts, pts[1:])]
        queries += [r0 + (r1 - r0) * t for (r0, _), (r1, _) in zip(pts, pts[1:])]
        for r in queries:
            assert pw.value(r) == scan_value(pts, r)

    @settings(max_examples=60, deadline=None)
    @given(pw=profiles(), gap=st.builds(F, st.integers(1, 50), st.integers(1, 7)))
    def test_outside_the_domain_is_an_error(self, pw, gap):
        for r in (pw.r_lo - gap, pw.r_hi + gap):
            with pytest.raises(OutOfRange):
                pw.value(r)

    def test_repeated_values_and_integer_arguments(self):
        pw = Piecewise(((0, 3), (F(1, 2), 3), (1, 7)))
        assert pw.value(0) == 3 and pw.value(F(1, 4)) == 3
        assert pw.value(F(3, 4)) == 5 and pw.value(1) == 7


# knots on a coarse grid and values from a short list, so that profiles
# share knots, coincide on whole segments and meet at knots often
GRID = [F(i, 8) for i in range(9)]


@st.composite
def grid_profiles(draw):
    rs = sorted(draw(st.sets(st.sampled_from(GRID), min_size=2, max_size=6)))
    vs = draw(st.lists(st.integers(-2, 2), min_size=len(rs), max_size=len(rs)))
    return Piecewise(tuple(zip(rs, vs)))


@st.composite
def profile_pairs(draw):
    """Two grid profiles and a range: None, part of the common domain, or
    one point of it (a knot, or halfway between two)."""
    f, g = draw(grid_profiles()), draw(grid_profiles())
    lo, hi = max(f.r_lo, g.r_lo), min(f.r_hi, g.r_hi)
    if lo > hi or draw(st.booleans()):
        return f, g, None, None
    inner = [r for r in GRID if lo <= r <= hi]
    inner += [r + F(1, 16) for r in inner if r < hi]
    a, b = sorted(draw(st.lists(st.sampled_from(inner), min_size=2, max_size=2)))
    if draw(st.booleans()):
        b = a
    return f, g, a, b


class TestCrossings:
    @settings(max_examples=400, deadline=None)
    @given(pair=profile_pairs())
    def test_agrees_with_the_per_knot_reference(self, pair):
        f, g, lo, hi = pair
        assert crossings(f, g, lo, hi) == oracles.crossings(f, g, lo, hi)

    @settings(max_examples=200, deadline=None)
    @given(pair=profile_pairs())
    def test_differences_are_the_values_at_the_common_knots(self, pair):
        f, g, lo, hi = pair
        lo = max(f.r_lo, g.r_lo) if lo is None else lo
        hi = min(f.r_hi, g.r_hi) if hi is None else hi
        ks, nums, dens = _walk(f, g, lo, hi)
        assert ks == common_knots(f, g, lo, hi)
        assert [F(n, d) for n, d in zip(nums, dens)] == [
            f.value(k) - g.value(k) for k in ks]

    def test_differences_outside_a_domain_is_an_error(self):
        f = Piecewise(((0, 1), (F(1, 2), 2)))
        g = Piecewise.constant(0)
        with pytest.raises(OutOfRange):
            _walk(f, g, 0, 1)
        with pytest.raises(OutOfRange):
            _walk(g, f, -1, F(1, 4))

    def test_one_point_range(self):
        f = Piecewise(((0, 0), (1, 2)))
        g = Piecewise.constant(1)
        assert crossings(f, g, F(1, 2), F(1, 2)) == [F(1, 2)]
        assert crossings(f, g, F(1, 4), F(1, 4)) == []
        assert crossings(f, g, 1, 1) == []

    def test_coincident_segment_reported_by_its_ends(self):
        f = Piecewise(((0, 0), (F(1, 4), 1), (F(3, 4), 1), (1, 0)))
        g = Piecewise.constant(1)
        assert crossings(f, g) == [F(1, 4), F(3, 4)]
        assert crossings(f, g, F(1, 2), F(1, 2)) == [F(1, 2)]


def sign(x):
    return (x > 0) - (x < 0)


class TestSide:
    @settings(max_examples=300, deadline=None)
    @given(pair=profile_pairs())
    def test_agrees_with_a_midpoint_probe(self, pair):
        """At each common knot, on each side with a common neighbour,
        the sign of f - g halfway to the nearest knot of either profile
        or crossing of the two; at a shared end, None."""
        f, g, _, _ = pair
        lo, hi = max(f.r_lo, g.r_lo), min(f.r_hi, g.r_hi)
        ks = common_knots(f, g, lo, hi)
        stops = sorted(set(ks) | set(oracles.crossings(f, g, lo, hi)))
        for i, k in enumerate(ks):
            at = stops.index(k)
            for after, j in ((True, i + 1), (False, i - 1)):
                if 0 <= j < len(ks):
                    m = (k + stops[at + 1 if after else at - 1]) / 2
                    assert _side(f, g, k, after) == sign(f.value(m) - g.value(m))
                else:
                    assert _side(f, g, k, after) is None

    def test_tie_at_r_broken_beside_it(self):
        f = Piecewise(((0, 0), (1, 2)))
        g = Piecewise.constant(1)
        assert _side(f, g, F(1, 2)) == 1
        assert _side(f, g, F(1, 2), after=False) == -1
        assert _side(g, f, F(1, 2)) == -1

    def test_coincident_segments_give_zero(self):
        f = Piecewise(((0, 0), (F(1, 4), 1), (F(3, 4), 1), (1, 0)))
        g = Piecewise.constant(1)
        assert _side(f, g, F(1, 4)) == 0 and _side(f, g, F(3, 4), False) == 0
        assert _side(f, g, F(1, 2)) == 0 and _side(f, g, F(1, 2), False) == 0
        assert _side(f, g, F(1, 4), False) == -1 and _side(f, g, F(3, 4)) == -1

    def test_outside_a_domain_or_at_a_shared_end_is_an_error(self):
        f = Piecewise(((F(1, 4), 1), (F(1, 2), 2)))
        g = Piecewise.constant(0)
        for r, after in ((0, True), (F(3, 4), False), (F(1, 8), False),
                         (F(1, 2), True), (F(1, 4), False), (1, True)):
            assert _side(f, g, r, after) is None
        assert _side(f, g, F(1, 4)) == 1 and _side(f, g, F(1, 2), False) == 1


# exact numbers far from 1 and with coprime denominators, where integer
# cross products grow widest: the kernel must agree with plain Fraction
# arithmetic on every one
SCALES = [F(1, 10**30), F(1), F(10**30)]
DENOMINATORS = [1, 2, 3, 5, 7, 11, 13, 10**30 + 57]


def scaled(scale):
    return st.builds(lambda n, d: scale * F(n, d), st.integers(-40, 40),
                     st.sampled_from(DENOMINATORS))


@st.composite
def scaled_pairs(draw):
    """Two profiles whose knots come from one shared pool at one scale and
    whose values come from another shared pool at another scale, so that
    knots coincide and values tie often; and a range as in profile_pairs."""
    knots = draw(st.lists(scaled(draw(st.sampled_from(SCALES))),
                          min_size=2, max_size=9, unique=True))
    values = draw(st.lists(scaled(draw(st.sampled_from(SCALES))),
                           min_size=1, max_size=4))

    def profile():
        rs = sorted(draw(st.sets(st.sampled_from(knots), min_size=2, max_size=6)))
        vs = draw(st.lists(st.sampled_from(values), min_size=len(rs),
                           max_size=len(rs)))
        return Piecewise(tuple(zip(rs, vs)))
    f, g = profile(), profile()
    lo, hi = max(f.r_lo, g.r_lo), min(f.r_hi, g.r_hi)
    if lo > hi or draw(st.booleans()):
        return f, g, None, None
    inner = sorted(k for k in knots if lo <= k <= hi)
    inner += [(k0 + k1) / 2 for k0, k1 in zip(inner, inner[1:])]
    a, b = sorted(draw(st.lists(st.sampled_from(inner), min_size=2, max_size=2)))
    return f, g, a, (a if draw(st.booleans()) else b)


class TestIntegerKernel:
    @settings(max_examples=400, deadline=None)
    @given(pair=scaled_pairs())
    def test_crossings_agree_with_fraction_reference(self, pair):
        f, g, lo, hi = pair
        assert crossings(f, g, lo, hi) == oracles.crossings(f, g, lo, hi)

    @settings(max_examples=300, deadline=None)
    @given(pair=scaled_pairs())
    def test_differences_are_fraction_values_at_common_knots(self, pair):
        f, g, lo, hi = pair
        lo = max(f.r_lo, g.r_lo) if lo is None else lo
        hi = min(f.r_hi, g.r_hi) if hi is None else hi
        ks, nums, dens = _walk(f, g, lo, hi)
        assert ks == common_knots(f, g, lo, hi)
        assert all(d > 0 for d in dens)
        assert [F(n, d) for n, d in zip(nums, dens)] == [
            scan_value(f.points, k) - scan_value(g.points, k) for k in ks]

    @settings(max_examples=200, deadline=None)
    @given(pair=scaled_pairs(), t=st.fractions(0, 1))
    def test_value_agrees_with_fraction_reference(self, pair, t):
        f = pair[0]
        pts = f.points
        for (r0, _), (r1, _) in zip(pts, pts[1:]):
            for r in (r0, r1, r0 + (r1 - r0) * t):
                v = f.value(r)
                assert isinstance(v, F) and v == scan_value(pts, r)
                assert f.contains(r)
        assert not f.contains(f.r_lo - F(1, 10**30 + 57))
        assert not f.contains(f.r_hi + F(1, 10**30 + 57))

    def test_empty_and_reversed_ranges(self):
        f = Piecewise(((0, 0), (1, 2)))
        g = Piecewise(((F(1, 2), 5), (2, 5)))
        assert _walk(f, g, F(3, 4), F(1, 2)) == ([], [], [])
        assert crossings(f, g, F(3, 4), F(1, 2)) == []
        assert crossings(f, Piecewise(((2, 0), (3, 0)))) == []


def assert_range_sound(f, g):
    """_range is the least and greatest point value; a nonzero _apart is
    the strict sign of every difference the walk finds."""
    for pw in (f, g):
        vs = [v for _, v in pw.points]
        assert [F(*x) for x in _range(pw)] == [min(vs), max(vs)]
    s = _apart(_range(f), _range(g))
    assert _apart(_range(g), _range(f)) == -s
    if s and max(f.r_lo, g.r_lo) <= min(f.r_hi, g.r_hi):
        assert all(sign(d) == s for d in _walk(f, g, None, None)[1])


class TestRange:
    @settings(max_examples=400, deadline=None)
    @given(pair=profile_pairs())
    def test_apart_ranges_fix_the_sign_on_grid_profiles(self, pair):
        assert_range_sound(*pair[:2])

    @settings(max_examples=200, deadline=None)
    @given(pair=scaled_pairs())
    def test_apart_ranges_fix_the_sign_at_scale(self, pair):
        assert_range_sound(*pair[:2])

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_apart_ranges_fix_the_sign_on_randgen_arcs(self, seed, data):
        profiles = [a.f3 for a in randgen.random_scenario(
            random.Random(seed), Z).family.arcs]
        f = data.draw(st.sampled_from(profiles))
        g = data.draw(st.sampled_from(profiles))
        assert_range_sound(f, g)

    @pytest.mark.parametrize("seed", range(40))
    def test_branches_meeting_at_a_vertex_touch(self, seed):
        t = randgen.random_scenario(random.Random(seed), Z).family
        for v in t.vertices:
            plus, minus = t.arc(v.plus_arc).f3, t.arc(v.minus_arc).f3
            assert _apart(_range(plus), _range(minus)) == 0
            assert _apart(_range(minus), _range(plus)) == 0

    def test_touching_ranges_decide_nothing(self):
        f = Piecewise(((0, 1), (F(1, 2), 3), (1, 2)))
        g = Piecewise(((0, 1), (1, -1)))          # f.min == g.max, at r = 0
        h = Piecewise(((F(1, 2), 0), (1, F(1, 2))))
        assert _range(f) == ((1, 1), (3, 1))
        assert _range(h) == ((0, 1), (1, 2))
        assert _apart(_range(f), _range(g)) == 0
        assert _apart(_range(g), _range(f)) == 0
        assert crossings(f, g) == [0]
        assert _apart(_range(f), _range(h)) == 1
        assert _apart(_range(h), _range(f)) == -1
        assert _apart(_range(h), _range(g)) == 0        # they overlap
        # apart over the whole domain, though the lives share one point
        k = Piecewise(((1, 9), (2, 9)))
        assert _apart(_range(k), _range(f)) == 1 and crossings(k, f) == []


def integer_pairs(pw):
    return tuple(r.as_integer_ratio() + v.as_integer_ratio()
                 for r, v in pw.points)


class TestIntegerPoints:
    @pytest.mark.parametrize("seed", range(20))
    def test_ints_are_the_points_integer_ratios(self, seed):
        t = randgen.random_scenario(random.Random(seed), Z).family
        cutoffs = [c for w in (wide_window(t), Window.constant(F(-7, 3), 200))
                   for c in (w.a, w.b)]
        for pw in [a.f3 for a in t.arcs] + cutoffs:
            assert pw.ints == integer_pairs(pw)
            assert pw.ints is pw.ints

    def test_ints_are_no_field(self):
        """A profile built from integers equals one built from Fractions,
        with the same hash and repr, whether or not ints was read."""
        f = Piecewise(((0, 3), (F(1, 2), -1), (1, F(7, 2))))
        g = Piecewise(((F(0), F(3)), (F(1, 2), F(-1)), (F(1), F(7, 2))))

        def looks():
            return f == g, hash(f) == hash(g), repr(f) == repr(g), repr(f)
        before = looks()
        assert before[:3] == (True, True, True)
        assert f.ints == g.ints == ((0, 1, 3, 1), (1, 2, -1, 1), (1, 1, 7, 2))
        assert looks() == before
        assert "ints" not in Piecewise._fields

    def test_replace_reads_the_new_points(self):
        f = Piecewise(((0, 1), (1, 2)))
        assert f.ints == ((0, 1, 1, 1), (1, 1, 2, 1))
        g = f._replace(points=((0, F(1, 3)), (F(1, 2), 5)))
        assert g.ints == ((0, 1, 1, 3), (1, 2, 5, 1))
        assert g.value(F(1, 4)) == F(8, 3) and not g.contains(1)
        assert f.ints == ((0, 1, 1, 1), (1, 1, 2, 1))

    def test_equal_profiles_hash_by_their_integer_points(self):
        """A profile hashes as its integer points, so however a value is
        written, equal profiles hash equal."""
        forms = [Piecewise(((0, "1/2"), ("1/3", 0.5), (1, -2))),
                 Piecewise(((0, 0.5), (F(2, 6), F(2, 4)), (1, "-2"))),
                 Piecewise(((F(0), F(2, 4)), (F(1, 3), F(1, 2)), (1, -2)))]
        for pw in forms:
            assert pw == forms[0] and hash(pw) == hash(forms[0])
            assert hash(pw) == hash(pw.ints)
        assert len({*forms}) == 1
        w1 = Window(forms[0], Piecewise.constant(7))
        w2 = Window(forms[2], Piecewise.constant(F(14, 2)))
        assert w1 is not w2 and w1 == w2 and hash(w1) == hash(w2)


def three_pass(points):
    """The constructor as three passes, the reference for the one-pass
    Piecewise: every point converted, then the count tested, then each
    pair of consecutive integer points.  Returns (points, ints).  Each
    point is read by Fraction itself, not by frac, so that the test
    checks Piecewise's conversion too."""
    def convert(x):
        if isinstance(x, F):
            return x
        try:
            return F(x)
        except (TypeError, ValueError, OverflowError, ZeroDivisionError):
            raise InvalidParameters("not an exact number: %r" % (x,)) from None

    pts = tuple((convert(r), convert(v)) for r, v in points)
    if len(pts) < 2:
        raise InvalidParameters("need at least two breakpoints")
    ints = tuple(r.as_integer_ratio() + v.as_integer_ratio() for r, v in pts)
    for p, q in zip(ints, ints[1:]):
        if not p[0] * q[1] < q[0] * p[1]:
            raise InvalidParameters(
                "breakpoints must be strictly increasing in r")
    return pts, ints


def spellings(x):
    """The ways a caller may write the Fraction x: itself, a string, and
    an int, a bool or a float where one is exact."""
    forms = [x, str(x)]
    if x.denominator == 1:
        forms.append(int(x))
        if x in (0, 1):
            forms.append(bool(x))
    if x.denominator & (x.denominator - 1) == 0:
        forms.append(float(x))
    return st.sampled_from(forms)


NOT_NUMBERS = ["x", "1/0", None, float("nan"), float("inf"), (1, 2)]


@st.composite
def point_lists(draw):
    """0 to 6 points, each number spelled one of several ways; often out
    of order (a repeated or swapped r), and often with one value that is
    not a number."""
    rs = sorted(draw(st.sets(rationals, max_size=6)))
    if rs and draw(st.booleans()):
        i = draw(st.integers(0, len(rs) - 1))
        if i and draw(st.booleans()):
            rs[i - 1], rs[i] = rs[i], rs[i - 1]
        else:
            rs.insert(i, rs[i])
    vs = draw(st.lists(rationals, min_size=len(rs), max_size=len(rs)))
    pts = [[draw(spellings(r)), draw(spellings(v))] for r, v in zip(rs, vs)]
    if pts and draw(st.booleans()):
        i = draw(st.integers(0, len(pts) - 1))
        pts[i][draw(st.integers(0, 1))] = draw(st.sampled_from(NOT_NUMBERS))
    return tuple(tuple(p) for p in pts)


def error(fn, *args):
    """(type, message) of the error fn(*args) raises, or None."""
    try:
        fn(*args)
    except Exception as e:
        return type(e), str(e)
    return None


class TestConstructor:
    @settings(max_examples=300, deadline=None)
    @given(points=point_lists())
    def test_one_pass_matches_the_three_pass_reference(self, points):
        want = error(three_pass, points)
        assert error(Piecewise, points) == want
        if want is not None:
            return
        pts, ints = three_pass(points)
        pw = Piecewise(points)
        assert pw.points == pts and pw.ints == ints
        assert all(type(x) is F for p in pw.points for x in p)
        assert hash(pw) == hash(ints)
        assert pw == Piecewise(pts) and hash(pw) == hash(Piecewise(pts))

    def test_errors_and_their_precedence(self):
        """A value that is not a number is reported before too few points
        or an order error, wherever it stands; too few points before the
        order is read."""
        order = (InvalidParameters,
                 "breakpoints must be strictly increasing in r")
        few = (InvalidParameters, "need at least two breakpoints")
        assert error(Piecewise, ((0, 1), (0, 2))) == order
        assert error(Piecewise, ((1, 1), (0, 2), (2, 3))) == order
        assert error(Piecewise, ((0, 1),)) == few
        assert error(Piecewise, ()) == few
        bad_literal = error(frac, "x")
        assert bad_literal == (InvalidParameters, "not an exact number: 'x'")
        assert error(Piecewise, ((0, 1), (0, 2), (1, "x"))) == bad_literal
        assert error(Piecewise, ((1, 1), (0, "x"))) == bad_literal
        assert error(Piecewise, (("x", 1),)) == bad_literal
        none = error(frac, None)
        assert none == (InvalidParameters, "not an exact number: None")
        assert error(Piecewise, ((0, 1), (0, 2), (1, None))) == none

    def test_frac_returns_a_fraction(self):
        x = F(3, 4)
        assert frac(x) is x

        class Sub(F):
            pass
        y = Sub(1, 3)
        assert frac(y) is y
        for given_, want in ((5, F(5)), (-7, F(-7)), (True, F(1)),
                             (False, F(0)), ("3/4", F(3, 4)), (0.5, F(1, 2)),
                             (" -3/4 ", F(-3, 4)), ("1e90", F(10 ** 90)),
                             (0.1, F(3602879701896397, 2 ** 55))):
            got = frac(given_)
            assert type(got) is F and got == want
        for refused in (float("nan"), float("-inf"), None, "1e100", (),
                        Decimal(1)):
            with pytest.raises(InvalidParameters):
                frac(refused)
