"""Piecewise-linear profiles: evaluation agrees with a linear scan."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseflow.piecewise import Piecewise

rationals = st.builds(F, st.integers(-60, 60), st.integers(1, 6))


def scan_value(points, r):
    """Reference: the first piece whose closed span holds r, interpolated."""
    for (r0, v0), (r1, v1) in zip(points, points[1:]):
        if r0 <= r <= r1:
            if r == r0:
                return v0
            if r == r1:
                return v1
            return v0 + (v1 - v0) * (r - r0) / (r1 - r0)
    raise ValueError("outside the domain")


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
            with pytest.raises(ValueError):
                pw.value(r)

    def test_repeated_values_and_integer_arguments(self):
        pw = Piecewise(((0, 3), (F(1, 2), 3), (1, 7)))
        assert pw.value(0) == 3 and pw.value(F(1, 4)) == 3
        assert pw.value(F(3, 4)) == 5 and pw.value(1) == 7
