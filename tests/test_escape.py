import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import randgen
from fixtures import chord, three_lane_tuple, within
from morseflow.algebra import homology
from morseflow.bifurcation import FlowCounter, evolve
from morseflow.cerf import CerfTuple, validate_cerf
from morseflow import escape
from morseflow.cli import main
from morseflow.errors import (MAX_LITERAL_DIGITS, EmptyTrace,
                              InvalidParameters, MorseflowError,
                              PrecisionExhausted, ScenarioError,
                              UnsupportedFamily, ZeroClass)
from morseflow.escape import (NEG_INF, EscapeBudget, GrowthBound,
                              budget_for_heights, build_cascade, check_H1,
                              check_H2, escape_budget, iterlog, linear,
                              polylog, square)
from morseflow.matrix import SparseMatrix
from morseflow.rings import Q, Z, Z2
from morseflow.scenario import parse_phi, parse_scenario
from morseflow.tracker import (SpectralTrace, Window, track_class,
                               wide_window, window_violation)

INF = float("inf")


def reciprocal(c=1):
    # Phi(s) = c / |s|, the classic admissible shape
    return polylog(c, -1, gap=(-1, 1))


def tuple_of(*arcs):
    return CerfTuple(tuple(arcs))


def cascade_trace(n, ring=Z2, **kw):
    t, fc0, events = build_cascade(n, ring=ring, **kw)
    log = evolve(fc0, events, t)
    return t, track_class({"c1": ring.one}, log, wide_window(t))


class TestGrowthBound:
    def test_integer_power_values_are_exact(self):
        phi = linear(F(3, 2))
        assert phi.value(4) == F(6)
        assert isinstance(phi.value(4), F)
        assert square(F(1, 2)).value(-6) == F(18)
        assert reciprocal(2).value(8) == F(1, 4)

    def test_value_at_zero(self):
        assert square(5).value(0) == 0
        assert polylog(7, 0, gap=(0, 0)).value(0) == 7
        assert reciprocal().value(0) == INF

    def test_log_factor_value(self):
        phi = iterlog(2, 1)
        s = 10
        assert phi.value(s) == pytest.approx(2 * s * math.log(s))
        deep = iterlog(1, 2)
        assert deep.value(40) == pytest.approx(
            40 * math.log(40) * math.log(math.log(40)))

    @pytest.mark.parametrize("p, logs, expect", [
        (F(1, 2), (), True),      # subcritical power
        (-2, (), True),           # inverse square
        (2, (), False),           # supercritical
        (1, (), True),            # exactly critical
        (1, (1, 1), True),        # critical with unit logs
        (1, (1, 2), False),       # first non-unit log exponent > 1
        (1, (1, F(1, 2)), True),  # first non-unit log exponent < 1
        (1, (F(3, 2),), False),
    ])
    def test_divergence_decision(self, p, logs, expect):
        thr = {0: 1, 1: 2, 2: 3}[len(logs)]
        phi = polylog(1, p, logs, gap=(-thr, thr))
        assert phi.diverges_at_infinity() is expect

    @pytest.mark.parametrize("build", [
        lambda: linear(0),
        lambda: linear(-2),
        lambda: polylog(1, 1, (-1,), gap=(-2, 2)),
        lambda: iterlog(1, 0),
        lambda: iterlog(1, 5),
        lambda: iterlog(1, F(2)),               # whole, but not an int
        lambda: iterlog(1, 2.0),
        lambda: iterlog(1, True),
        lambda: linear(1, gap=(1, 2)),          # gap misses 0
        lambda: iterlog(1, 1, gap=(-1, 1)),     # gap below log threshold
        lambda: GrowthBound(1, 1, (1,) * 5, (-INF, INF)),
        lambda: polylog(1, 1, logs=None),       # no sequence
        lambda: polylog(1, 1, logs=5),
        lambda: GrowthBound(1, 1, None, (-2, 2)),
        lambda: polylog(1, 1, logs=("x",)),     # no number
        lambda: polylog(1, 1, logs="1"),        # text, not a sequence
    ])
    def test_rejected_parameters(self, build):
        with pytest.raises(InvalidParameters):
            build()

    @pytest.mark.parametrize("gap", [(1, 2, 3), (-1,), (), None, 0])
    def test_gap_that_is_not_a_pair(self, gap):
        with pytest.raises(InvalidParameters, match="pair"):
            GrowthBound(1, 1, (), gap)
        if gap is not None:
            with pytest.raises(InvalidParameters, match="pair"):
                linear(1, gap=gap)

    def test_iterlog_default_gaps_clear_the_thresholds(self):
        assert iterlog(1, 1).gap == (F(-2), F(2))
        assert iterlog(1, 2).gap == (F(-3), F(3))
        assert iterlog(1, 3).gap == (F(-16), F(16))
        thr = iterlog(1, 4).gap[1]
        assert math.log(math.log(math.log(math.log(float(thr))))) > 0


class TestAntiderivatives:
    def test_square_cost_exact(self):
        phi = square(F(1, 3))
        assert phi.cost(2, 10) == F(6, 5)   # 3 * (1/2 - 1/10)
        assert isinstance(phi.cost(2, 10), F)

    def test_reciprocal_cost_exact(self):
        # integrating |s| / c gives a rational quadratic
        phi = reciprocal(2)
        assert phi.cost(1, 5) == F(25 - 1, 4)

    @pytest.mark.parametrize("phi, lo, hi", [
        (linear(F(5, 2)), 1, 9),
        (square(F(1, 3)), 2, 10),
        (reciprocal(3), 1, 6),
        (polylog(2, F(3, 2), gap=(-1, 1)), 1, 25),
        (iterlog(1, 1), 2, 40),
        (iterlog(F(1, 2), 2), 3, 50),
    ])
    def test_cost_matches_quadrature(self, phi, lo, hi):
        got = float(phi.cost(lo, hi))
        want = oracles.simpson(lambda s: 1.0 / float(phi.value(s)),
                               lo, hi, n=20000)
        assert got == pytest.approx(want, rel=1e-7)

    def test_cost_zero_width_and_order(self):
        phi = linear(1)
        assert phi.cost(3, 3) == 0
        with pytest.raises(InvalidParameters):
            phi.cost(5, 3)

    @pytest.mark.parametrize("lo, hi", [("a", 2), (2, "a"), (None, 2),
                                        (2, INF), (2, 10 ** 400)])
    def test_cost_reads_its_ends_through_frac(self, lo, hi):
        with pytest.raises(InvalidParameters):
            linear(1).cost(lo, hi)
        assert linear(1).cost("2", 4.0) == linear(1).cost(2, 4)

    def test_cost_from_zero_under_superlinear_bound_is_infinite(self):
        assert square(1).cost(0, 5) == INF
        assert square(1).cost(-1, 0) == INF

    def test_cost_below_and_across_zero_reads_phi_as_even(self):
        # a climb below 0 costs its mirror image's, and one across 0 the
        # sum of its two halves, each from 0
        assert linear(1).cost(-4, -1) == pytest.approx(math.log(4))
        assert square(1).cost(-1, 2) == INF
        assert square(F(1, 3)).cost(-10, -2) == F(6, 5)
        root = polylog(1, F(1, 2), gap=(-1, 1))
        assert root.cost(-4, -1) == root.cost(1, 4) == pytest.approx(2)
        assert isinstance(root.cost(-4, -1), float)
        assert root.cost(-4, 1) == pytest.approx(6)
        assert iterlog(1, 1).cost(-40, -2) == iterlog(1, 1).cost(2, 40)
        assert iterlog(1, 1).cost(-2, 2) == INF

    def test_tail_integral_square_exact(self):
        phi = square(F(2, 7))
        assert phi.tail_integral(3) == F(7, 6)   # 1 / (c * m)
        assert phi.tail_integral(0) == INF

    def test_tail_integral_divergent_families(self):
        assert linear(1).tail_integral(5) == INF
        assert iterlog(1, 2).tail_integral(10) == INF
        assert reciprocal().tail_integral(1) == INF

    def test_cost_where_the_iterated_logs_are_undefined_is_infinite(self):
        # log log s needs s > 1, and log log log s needs s > e: a lower
        # end below that is not integrable, and one above it is
        assert iterlog(1, 1).cost(F(1, 2), 5) == INF
        assert iterlog(1, 2).cost(2, 20) == INF
        assert iterlog(1, 1).cost(F(3, 2), 5) == pytest.approx(
            math.log(math.log(5)) - math.log(math.log(1.5)))

    def test_tail_integral_unregistered_family(self):
        phi = polylog(1, 2, (1,), gap=(-2, 2))
        assert not phi.diverges_at_infinity()
        with pytest.raises(UnsupportedFamily) as e:
            phi.tail_integral(5)
        assert str(e.value) == (
            "no closed-form tail registered for p=2, logs=(1)")


class TestParsePhi:
    @pytest.mark.parametrize("text, label, coeff", [
        ("linear(c=2.0)", "linear", F(2)),
        ("square(c=0.5)", "square", F(1, 2)),
        ("iterlog(c=1.0, depth=2)", "iterlog", F(1)),
        ("polylog(c=3/4, p=-1, gap=(-1, 1))", "polylog", F(3, 4)),
    ])
    def test_happy_forms(self, text, label, coeff):
        phi = parse_phi(text)
        assert phi.label == label
        assert phi.coefficient == coeff

    def test_gap_keyword(self):
        phi = parse_phi("linear(c=2, gap=(-3, 7/2))")
        assert phi.gap == (F(-3), F(7, 2))

    def test_iterlog_depth_parsed(self):
        assert parse_phi("iterlog(c=1, depth=3)").log_powers == (1, 1, 1)

    @pytest.mark.parametrize("text", [
        "cubic(c=1)",
        "linear(2)",
        "linear(c=two)",
        "iterlog(c=1)",
        "linear",
    ])
    def test_rejected_syntax(self, text):
        with pytest.raises(ScenarioError):
            parse_phi(text)

    @pytest.mark.parametrize("text", ["linear(c=1/0)", "linear(c=1, gap=(a, 1))",
                                      "linear(c=1, gap=(-1, 1/0))"])
    def test_bad_numbers_are_reported_not_raised_raw(self, text):
        with pytest.raises(ScenarioError, match="not an exact number"):
            parse_phi(text)

    def test_literal_digit_limit(self):
        big = "7" * MAX_LITERAL_DIGITS
        assert parse_phi("linear(c=%s, gap=(-%s, 1))" % (big, big)).coefficient == int(big)
        for text in ("linear(c=7%s)" % big, "linear(c=1, gap=(-7%s, 1))" % big,
                     "square(c=1e%d)" % (MAX_LITERAL_DIGITS - 2)):
            with pytest.raises(ScenarioError, match="digits"):
                parse_phi(text)


class TestCheckH1:
    def test_reciprocal_bound_admits_gentle_arcs(self):
        t = tuple_of(chord("a1", [(0, 2), (1, F(9, 4))]),
                     chord("a2", [(0, -3), (1, F(-16, 5))]))
        rep = check_H1(reciprocal(), t)
        assert rep.ok and rep.slope_ok and rep.divergence_ok
        assert [f.code for f in rep.findings] == ["summary"]

    def test_steep_arc_inside_the_gap_is_exempt(self):
        t = tuple_of(chord("a1", [(0, F(-1, 2)), (1, F(1, 2))]))
        assert check_H1(reciprocal(), t).ok

    def test_slope_violation_is_located(self):
        t = tuple_of(chord("ok", [(0, 2), (1, 2)]),
                     chord("bad", [(0, 2), (1, 4)]))
        rep = check_H1(reciprocal(), t)
        assert not rep.ok and not rep.slope_ok
        errs = [f for f in rep.findings if f.code == "slope-bound"]
        assert len(errs) == 1
        assert "bad" in errs[0].message and "piece 0" in errs[0].message

    def test_binding_point_on_decreasing_side(self):
        # bound decays with height, so the high endpoint decides:
        # the same slope passes low down and fails higher up
        low = tuple_of(chord("a1", [(0, 2), (1, F(7, 3))]))
        assert check_H1(reciprocal(), low).ok
        high = tuple_of(chord("a1", [(0, 6), (1, F(19, 3))]))
        assert not check_H1(reciprocal(), high).ok

    def test_square_bound_fails_only_divergence_on_flat_arcs(self):
        t = tuple_of(chord("a1", [(0, 5), (1, 5)]),
                     chord("a2", [(0, -2), (1, -2)]))
        rep = check_H1(square(1), t)
        assert rep.slope_ok and not rep.divergence_ok and not rep.ok
        codes = sorted(f.code for f in rep.findings)
        assert codes == ["divergence-lower", "divergence-upper"]

    def test_flat_arcs_pass_any_bound(self):
        t = tuple_of(chord("a1", [(0, 100), (1, 100)]))
        for phi in (linear(F(1, 1000)), square(F(1, 1000)), iterlog(1, 2)):
            assert check_H1(phi, t).slope_ok

    @pytest.mark.parametrize("slope, ok", [(23, True), (24, False)])
    def test_log_factor_bound_binds_at_the_low_end(self, slope, ok):
        # s log s grows past the gap, so on a chord rising from 10 its
        # minimum is 10 ln 10 = 23.03: the float branch of the check
        t = tuple_of(chord("a", [(0, 10), (1, 10 + slope)]))
        rep = check_H1(iterlog(1, 1), t)
        assert rep.slope_ok is ok
        assert ("growth bound %s at action 10" % (10 * math.log(10)) in
                "".join(f.message for f in rep.findings)) is not ok

    def test_fractional_power_boundary_is_exact(self):
        # |slope| = 539/500 = Phi(290521/250000) under c |s|^(1/2), while
        # the float square root is 1.0779999999999998
        phi = polylog(1, F(1, 2))
        t = tuple_of(chord("c1", [(0, F(290521, 250000)),
                                  (1, F(560021, 250000))]))
        assert check_H1(phi, t).slope_ok
        steeper = tuple_of(chord("c1", [(0, F(290521, 250000)),
                                        (1, F(560022, 250000))]))
        rep = check_H1(phi, steeper)
        assert not rep.slope_ok
        assert "growth bound 1.0779999999999998 at action" in "".join(
            f.message for f in rep.findings)
        # a decreasing bound binds at the top: |slope| 2/3 = (9/4)^(-1/2)
        phi = polylog(1, F(-1, 2))
        for top, ok in ((F(9, 4), True), (F(9, 4) + F(1, 10 ** 30), False)):
            t = tuple_of(chord("c1", [(0, F(19, 12)), (1, top)]))
            assert check_H1(phi, t).slope_ok is ok

    @settings(max_examples=80, deadline=None)
    @given(q=st.sampled_from([2, 3, 5, 7]), p=st.integers(1, 20),
           y=st.fractions(min_value=F(11, 10), max_value=9,
                          max_denominator=50),
           c=st.fractions(min_value=F(1, 50), max_value=5,
                          max_denominator=50))
    def test_fractional_power_ties_hold(self, q, p, y, c):
        # Phi(y^q) = c y^p exactly, and Phi grows with |s| for p > 0, so
        # an arc climbing from y^q with that slope meets the bound there
        phi = polylog(c, F(p, q))
        slope = c * y ** p
        for extra, ok in ((0, True), (F(1, 10 ** 30), False)):
            t = tuple_of(chord("a", [(0, y ** q), (1, y ** q + slope + extra)]))
            assert check_H1(phi, t).slope_ok is ok

    def test_moderate_root_is_decided(self):
        t = tuple_of(chord("a", [(0, F(5, 2)), (1, F(7, 2))]))
        assert check_H1(polylog(1, F(1, 1000)), t).slope_ok
        assert not check_H1(polylog(F(99, 100), F(1, 1000)), t).slope_ok

    def test_root_past_the_power_cap_raises(self):
        t = tuple_of(chord("a", [(0, F(5, 2)), (1, F(7, 2))]))
        with pytest.raises(PrecisionExhausted):
            check_H1(polylog(1, F(1, 10 ** 7)), t)

    def test_power_cap_counts_the_power_side(self):
        # x = 2 and u = 3 are 3 bits each, numerator and denominator, so
        # with q = 1 the estimate is 3 + 3p: p = 699049 gives 2^21 - 2
        # bits, p = 699050 one past the cap, through the u side alone
        x, u = F(2), F(3)
        assert escape._power_sign(x, u, F(699049)) == -1
        with pytest.raises(PrecisionExhausted):
            escape._power_sign(x, u, F(699050))


class TestPowerCap:
    """Exact integer powers stay within escape.EXACT_POWER_CAP_BITS, so
    the work is bounded and every exact value a report prints turns into
    text."""

    def test_the_three_powers_refuse_a_huge_exponent_at_once(self):
        phi = polylog(1, 10 ** 6)
        with within(5):
            for fn in (lambda: phi.value(2), lambda: phi.cost(2, 3),
                       lambda: phi.tail_integral(2)):
                with pytest.raises(PrecisionExhausted):
                    fn()

    def test_the_estimate_counts_the_coefficient(self):
        # by the estimate 2^p takes 3p bits, c = 1 two and c = 15 five:
        # 6998 and 7001 bits at p = 2332, 7001 at p = 2333
        assert polylog(1, 2332).value(2) == 2 ** 2332
        with pytest.raises(PrecisionExhausted):
            polylog(1, 2333).value(2)
        with pytest.raises(PrecisionExhausted):
            polylog(15, 2332).value(2)

    @pytest.mark.parametrize("lo, hi", [(3, 5), (F(2, 3), F(5, 7)),
                                        (7, 2 ** 61 - 1)],
                             ids=["3 to 5", "2/3 to 5/7", "7 to 2^61 - 1"])
    def test_the_largest_admitted_power_prints(self, lo, hi):
        p = 7000
        while True:
            try:
                cost = polylog(1, p).cost(lo, hi)
                break
            except PrecisionExhausted:
                p -= 1
        assert isinstance(cost, F) and cost > 0
        assert len(str(cost)) > 1000
        assert str(polylog(1, p).tail_integral(hi))

    @pytest.mark.parametrize("n, p", [(6, "100000"), (6, "1000000"),
                                      (12, "3000")])
    def test_escape_exits_4_past_the_cap(self, tmp_path, capsys, n, p):
        assert main(["cascade", "--n", str(n), "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = str(tmp_path / ("cascade%d.scn" % n))
        with within(5):
            code = main(["escape", path, "--phi", "polylog(c=1, p=%s)" % p])
        out, err = capsys.readouterr()
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_power_sign_refusal_states_bit_lengths(self):
        # a base of 5,001 digits is past what Python turns into text, so
        # the message names the operands' sizes, not their values
        with pytest.raises(PrecisionExhausted) as info:
            escape._power_sign(F(10 ** 5000), F(3), F(10 ** 6))
        assert "16611-bit rational" in str(info.value)


class TestFloatPower:
    """A fractional power is taken in floats; one past the range of
    floats raises InvalidParameters, as cost already did."""

    def test_value_and_tail_refuse_an_overflow(self):
        phi = polylog(1, F(2001, 2))
        for fn in (lambda: phi.value(3), lambda: phi.tail_integral(3),
                   lambda: phi.cost(F(1, 4), 1)):
            with pytest.raises(InvalidParameters):
                fn()
        assert polylog(1, F(3, 2)).value(4) == 8.0

    def test_escape_exits_4_on_an_overflow(self, capsys):
        code = main(["escape", "slide", "--phi", "polylog(c=1, p=2001/2)"])
        out, err = capsys.readouterr()
        assert code == 4 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestCheckH2:
    def test_inverse_square_holds_for_every_kappa(self):
        phi = polylog(1, -2, gap=(F(-1, 2), F(1, 2)))
        for kappa in (F(1, 10), F(1), F(100)):
            rep = check_H2(phi, kappa, F(1, 4))
            assert rep.ok
            assert rep.upper_integral == INF and rep.lower_integral == INF
            assert rep.margin == INF

    def test_boundary_case_is_exact(self):
        c, kappa = F(3), F(1, 4)
        rho0 = 1 / (c + c * kappa)
        rep = check_H2(square(c), kappa, rho0)
        assert rep.ok
        assert rep.upper_integral == 1 + kappa
        assert rep.margin == 0 and isinstance(rep.margin, F)

    def test_verdict_flips_across_the_boundary(self):
        c, kappa = F(3), F(1, 4)
        rho0 = 1 / (c + c * kappa)
        eps = F(1, 1000)
        assert check_H2(square(c), kappa, rho0 - eps).ok
        assert not check_H2(square(c), kappa, rho0 + eps).ok

    def test_large_start_fails_every_kappa(self):
        c = F(2)
        for kappa in (F(1, 100), F(1), F(10)):
            rep = check_H2(square(c), kappa, 1)   # rho0 > 1/c
            assert not rep.ok
            assert rep.upper_integral == F(1, 2)
            assert rep.margin == F(1, 2) - (1 + kappa)

    def test_negative_start_binds_the_lower_tail(self):
        c, kappa = F(3), F(1, 4)
        rho0 = -(1 / (c + c * kappa))
        rep = check_H2(square(c), kappa, rho0)
        assert rep.ok and rep.margin == 0
        assert rep.upper_integral == INF
        assert rep.lower_integral == 1 + kappa
        assert rep.lower_threshold == rho0

    def test_fractional_power_tail_boundary_is_exact(self):
        # the upper tail under |s|^(3/2) from (501/500)^2 is exactly
        # 1000/501 = 1 + kappa; the float tail lies just below it
        phi, kappa = polylog(1, F(3, 2)), F(499, 501)
        rep = check_H2(phi, kappa, F(251001, 250000))
        assert rep.ok and rep.margin == 0.0
        assert rep.upper_integral < rep.required
        assert not check_H2(phi, kappa, F(251002, 250000)).ok

    @settings(max_examples=80, deadline=None)
    @given(q=st.sampled_from([2, 3, 5]), p=st.integers(1, 30),
           y=st.fractions(min_value=F(11, 10), max_value=9,
                          max_denominator=50))
    def test_fractional_power_tail_ties_hold(self, q, p, y):
        # with e = p/q, Phi = c |s|^(1 + e) and m = y^q the upper tail
        # 1 / (c e m^e) is exactly 2 when c = 1 / (2 e y^p)
        e = F(p, q)
        phi = polylog(1 / (2 * e * y ** p), 1 + e)
        assert check_H2(phi, 1, y ** q).ok
        assert not check_H2(phi, 1 + F(1, 10 ** 30), y ** q).ok

    def test_kappa_must_be_positive(self):
        with pytest.raises(InvalidParameters):
            check_H2(square(1), 0, F(1, 2))


class TestBudget:
    def test_empty_trace_has_no_budget(self):
        with pytest.raises(EmptyTrace):
            escape_budget(SpectralTrace((), (), "LeftWindow(below)", ()),
                          linear(1))
        # a class wholly below the window floor tracks to an empty trace
        t = three_lane_tuple()
        ids = ("c1", "c2", "c3")
        fc0 = FlowCounter(0, F(0), F(1),
                          SparseMatrix(Z2, ids, ids, {("c2", "c3"): 1}))
        trace = track_class({"c3": 1}, evolve(fc0, [], t),
                            Window.constant(F(3, 2), 10))
        assert trace.segments == () and trace.outcome == "LeftWindow(below)"
        with pytest.raises(EmptyTrace):
            escape_budget(trace, linear(1))

    def test_constant_heights_cost_nothing(self):
        b = budget_for_heights([3, 3, 3], linear(1))
        assert b.total == 0 and b.verdict == "WithinBudget"
        assert b.step_costs == (0, 0)

    def test_doubling_heights_cost_log_two_each(self):
        phi = polylog(1, 1, gap=(-1, 1))    # Phi(s) = |s|
        b3 = budget_for_heights([2, 4, 8], phi)
        assert b3.total == pytest.approx(2 * math.log(2), rel=1e-12)
        assert b3.verdict == "InfeasibleWithinUnitTime"
        b2 = budget_for_heights([2, 4], phi)
        assert b2.total == pytest.approx(math.log(2), rel=1e-12)
        assert b2.verdict == "WithinBudget"
        assert b3.escape_cost_infinite

    def test_square_bound_never_exhausts_the_budget(self):
        phi = square(1)
        heights = [F(2) ** k for k in range(11)]    # 1 .. 1024
        b = budget_for_heights(heights, phi)
        assert b.total == F(1023, 1024)
        assert b.verdict == "WithinBudget"
        assert not b.escape_cost_infinite           # the escape gap

    def test_descending_step_costs_its_rise(self):
        # the fall 5 -> 4 costs what the rise 4 -> 5 does, so the product
        # of the steps' high / low is 5/2 * 5/4 = 25/8 > e
        b = budget_for_heights([2, 5, 4], linear(1))
        assert b.step_costs == (pytest.approx(math.log(F(5, 2)), rel=1e-12),
                                pytest.approx(math.log(F(5, 4)), rel=1e-12))
        assert b.total == pytest.approx(math.log(F(25, 8)), rel=1e-12)
        assert b.verdict == "InfeasibleWithinUnitTime"
        fall = budget_for_heights([5, 4], linear(1))
        assert fall.step_costs == budget_for_heights([4, 5], linear(1)).step_costs

    @pytest.mark.parametrize("gap, start, end, total, verdict", [
        # the dive -1 -> -5 leaves the gap (-1, 5) at -1, so it costs ln 5
        ((-1, 5), -1, -5, math.log(5), "InfeasibleWithinUnitTime"),
        # the dive -2 -> -4 stays inside the gap (-5, 1): it costs nothing
        ((-5, 1), -2, -4, 0, "WithinBudget")],
        ids=["leaving the gap", "inside the gap"])
    def test_a_dive_is_priced_under_the_mirrored_gap(self, gap, start, end,
                                                     total, verdict):
        t = tuple_of(chord("c1", [(0, start), (1, end)]))
        fc0 = FlowCounter(0, F(0), F(1), SparseMatrix(Z2, ["c1"], ["c1"], {}))
        trace = track_class({"c1": Z2.one}, evolve(fc0, (), t),
                            wide_window(t))
        b = escape_budget(trace, linear(1, gap=gap), direction=-1)
        assert b.total == pytest.approx(total, rel=1e-12)
        assert b.verdict == verdict
        # the mirror image of the dive, a climb under the mirrored gap
        mirror = linear(1, gap=(-gap[1], -gap[0]))
        assert b == budget_for_heights([-start, -end], mirror)

    def test_linear_gap_ending_at_zero_prices_by_floats(self):
        # a height clipped to 0 makes no ratio, so the exact path is
        # not taken: ln(2) - ln(0) is infinite
        b = budget_for_heights([0, 2], linear(1, gap=(-1, 0)))
        assert b.total == INF
        assert b.verdict == "InfeasibleWithinUnitTime"
        b = budget_for_heights([2, 0, 2], linear(1, gap=(-1, 0)))
        assert b.total == INF and b.verdict == "InfeasibleWithinUnitTime"

    def test_heights_below_the_gap_are_clipped(self):
        b = budget_for_heights([-5, 3, 8], linear(1))
        assert b.heights == (1, 3, 8)
        assert b.total == pytest.approx(math.log(8), rel=1e-12)

    def test_unborn_start_under_superlinear_bound(self):
        b = budget_for_heights([NEG_INF, 5], square(1))
        assert b.heights == (0, 5)
        assert b.total == INF
        assert b.verdict == "InfeasibleWithinUnitTime"

    def test_trace_budget_and_reflection(self):
        t = tuple_of(chord("c1", [(0, -2), (1, -10)]))
        fc0 = FlowCounter(0, F(0), F(1), SparseMatrix(Z2, ["c1"], ["c1"], {}))
        log = evolve(fc0, (), t)
        trace = track_class({"c1": Z2.one}, log, wide_window(t))
        up = escape_budget(trace, square(1))
        assert up.total == 0                        # sinking costs nothing
        down = escape_budget(trace, square(1), direction=-1)
        assert down.total == F(1, 2) - F(1, 10)
        assert down.verdict == "WithinBudget"

    # continued-fraction convergents of e just above it: the float total
    # rounds to 1.0, the exact cost ln(h) exceeds 1
    @pytest.mark.parametrize("height", [F(438351041, 161260336),
                                        F(22526049624551, 8286870547680)])
    def test_linear_verdict_just_above_e_is_exact(self, height):
        assert oracles.exp_exceeds(height, 1)
        b = budget_for_heights([1, height], linear(1))
        assert b.total == 1.0 and str(b.total) == "1.0"
        assert b.verdict == "InfeasibleWithinUnitTime"
        # the same climb from a higher start, and split into two steps
        b = budget_for_heights([3, 3 * height / 2, 3 * height], linear(1))
        assert b.verdict == "InfeasibleWithinUnitTime"

    @pytest.mark.parametrize("height", [F(410105312, 150869313),
                                        F(848456353, 312129649)])
    def test_linear_verdict_just_below_e_is_exact(self, height):
        assert not oracles.exp_exceeds(height, 1)
        assert budget_for_heights([1, height], linear(1)).verdict == "WithinBudget"

    @settings(max_examples=60, deadline=None)
    @given(num=st.integers(1, 40), den=st.integers(1, 12),
           offset=st.integers(-9, 9), start=st.integers(1, 50))
    def test_linear_verdict_matches_oracle_near_the_boundary(self, num, den,
                                                             offset, start):
        """Heights placed within 10^-30 (relative) of the boundary
        last / first = e^c, against plain Taylor sums in oracles."""
        c = F(num, den)
        near = F(1)
        term = F(1)
        for k in range(1, 200):
            term = term * c / k
            near += term
        q = F(round(near * 10 ** 40) + offset * 10 ** 10, 10 ** 40)
        want = oracles.exp_exceeds(q, c)
        b = budget_for_heights([start, start * q], linear(c))
        assert b.verdict == ("InfeasibleWithinUnitTime" if want
                             else "WithinBudget")

    @settings(max_examples=100, deadline=None)
    @given(num=st.integers(1, 60), den=st.integers(1, 9),
           bits=st.integers(2, 80))
    def test_exp_bounds_bracket_e_to_the_c(self, num, den, bits):
        c = F(num, den)
        lo, hi = escape._exp_bounds(c, bits)
        assert not oracles.exp_exceeds(F(lo, 2 ** bits), c)
        assert oracles.exp_exceeds(F(hi, 2 ** bits), c)

    def test_linear_verdict_past_the_precision_cap_raises(self, monkeypatch):
        near = sum(F(1, math.factorial(k)) for k in range(60))
        q = F(round(near * 2 ** 120), 2 ** 120)         # within 2^-119 of e
        monkeypatch.setattr(escape, "CAP_BITS_PER_INPUT_BIT", 0)
        with pytest.raises(PrecisionExhausted):
            budget_for_heights([1, q], linear(1))
        monkeypatch.undo()
        assert (budget_for_heights([1, q], linear(1)).verdict
                == ("InfeasibleWithinUnitTime" if oracles.exp_exceeds(q, 1)
                    else "WithinBudget"))

    def test_a_total_that_passes_a_step_cost_bits_raises(self):
        # each G(h) = h^-499 / -499 at these 13-bit primes fits the power
        # cap, but a trace that turns sums the coprime denominators
        phi = polylog(1, 500)
        assert budget_for_heights([8191, 8179], phi).total > 0
        with pytest.raises(PrecisionExhausted):
            budget_for_heights([8191, 8179, 8191, 8171, 8191, 8167], phi)

    def test_str_summary(self):
        b = budget_for_heights([2, 4], square(1))
        assert "WithinBudget" in str(b) and "1 steps" in str(b)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_telescoping_and_additivity(self, data):
        hs = data.draw(st.lists(
            st.fractions(min_value=1, max_value=500, max_denominator=40),
            min_size=2, max_size=8, unique=True))
        heights = sorted(hs)
        phi = square(F(1, 3))
        total = budget_for_heights(heights, phi).total
        assert total == phi.cost(heights[0], heights[-1])
        refined = []
        for x, y in zip(heights, heights[1:]):
            refined += [x, (x + y) / 2]
        refined.append(heights[-1])
        assert budget_for_heights(refined, phi).total == total
        k = data.draw(st.integers(min_value=0, max_value=len(heights) - 1))
        left = budget_for_heights(heights[:k + 1], phi).total
        right = budget_for_heights(heights[k:], phi).total
        assert left + right == total


# y is the boundary of x, so the tracked class is zero in the window
ZERO_SCN = """[coefficients]
ring = z2
[arcs]
x : (0, 5) (1, 5)
y : (0, 2) (1, 3)
[gamma]
(x, y) = 1
[window]
a = -1
b = 20
[track]
class = y
[phi]
bound = linear(c=1)
"""
ZERO_ERROR = "the class is zero in the window, so there is no climb to price"


def outcome(fn):
    """fn()'s result, or the class and message of the error it raises."""
    try:
        return fn()
    except MorseflowError as e:
        return type(e), str(e)


class TestZeroClass:
    def test_a_zero_class_has_no_budget(self):
        sc = parse_scenario(ZERO_SCN)
        log = evolve(sc.gamma0, sc.events, sc.family)
        trace = track_class(sc.rep, log, sc.window)
        assert trace.survived and trace.segments
        assert all(s.top is None and s.rho_lo == s.rho_hi == NEG_INF
                   for s in trace.segments)
        with pytest.raises(ZeroClass, match=ZERO_ERROR):
            escape_budget(trace, sc.phi)

    def test_escape_exits_4_on_a_zero_class(self, tmp_path, capsys):
        path = tmp_path / "zero.scn"
        path.write_text(ZERO_SCN, encoding="utf-8")
        assert main(["escape", str(path)]) == 4
        assert capsys.readouterr() == ("", "error: %s\n" % ZERO_ERROR)
        # c3 is the boundary of c2 in the bundled slide
        assert main(["escape", "slide", "--class", "c3",
                     "--phi", "linear(c=1)"]) == 4
        assert capsys.readouterr() == ("", "error: %s\n" % ZERO_ERROR)
        # the same class still tracks and plots
        assert main(["track", str(path)]) == 0
        assert capsys.readouterr().out.endswith("final: -inf\n")
        assert main(["plot", str(path), "--out", str(tmp_path / "svg")]) == 0

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ring=st.sampled_from([Z2, Z, Q]),
           tier=st.booleans())
    def test_random_traces(self, seed, ring, tier):
        """escape_budget raises ZeroClass on every trace with segments and
        no top, and prices every other one from its heights."""
        sc = randgen.random_scenario(random.Random(seed), ring)
        t = sc.family
        log = evolve(sc.gamma0, sc.events, t)
        w = Window.constant(10, 200) if tier else wide_window(t)
        phi = linear(1)
        hs = [{"l1": 1}]
        if any(a.id == "l2" for a in t.arcs):
            hs.append({"l1": 1, "l2": 1})
        for h in hs:
            trace = track_class(h, log, w)
            for direction in (1, -1):
                got = outcome(lambda: escape_budget(trace, phi, direction))
                if not trace.segments:
                    assert got[0] is EmptyTrace
                elif all(s.top is None for s in trace.segments):
                    assert got == (ZeroClass, ZERO_ERROR)
                else:
                    heights = [v if v == NEG_INF else direction * v
                               for s in trace.segments
                               for v in (s.rho_lo, s.rho_hi)]
                    assert got == outcome(
                        lambda: budget_for_heights(heights, phi))


class TestCascade:
    def test_trivial_cascade(self):
        t, fc0, events = build_cascade(0, base=F(7, 2))
        assert events == () and len(t.arcs) == 1
        assert fc0.r_hi == 1
        trace = track_class({"c1": Z2.one},
                            evolve(fc0, events, t), wide_window(t))
        assert trace.survived and trace.transfers == ()
        assert trace.final_value() == F(7, 2)

    def test_single_stage_shape(self):
        t, fc0, events = build_cascade(1)
        assert [a.id for a in t.arcs] == ["c1", "c2"]
        assert t.arcs[0].f3.points == ((0, 1), (1, 1))
        assert t.arcs[1].f3.points == (
            (0, F(1, 4)), (F(1, 2), F(1, 4)), (F(5, 6), 2), (1, 2))
        assert len(events) == 1
        assert events[0].r == F(1, 3)
        assert events[0].payload.delta == (("c1", "c2", 1),)

    def test_single_stage_trace(self):
        _, trace = cascade_trace(1)
        assert trace.survived
        assert trace.transfers == ((F(9, 14), "c1", "c2"),)
        assert trace.final_value() == 2
        reps = [dict(c.representative) for c in trace.classes]
        assert reps == [{"c1": 1}, {"c1": 1, "c2": 1}]

    def test_five_stages_double_five_times(self):
        _, trace = cascade_trace(5)
        assert trace.survived
        assert len(trace.transfers) == 5
        assert trace.final_value() == 32
        lo = trace.segments[0].rho_lo
        hi = trace.segments[-1].rho_hi
        assert (lo, hi) == (1, 32)
        for a, b in zip(trace.segments, trace.segments[1:]):
            assert a.rho_hi == b.rho_lo      # the climb never jumps
            assert a.rho_hi >= a.rho_lo

    def test_exact_transfer_parameters(self):
        _, trace = cascade_trace(2)
        assert trace.transfers == ((F(43, 132), "c1", "c2"),
                                   (F(109, 132), "c2", "c3"))

    def test_integer_coefficients_alternate_sign(self):
        _, trace = cascade_trace(2, ring=Z)
        assert trace.final_value() == 4
        assert trace.classes[-1].representative == (
            ("c1", 1), ("c2", -1), ("c3", 1))

    def test_geometry_parameters_respected(self):
        _, trace = cascade_trace(4, base=F(1, 2), ratio=3)
        assert trace.final_value() == F(81, 2)
        assert len(trace.transfers) == 4

    def test_thirty_stages_pass_the_window_check_and_survive(self):
        # the low lanes clear the floor by 1 while the top lane reaches
        # 2^30: strict clearance is all the window rule asks
        t, trace = cascade_trace(30)
        assert window_violation(wide_window(t), t) is None
        assert trace.survived and len(trace.transfers) == 30
        assert trace.final_value() == 2 ** 30

    @pytest.mark.parametrize("n", [40, 60])
    def test_forty_and_sixty_stages_stay_valid_and_survive(self, n):
        t, trace = cascade_trace(n)
        assert validate_cerf(t).ok
        assert window_violation(wide_window(t), t) is None
        assert trace.survived and len(trace.transfers) == n
        assert trace.final_value() == 2 ** n

    def test_homology_rank_never_moves(self):
        t, fc0, events = build_cascade(3)
        log = evolve(fc0, events, t)
        ranks = {homology(fc.gamma).free_rank for fc in log.intervals}
        assert ranks == {4}

    @pytest.mark.parametrize("kw", [
        {"n": -1},
        {"n": 2, "base": 0},
        {"n": 2, "ratio": 1},
        {"n": 2, "delta_value": 0},
        {"n": 2, "delta_value": 2, "ring": Z2},   # coerces to zero
    ])
    def test_rejected_parameters(self, kw):
        with pytest.raises(InvalidParameters):
            build_cascade(**kw)


def minimal_admissible_linear(t, gap=(F(-1), F(1))):
    """Least c making Phi(s) = c|s| satisfy the slope bound on t.

    Valid for tuples whose action values are positive: the bound grows
    with height, so each piece binds at the low end of its non-exempt
    range.
    """
    b = gap[1]
    c = F(0)
    for arc in t.arcs:
        pts = arc.f3.points
        for (r0, v0), (r1, v1) in zip(pts, pts[1:]):
            slope = abs((v1 - v0) / (r1 - r0))
            if slope == 0:
                continue
            smax = max(v0, v1)
            if smax <= b:
                continue
            lo = max(min(v0, v1), b)
            c = max(c, slope / lo)
    return linear(c, gap=gap)


class TestCascadeBudgetBounds:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_admissible_bound_keeps_cost_within_unit_time(self, n):
        t, trace = cascade_trace(n)
        phi = minimal_admissible_linear(t)
        assert check_H1(phi, t).ok
        b = escape_budget(trace, phi)
        assert b.total <= 1 + 1e-9
        assert b.escape_cost_infinite

    def test_inadmissible_bound_is_outrun(self):
        t, trace = cascade_trace(5)
        phi = polylog(1, 1, gap=(-1, 1))    # Phi(s) = |s|
        assert not check_H1(phi, t).slope_ok
        b = escape_budget(trace, phi)
        assert b.total > 1
        assert b.verdict == "InfeasibleWithinUnitTime"

    def test_every_ceiling_is_cleared_by_some_stage(self):
        # the finite stages jointly certify unbounded climb
        for ceiling in (10, 100, 1000):
            n = 1
            while True:
                _, trace = cascade_trace(n)
                if trace.final_value() > ceiling:
                    break
                n += 1
            assert trace.final_value() == 2 ** n


class TestGrowthArgument:
    """The paper's argument: when H1 holds, a class's value moves no
    faster than |d rho/dr| <= Phi(rho), so the total variation of G
    (G' = 1/Phi) over its trace is at most the parameter span 1, rising
    or falling.  Under linear(c) the verdict is exact."""

    def test_h1_keeps_every_trace_within_budget(self):
        bounds = [linear(c) for c in (F(1, 2), 1, 3, 10, 50, 1000)]
        priced = 0
        with within(30):
            for ring in (Z2, Z, Q):
                for seed in range(100):
                    sc = randgen.random_scenario(random.Random(
                        "growth %s/%d" % (ring.name, seed)), ring)
                    trace = track_class(
                        {"l1": 1}, evolve(sc.gamma0, sc.events, sc.family),
                        wide_window(sc.family))
                    if all(seg.top is None for seg in trace.segments):
                        continue            # a zero class has no price
                    for phi in bounds:
                        if not check_H1(phi, sc.family).ok:
                            continue
                        for direction in (1, -1):
                            b = escape_budget(trace, phi, direction)
                            assert b.verdict == "WithinBudget", (
                                ring.name, seed, phi, direction, b.heights)
                            priced += 1
        assert priced > 500
