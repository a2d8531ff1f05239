import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fixtures import chord
from morseflow.cerf import CerfTuple
from morseflow.errors import (InvalidParameters, MissingClassData,
                              OutOfRange)
from morseflow.escape import POWER_CAP_BITS, _exceeds_exp, check_H1
from morseflow.rabinowitz import (ClassSurvives, HomotopyModel,
                                  HypersurfaceHomotopy, Inconclusive,
                                  Invariant, LogTame, SquareTame,
                                  SymplecticFormHomotopy, Tame,
                                  classify_invariance, eta_bound,
                                  phi_for_class)


def model(h=1, c=1, cls=Tame(), variant=HypersurfaceHomotopy()):
    return HomotopyModel(h, c, cls, variant)


def flat_tuple():
    arcs = (chord("a1", [(0, 5), (1, 5)]), chord("a2", [(0, -3), (1, -3)]))
    return CerfTuple(arcs)


class TestModel:
    @pytest.mark.parametrize("build", [
        lambda: model(h=-1),
        lambda: model(c=0),
        lambda: model(c=-2),
        lambda: model(cls=LogTame(0)),
        lambda: model(cls="tame"),
        lambda: model(variant="form"),
        lambda: model(variant=SymplecticFormHomotopy(-1)),
        lambda: model(variant=SymplecticFormHomotopy(1, eta_rate=-2)),
        lambda: model(cls=LogTame(5)),
        lambda: model(cls=LogTame(F(3, 2))),
        lambda: model(cls=LogTame(F(2))),       # whole, but not an int
    ])
    def test_rejected_models(self, build):
        with pytest.raises(InvalidParameters):
            build()

    def test_rates_follow_the_variant(self):
        m = model(h=3)
        assert m.motion_rate == 3 and m.eta_growth_rate == 3
        s = model(h=3, variant=SymplecticFormHomotopy(F(7, 2)))
        assert s.motion_rate == F(7, 2)
        assert s.eta_growth_rate == 3          # eta still driven by h_sup
        s2 = model(h=3, variant=SymplecticFormHomotopy(5, eta_rate=F(1, 2)))
        assert s2.eta_growth_rate == F(1, 2)


class TestEtaBound:
    def test_autonomous_bound_is_constant(self):
        m = model(h=0)
        for r in (0, F(1, 3), 1):
            assert eta_bound(m, F(3, 2), r) == 1.5

    def test_unit_rate_reaches_e(self):
        assert eta_bound(model(h=1), 1, 1) == pytest.approx(math.e, rel=1e-12)

    def test_zero_start_stays_zero(self):
        assert eta_bound(model(h=5), 0, 1) == 0

    def test_sign_of_the_start_is_immaterial(self):
        m = model(h=2)
        assert eta_bound(m, -3, F(1, 2)) == eta_bound(m, 3, F(1, 2))

    def test_parameter_range_enforced(self):
        for r in (F(-1, 10), F(3, 2)):
            with pytest.raises(OutOfRange):
                eta_bound(model(), 1, r)

    def test_exponent_past_the_float_range_is_bounded(self):
        # e^1000 has no float; the exact bound's log is read through
        # math.log of its numerator and denominator, which takes integers
        got = eta_bound(HomotopyModel(h_sup=1000, tame_constant=1), 1, 1)
        assert math.log(got.numerator) - math.log(got.denominator) == (
            pytest.approx(1000, rel=1e-12))
        assert eta_bound(model(h=10**6), 0, F(1, 2)) == 0
        assert eta_bound(model(h=1000), 1, F(1, 2)) == pytest.approx(
            math.exp(500), rel=1e-12)

    @pytest.mark.parametrize("h", [703, 706, 709])
    def test_exponent_near_the_float_limit(self, h):
        got = eta_bound(HomotopyModel(h_sup=h, tame_constant=1), 1, 1)
        assert got == pytest.approx(math.exp(h), rel=1e-12)

    def test_start_beyond_the_float_range_is_bounded(self):
        m = model(h=1)
        assert eta_bound(m, 10**400, 1) == 10**400 * eta_bound(m, 1, 1)

    def test_product_beyond_the_float_range_is_bounded(self):
        # exp(20) and 1e300 are floats, their product is not
        got = eta_bound(model(h=20), 10**300, 1)
        assert got == 10**300 * eta_bound(model(h=20), 1, 1)
        assert math.log(got.numerator) - math.log(got.denominator) == (
            pytest.approx(20 + 300 * math.log(10), rel=1e-12))

    def test_nonzero_start_never_bounded_by_zero(self):
        # 1/10**400 has no nonzero float; the exact bound stays above it
        assert eta_bound(model(h=1), F(1, 10**400), 1) > F(1, 10**400)

    def test_exponent_past_the_cap_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(OutOfRange):
            eta_bound(model(h=10**100), 1, 1)
        with pytest.raises(OutOfRange):
            eta_bound(model(h=POWER_CAP_BITS + 1), 0, 1)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("h", [0, 1, 5])
    def test_closed_form_matches_independent_integration(self, h):
        m = model(h=h)
        for r in (F(1, 4), F(1, 2), F(3, 4), 1):
            got = eta_bound(m, F(7, 3), r)
            want = oracles.rk4_exponential(h, 7 / 3, r)
            assert abs(got - want) <= 1e-6 * max(want, 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(h=st.fractions(min_value=0, max_value=5, max_denominator=20),
           r=st.fractions(min_value=0, max_value=1, max_denominator=20),
           eta0=st.fractions(min_value=-10, max_value=10, max_denominator=9))
    def test_bound_agrees_with_oracle_everywhere(self, h, r, eta0):
        got = eta_bound(model(h=h), eta0, r)
        want = oracles.rk4_exponential(h, abs(float(eta0)), r)
        assert abs(got - want) <= 1e-6 * max(want, 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(h=st.fractions(min_value=0, max_value=10**4, max_denominator=10**6),
           r=st.fractions(min_value=0, max_value=1, max_denominator=10**6),
           eta0=st.fractions(max_denominator=10**9))
    def test_bound_is_an_exact_upper_bound(self, h, r, eta0):
        got = eta_bound(model(h=h), eta0, r)
        if h * r == 0 or eta0 == 0:
            assert got == abs(eta0)
        else:
            assert _exceeds_exp(got / abs(eta0), h * r)


class TestPhiForClass:
    def test_tame_gives_linear(self):
        phi = phi_for_class(model(h=3, c=2))
        assert phi.label == "linear" and phi.coefficient == 6
        assert phi.diverges_at_infinity()

    def test_log_tame_gives_iterated_log(self):
        phi = phi_for_class(model(h=1, c=1, cls=LogTame(1)))
        assert phi.label == "iterlog"
        assert phi.coefficient == 1 and phi.log_powers == (1,)
        assert phi.diverges_at_infinity()

    def test_square_tame_ignores_the_rate(self):
        phi = phi_for_class(model(h=100, c=1, cls=SquareTame()))
        assert phi.label == "square" and phi.coefficient == 1
        assert not phi.diverges_at_infinity()

    def test_form_homotopy_substitutes_theta(self):
        phi = phi_for_class(model(h=3, c=2,
                                  variant=SymplecticFormHomotopy(5)))
        assert phi.coefficient == 10
        deep = phi_for_class(model(h=3, c=2, cls=LogTame(2),
                                   variant=SymplecticFormHomotopy(5)))
        assert deep.coefficient == 10 and deep.log_powers == (1, 1)

    def test_autonomous_model_has_no_bound(self):
        with pytest.raises(InvalidParameters):
            phi_for_class(model(h=0))

    @pytest.mark.parametrize("cls, diverges", [
        (Tame(), True),
        (LogTame(1), True),
        (LogTame(3), True),
        (SquareTame(), False),
    ])
    def test_divergence_verdicts_via_H1(self, cls, diverges):
        rep = check_H1(phi_for_class(model(h=1, c=1, cls=cls)), flat_tuple())
        assert rep.slope_ok
        assert rep.divergence_ok is diverges


class TestClassify:
    def test_tame_is_invariant(self):
        v = classify_invariance(model(h=2, c=3))
        assert isinstance(v, Invariant)
        assert v.phi.coefficient == 6
        assert v.assumption == "conditional on H3"

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    def test_log_tame_is_invariant_at_every_depth(self, depth):
        v = classify_invariance(model(h=1, c=1, cls=LogTame(depth)))
        assert isinstance(v, Invariant)

    def test_autonomous_is_invariant_without_a_bound(self):
        v = classify_invariance(model(h=0))
        assert isinstance(v, Invariant) and v.phi is None

    def test_square_tame_boundary_survives(self):
        v = classify_invariance(model(c=1, cls=SquareTame()),
                                rho0=F(1, 2), kappa=1)
        assert isinstance(v, ClassSurvives)
        assert v.report.margin == 0
        assert v.assumption == "conditional on H3"

    def test_square_tame_far_start_is_inconclusive(self):
        v = classify_invariance(model(c=1, cls=SquareTame()),
                                rho0=2, kappa=1)
        assert isinstance(v, Inconclusive)
        assert v.failing_integral == F(1, 2)
        assert "2" in v.reason

    def test_square_tame_needs_class_data(self):
        m = model(c=1, cls=SquareTame())
        with pytest.raises(MissingClassData):
            classify_invariance(m)
        with pytest.raises(MissingClassData):
            classify_invariance(m, rho0=F(1, 2))
        with pytest.raises(MissingClassData):
            classify_invariance(m, kappa=1)

    def test_survival_threshold_is_exact(self):
        c, kappa = F(2), F(1, 3)
        threshold = 1 / (c + c * kappa)
        m = model(c=c, cls=SquareTame())
        eps = F(1, 10 ** 9)
        for rho0 in (threshold, -threshold, threshold - eps, F(0), eps):
            assert isinstance(classify_invariance(m, rho0, kappa),
                              ClassSurvives)
        for rho0 in (threshold + eps, -(threshold + eps), F(1), F(-1)):
            assert isinstance(classify_invariance(m, rho0, kappa),
                              Inconclusive)

    @settings(max_examples=60, deadline=None)
    @given(c=st.fractions(min_value=F(1, 4), max_value=8, max_denominator=12),
           kappa=st.fractions(min_value=F(1, 8), max_value=4,
                              max_denominator=12),
           rho0=st.fractions(min_value=-3, max_value=3, max_denominator=40))
    def test_survival_matches_the_closed_form(self, c, kappa, rho0):
        v = classify_invariance(model(c=c, cls=SquareTame()), rho0, kappa)
        if abs(rho0) <= 1 / (c + c * kappa):
            assert isinstance(v, ClassSurvives)
        else:
            assert isinstance(v, Inconclusive)
