"""Release gate: nine end-to-end checks across the whole pipeline.

Each test covers one numbered criterion and finishes with a single
"criterion N PASS" line carrying its coverage counts, so a verbose run
reads as a checklist.  The randomized coverage comes from
tests/randgen.py under the --scenario-seed option; a red run is
reproducible by seed.  Structural assertions are exact (ring and
Fraction arithmetic, zero tolerance); the few numeric tolerances are
stated inline where floats are unavoidable.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from morseflow.algebra import homology
from morseflow.bifurcation import Death, evolve
from morseflow.cerf import legendrian_lift, validate_cerf
from morseflow.cli import data_path
from morseflow.errors import ScenarioError
from morseflow.escape import (build_cascade, check_H1, escape_budget, linear,
                              polylog, square)
from morseflow.matrix import SparseMatrix
from morseflow.piecewise import common_knots, crossings
from morseflow.rabinowitz import (ClassSurvives, HomotopyModel, Inconclusive,
                                  SquareTame, classify_invariance, eta_bound)
from morseflow.rings import Z, Z2
from morseflow.scenario import load_scenario
from morseflow.tracker import (NEG_INF, Window, continuation_map,
                               filtered_homology, track_class, wide_window)

from oracles import (rk4_exponential, z2_homology_rank, z2_matrix_to_rowmasks,
                     z2_spectral_bruteforce)
from randgen import random_scenario
from test_escape import cascade_trace, minimal_admissible_linear

SUITE_SIZE = 1000


@pytest.fixture(scope="session")
def suite(request):
    """Evolved random scenarios, half mod-2 and half integral."""
    rng = random.Random(request.config.getoption("--scenario-seed"))
    built = []
    for i in range(SUITE_SIZE):
        ring = Z2 if i % 2 == 0 else Z
        sc = random_scenario(rng, ring)
        log = evolve(sc.gamma0, sc.events, sc.family)
        built.append((sc, log))
    return built


def _stays_above(t, up, lo, r_lo, r_hi):
    """Exact check that up's action exceeds lo's on the open interval.

    The difference is piecewise linear, so it suffices that it is
    nonnegative at every knot, positive at interior knots, and never
    zero at two consecutive knots (which would flatten a subsegment).
    """
    f, g = t.arc(up).f3, t.arc(lo).f3
    ks = common_knots(f, g, r_lo, r_hi)
    vals = [f.value(k) - g.value(k) for k in ks]
    if any(v < 0 for v in vals):
        return False
    if any(v == 0 for v in vals[1:-1]):
        return False
    return not any(x == 0 and y == 0 for x, y in zip(vals, vals[1:]))


def test_criterion_1_random_suite_axioms(suite):
    assert len(suite) >= 1000
    assert {sc.ring.name for sc, _ in suite} == {"Z2", "Z"}
    assert all(len(sc.family.arcs) <= 10 and len(sc.events) <= 6
               for sc, _ in suite)
    intervals = entries = 0
    for sc, log in suite:
        for fc in log.intervals:
            gamma = fc.gamma
            assert gamma.mul(gamma).is_zero()
            for (up, lo), val in gamma.items():
                assert val != sc.ring.zero
                assert _stays_above(sc.family, up, lo, fc.r_lo, fc.r_hi)
                entries += 1
            intervals += 1
    print("criterion 1 PASS: %d scenarios, %d intervals, %d count entries; "
          "action order and square-zero hold exactly"
          % (len(suite), intervals, entries))


def _verify_event_maps(sc, log, step):
    ring = sc.ring
    gm, gp = step.before.gamma, step.after.gamma
    hm, hp = homology(gm), homology(gp)
    assert (hm.free_rank, hm.torsion) == (hp.free_rank, hp.torsion)
    bundle = continuation_map(step.record, log)
    fwd, bwd, hom = bundle.forward, bundle.backward, bundle.homotopy
    # chain map identities, re-derived by direct matrix arithmetic
    assert gm.mul(fwd) == fwd.mul(gp)
    assert gp.mul(bwd) == bwd.mul(gm)
    if bundle.kind == "slide":
        assert hom is None
        ident = SparseMatrix.identity(ring, list(gm.rows))
        assert fwd.mul(bwd) == ident
        assert bwd.mul(fwd) == ident
    else:
        if bundle.kind == "birth":
            incl, proj, d_big = fwd, bwd, gp
        else:
            incl, proj, d_big = bwd, fwd, gm
        ident_small = SparseMatrix.identity(ring, list(incl.rows))
        ident_big = SparseMatrix.identity(ring, list(proj.rows))
        assert incl.mul(proj) == ident_small
        defect = d_big.mul(hom).add(hom.mul(d_big))
        assert defect == ident_big.sub(proj.mul(incl))
    return bundle.kind


def test_criterion_2_single_event_comparisons(suite):
    singles = [(sc, log) for sc, log in suite if len(sc.events) == 1]
    assert len(singles) >= 50
    kinds = set()
    for sc, log in singles:
        kinds.add(_verify_event_maps(sc, log, log.steps[0]))
    # a lone death is impossible (the pair must be born first), so cover
    # deaths from the multi-event scenarios as well
    deaths = 0
    for sc, log in suite:
        for step in log.steps:
            if isinstance(step.record.payload, Death):
                _verify_event_maps(sc, log, step)
                deaths += 1
    assert kinds == {"slide", "birth"}
    assert deaths >= 50
    print("criterion 2 PASS: %d single-event scenarios (%s) plus %d death "
          "crossings; ranks and torsion preserved, map identities exact"
          % (len(singles), ", ".join(sorted(kinds)), deaths))


def test_criterion_3_shipped_slide_scenario():
    sc = load_scenario(data_path("slide"))
    assert sc.ring is Z2
    log = evolve(sc.gamma0, sc.events, sc.family)
    assert log.steps[0].after.gamma.entry("c1", "c3") == Z2.one
    for fc in log.intervals:
        res = homology(fc.gamma)
        assert (res.free_rank, res.torsion) == (1, ())
    trace = track_class(sc.rep, log, sc.window)
    assert trace.survived
    assert trace.transfers == ((F(3, 4), "c1", "c2"),)
    # the transfer parameter is exactly the lanes' action crossing
    assert crossings(sc.family.arc("c1").f3,
                     sc.family.arc("c2").f3) == [F(3, 4)]
    assert dict(trace.classes[-1].representative) == {"c1": 1, "c2": 1}
    print("criterion 3 PASS: slide scenario shows the (c1, c3) count, "
          "rank 1 throughout, and the c1 -> c1+c2 transfer exactly at r=3/4")


def test_criterion_4_cascade_growth_within_unit_time():
    timings = {}
    for n in (3, 5, 8):
        t0 = time.perf_counter()
        t, fc0, events = build_cascade(n)
        log = evolve(fc0, events, t)
        trace = track_class({"c1": 1}, log, wide_window(t))
        timings[n] = time.perf_counter() - t0
        initial = trace.segments[0].rho_lo
        target = 2 ** (n - 1) * initial
        assert trace.survived
        assert trace.final_value() >= target
        reached = min(s.r_lo for s in trace.segments if s.rho_lo >= target)
        assert reached < 1
        assert all(ev.r < 1 for ev in events)
    assert timings[8] < 5.0
    print("criterion 4 PASS: cascade value clears 2^(n-1) x initial before "
          "r=1 for n=3,5,8; n=8 pipeline took %.3fs" % timings[8])


def test_criterion_5_budget_dichotomy_on_cascades():
    outrun = polylog(1, 1, gap=(-1, 1))     # Phi(s) = |s| outside the gap
    for n in (1, 2, 3, 5, 8):
        t, trace = cascade_trace(n)
        phi = minimal_admissible_linear(t)
        assert check_H1(phi, t).ok
        good = escape_budget(trace, phi)
        assert good.total <= 1
        assert good.escape_cost_infinite
        # telescoped log antiderivative: n ln 2 / c, checked in closed form
        expect = n * math.log(2.0) / float(phi.coefficient)
        assert abs(float(good.total) - expect) <= 1e-9 * max(expect, 1.0)
        # any larger admissible constant only cheapens the climb
        looser = linear(2 * phi.coefficient)
        assert check_H1(looser, t).ok
        assert escape_budget(trace, looser).total <= good.total
        if n >= 2:
            assert not check_H1(outrun, t).slope_ok
            bad = escape_budget(trace, outrun)
            assert bad.total > 1
            assert bad.verdict == "InfeasibleWithinUnitTime"
            assert abs(bad.total - n * math.log(2.0)) <= 1e-9
    print("criterion 5 PASS: admissible linear bounds keep the budget "
          "within unit time on every cascade; the violating bound is "
          "outrun (n ln 2 > 1 for n >= 2), both via log antiderivatives")


def test_criterion_6_square_tame_tails_and_threshold():
    flips = 0
    for c in (F(1, 2), F(1), F(3)):
        phi = square(c)
        # closed-form tails are exact rationals, far inside 1e-12 relative
        assert phi.tail_integral(F(1)) == 1 / c
        for kappa in (F(1, 2), F(1), F(2)):
            thr = 1 / (c + c * kappa)
            assert phi.tail_integral(thr) == 1 + kappa
            model = HomotopyModel(h_sup=1, tame_constant=c,
                                  tame_class=SquareTame())
            eps = F(1, 10 ** 9)
            for sign in (1, -1):
                at = classify_invariance(model, rho0=sign * thr, kappa=kappa)
                inside = classify_invariance(
                    model, rho0=sign * thr * (1 - eps), kappa=kappa)
                outside = classify_invariance(
                    model, rho0=sign * thr * (1 + eps), kappa=kappa)
                assert isinstance(at, ClassSurvives)
                assert isinstance(inside, ClassSurvives)
                assert isinstance(outside, Inconclusive)
            flips += 1
    print("criterion 6 PASS: square-tame tail integrals exact for 9 "
          "(c, kappa) pairs; the verdict flips exactly at |rho0| = "
          "1/(c + c*kappa) in both signs (%d thresholds)" % flips)


def test_criterion_7_growth_bound_matches_integration():
    worst = 0.0
    for rate in (0, 1, 5):
        model = HomotopyModel(h_sup=rate, tame_constant=1)
        for r in (F(1, 4), F(1, 2), F(3, 4), F(1)):
            closed = eta_bound(model, 1, r)
            numeric = rk4_exponential(rate, 1.0, r)
            worst = max(worst, abs(numeric - closed) / max(abs(closed), 1e-12))
    assert worst <= 1e-6
    print("criterion 7 PASS: exponential closed form agrees with "
          "independent integration for rates 0, 1, 5; worst relative "
          "gap %.2e" % worst)


def test_criterion_8_brute_force_agreement(suite):
    # the constant window cuts below the lane tiers, dropping the pairs
    tier = Window.constant(F(10), F(200))
    hom_checks = spec_checks = 0
    for sc, log in suite:
        if sc.ring is not Z2:
            continue
        t = sc.family
        # low lanes never acquire outgoing counts, so they stay cycles;
        # their classes may still die into a boundary, which the oracle
        # must reproduce as -inf
        ids = {a.id for a in t.arcs}
        tracked = [{"l1": 1}]
        if "l2" in ids:
            tracked.append({"l1": 1, "l2": 1})
        for w in (wide_window(t), tier):
            for fc in log.intervals:
                mid = fc.midpoint()
                gens = [a.id for a in t.arcs_alive(mid)
                        if w.contains_value(mid, a.value(mid))]
                assert len(gens) <= 12
                eng = filtered_homology(t, fc, mid, w)
                dense = fc.gamma.restrict(gens).to_dense(gens, gens)
                assert eng.free_rank == z2_homology_rank(dense)
                assert eng.torsion == ()
                hom_checks += 1
            for h0 in tracked:
                trace = track_class(h0, log, w)
                assert trace.survived
                reps = {tc.interval_index: dict(tc.representative)
                        for tc in trace.classes}
                for seg in trace.segments:
                    assert seg.certified
                    mid = (seg.r_lo + seg.r_hi) / 2
                    fc = log.intervals[seg.interval_index]
                    gens = [a.id for a in t.arcs_alive(mid)
                            if w.contains_value(mid, a.value(mid))]
                    dense = fc.gamma.restrict(gens).to_dense(gens, gens)
                    masks = z2_matrix_to_rowmasks(dense)
                    bits = 0
                    for g, v in reps[seg.interval_index].items():
                        assert v == 1 and g in gens
                        bits |= 1 << gens.index(g)
                    heights = [t.arc(g).value(mid) for g in gens]
                    brute = z2_spectral_bruteforce(bits, masks,
                                                   len(gens), heights)
                    engine = (t.arc(seg.top).value(mid) if seg.top is not None
                              else NEG_INF)
                    assert engine == brute
                    spec_checks += 1
    assert hom_checks >= 1000
    assert spec_checks >= 1000
    print("criterion 8 PASS: %d windowed homology ranks and %d spectral "
          "slab values agree with full enumeration over mod-2 "
          "coefficients" % (hom_checks, spec_checks))


def test_criterion_9_rejections_and_front_lift():
    # the half-open footprint must be rejected by the compactness check
    sc = load_scenario(data_path("escaping"))
    report = validate_cerf(sc.family)
    assert any(f.code == "C1-compactness" and f.severity == "error"
               for f in report.findings)
    # coincident event parameters are rejected while loading
    with pytest.raises(ScenarioError) as err:
        load_scenario(data_path("duplicate_event"))
    assert "disjoint" in str(err.value)
    # lifting the parabola front recovers x = -2s with zero residual
    svals = [F(k, 8) for k in range(-8, 9)]
    lift = legendrian_lift([(s, s * s) for s in svals], svals)
    assert len(lift.samples) == len(svals) - 1
    assert all(x == -2 * s for s, x in lift.samples)
    assert set(lift.contact_residuals) == {0}
    assert lift.embedded
    print("criterion 9 PASS: escaping arc rejected (C1-compactness), "
          "coincident events rejected (disjointness), parabola front "
          "lifts to x = -2s with exact contact residuals")
