import collections
import gc
import itertools
import random
import weakref
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

import differential
import oracles
import randgen
from fixtures import (birth_tuple, chord, eyeball_with_bystander,
                      three_lane_tuple, within)
from randgen import affine_family, affine_profile
from morseflow import algebra, bifurcation, tracker
from morseflow.bifurcation import (Birth, Death, EventRecord, FlowCounter,
                                   HandleSlide, apply_handle_slide, evolve)
from morseflow.cerf import (Arc, BoundaryAt0, CerfTuple, DeathVertex,
                            Vertex, validate_cerf)
from morseflow.errors import (DegenerateParameter, EvolutionError,
                              InvalidWindow, NonNestedLadder, NotACycle,
                              OutOfRange, VerificationFailed)
from morseflow.matrix import SparseMatrix, vec_apply
from morseflow.cli import data_path, main
from morseflow.escape import build_cascade, linear
from morseflow.piecewise import Piecewise, _apart, _range
from morseflow.rings import Q, Z, Z2
from morseflow.scenario import (Scenario, load_scenario, parse_scenario,
                                serialize_scenario)
from morseflow.tracker import (NEG_INF, Window, continuation_map,
                               filtered_homology, full_homology,
                               spectral_value, track_class, validate_window,
                               wide_window, window_violation)

WIDE = Window.constant(0, 10)
WIDE_Z = Window.constant(-100, 200)     # clears every randgen family


def counter(ring, ids, entries):
    return FlowCounter(0, F(0), F(1), SparseMatrix(ring, ids, ids, entries))


def three_lane_log(ring=Z2, delta_value=1):
    t = three_lane_tuple()
    ids = ["c1", "c2", "c3"]
    g0 = counter(ring, ids, {("c2", "c3"): 1})
    ev = EventRecord(F(3, 8), HandleSlide((("c1", "c2", delta_value),)))
    return t, evolve(g0, [ev], t)


def u_death_tuple():
    """Two arcs meeting in a death at r=3/4, nothing else."""
    up = Arc("up", Piecewise([(0, 6), (F(3, 4), 3)]),
             BoundaryAt0(), DeathVertex("vd"))
    dn = Arc("dn", Piecewise([(0, 1), (F(3, 4), 3)]),
             BoundaryAt0(), DeathVertex("vd"))
    vd = Vertex("vd", "death", F(3, 4), 3, "up", "dn")
    return CerfTuple((up, dn), (vd,))


def reference_slabs(log, w, reps, every_pair=False):
    """(interval, r_lo, r_hi, order) of every slab of the intervals in
    reps, a map from an interval's index to the class's representative
    there: from midpoint membership, per-interval reference crossings of
    two generators that the representative or an entry of the windowed
    differential holds (of every two in-window arcs with every_pair) and
    a fresh sort of the in-window arcs at each slab's midpoint."""
    t = log.family
    out = []
    for fc in log.intervals:
        if fc.interval_index not in reps:
            continue
        gens = oracles.in_window_at(t, w, fc.midpoint())
        held = set(reps[fc.interval_index]).union(
            *fc.gamma.restrict(gens).entries)
        cut_by = gens if every_pair else [g for g in gens if g in held]
        cuts = {x for g1, g2 in itertools.combinations(cut_by, 2)
                for x in oracles.crossings(t.arc(g1).f3, t.arc(g2).f3,
                                           fc.r_lo, fc.r_hi)
                if fc.r_lo < x < fc.r_hi}
        bounds = [fc.r_lo] + sorted(cuts) + [fc.r_hi]
        for lo, hi in zip(bounds, bounds[1:]):
            out.append((fc.interval_index, lo, hi,
                        oracles.descending_order(t, gens, (lo + hi) / 2)))
    return out


def assert_sweep_matches_reference(h0, log, w, kinds=None):
    """track_class's slab bounds equal reference_slabs; on each slab whose
    windowed differential has entries it calls _coset_minimize once, on
    the reference order cut to the generators that the interval's
    representative (trace.classes) or windowed differential holds, and
    on no other slab; every slab's support is _coset_minimize's on the
    whole reference order; and its trace equals the one from per-slab
    sorting and reference crossings.  Returns the trace.  kinds, a
    Counter, counts the reached intervals whose windowed differential is
    empty ("empty") and those with an in-window generator that nothing
    holds ("untouched")."""
    orders = []
    minimize = tracker._coset_minimize

    def spy(ring, d, rep, order):
        orders.append(list(order))
        return minimize(ring, d, rep, order)
    with mock.patch.object(tracker, "_coset_minimize", spy):
        trace = track_class(h0, log, w)
    reps = {c.interval_index: dict(c.representative) for c in trace.classes
            if c.representative}
    ref = reference_slabs(log, w, reps)
    assert [(s.interval_index, s.r_lo, s.r_hi) for s in trace.segments] == [
        slab[:3] for slab in ref]
    counted = set()
    calls = iter(orders)
    for s, (i, _, _, full) in zip(trace.segments, ref):
        d = log.intervals[i].gamma.restrict(full)
        held = set(reps[i]).union(*d.entries)
        if d.entries:
            assert next(calls) == [g for g in full if g in held]
        assert s.support == minimize(log.ring, d, reps[i], full)
        if kinds is not None and i not in counted:
            counted.add(i)
            kinds["empty"] += not d.entries
            kinds["untouched"] += len(held) < len(full)
    assert next(calls, None) is None

    def sort_every_slab(order, movers, key):
        return sorted(order, key=key)
    # an empty slot, so the family's crossings are found again, by the oracle
    with mock.patch.object(tracker, "crossings", oracles.crossings), \
            mock.patch.object(tracker, "_prepared", None), \
            mock.patch.object(tracker, "_resort_runs", sort_every_slab):
        assert track_class(h0, log, w) == trace
    return trace


class TestWindow:
    def test_clear_constant_window_accepted(self):
        assert window_violation(WIDE, three_lane_tuple()) is None

    def test_floor_meeting_ceiling_rejected(self):
        w = Window.constant(5, 5)
        assert "floor meets ceiling" in window_violation(w, three_lane_tuple())
        with pytest.raises(InvalidWindow):
            validate_window(w, three_lane_tuple())

    def test_cutoff_crossing_an_arc_rejected(self):
        # the middle lane sweeps from 2 to 6, so a ceiling at 3 crosses it
        why = window_violation(Window.constant(0, 3), three_lane_tuple())
        assert "c2" in why and "ceiling" in why

    def test_cutoff_grazing_an_arc_rejected(self):
        why = window_violation(Window.constant(1, 10), three_lane_tuple())
        assert "c1" not in why and "floor" in why

    def test_partial_domain_rejected(self):
        w = Window(Piecewise([(0, 0), (F(1, 2), 0)]), Piecewise.constant(10))
        assert "[0, 1]" in window_violation(w, three_lane_tuple())

    def test_zero_range_family_needs_strict_clearance(self):
        t = CerfTuple((chord("c", [(0, 4), (1, 4)]),))
        assert window_violation(Window.constant(4, 9), t) is not None
        assert window_violation(Window.constant(3, 9), t) is None

    def test_wide_window_helper_clears_everything(self):
        t = three_lane_tuple()
        w = wide_window(t)
        assert window_violation(w, t) is None
        assert w.a.value(0) == 0 and w.b.value(0) == 7

    def test_wide_window_of_a_family_without_arcs(self):
        t = CerfTuple(())
        assert t.f3_range() == (None, None)
        w = wide_window(t)
        assert w == Window.constant(-1, 1)
        assert validate_window(w, t) == {}

    def test_a_repeated_arc_id_takes_its_first_arcs_side(self, monkeypatch):
        # such a family fails validate_cerf (duplicate-id); the entry
        # still reads each id once, from its first arc, as CerfTuple.arc
        low, high = chord("a", [(0, 4), (1, 4)]), chord("a", [(0, 20), (1, 20)])
        monkeypatch.setattr(tracker, "_prepared", None)
        for arcs, side in (((low, high), tracker.INSIDE),
                           ((high, low), tracker.ABOVE)):
            sides, inside, _ = tracker._window(WIDE, CerfTuple(arcs))
            assert sides == {"a": side}
            assert inside == (["a"] if side == tracker.INSIDE else [])

    def test_equal_but_distinct_objects_share_a_verdict(self):
        t1, t2 = three_lane_tuple(), three_lane_tuple()
        for lo, hi in ((0, 10), (0, 3), (1, 10), (F(1, 2), 7), (5, 5)):
            w1, w2 = Window.constant(lo, hi), Window.constant(F(lo), F(hi))
            assert w1 is not w2 and w1 == w2
            got = []
            # alternating families makes each call replace the prepared one
            for w, t in ((w1, t1), (w2, t2), (w2, t1), (w1, t2)):
                why = window_violation(w, t)
                try:
                    sides = validate_window(w, t)
                except InvalidWindow as e:
                    assert str(e) == why
                    sides = None
                got.append((why, sides))
            assert all(x == got[0] for x in got)
            assert (got[0][0] is None) == (got[0][1] is not None)

    def test_equal_windows_share_one_arrangement_entry(self, monkeypatch):
        # the cutoffs are written differently, and hash by their integer
        # points, so the second window finds the first one's entry
        t = three_lane_tuple()
        w1 = Window(Piecewise(((0, "-1/2"), (1, -0.5))), Piecewise.constant(9))
        w2 = Window.constant(F(-2, 4), F(18, 2))
        assert w1 is not w2 and hash(w1) == hash(w2)
        monkeypatch.setattr(tracker, "_prepared", None)
        sides = validate_window(w1, t)
        assert validate_window(w2, t) is sides
        assert list(tracker._prepared[1]) == [w1]

    def test_an_unusable_window_gets_no_entry(self, monkeypatch):
        t = three_lane_tuple()
        w = Window.constant(0, 3)            # the ceiling crosses c2
        monkeypatch.setattr(tracker, "_prepared", None)
        why = window_violation(w, t)
        for _ in range(2):
            with pytest.raises(InvalidWindow) as e:
                validate_window(w, t)
            assert str(e.value) == why
            assert w not in tracker._prepared[1]

    def test_only_the_last_family_read_stays_alive(self):
        t1 = three_lane_tuple()
        validate_window(WIDE, t1)
        first = weakref.ref(t1)
        del t1
        validate_window(WIDE, three_lane_tuple())
        gc.collect()
        assert first() is None

    def test_a_changed_copy_is_not_served_a_stale_arrangement(self, monkeypatch):
        t, log = three_lane_log()
        # c2 now climbs to 8, so it crosses c1 at r = 2/3 instead of 3/4
        moved = t.arcs[1]._replace(f3=Piecewise(
            [(0, 2), (F(1, 2), 2), (1, 8)]))
        t2 = t._replace(arcs=(t.arcs[0], moved, t.arcs[2]))
        log2 = evolve(log.intervals[0], [s.record for s in log.steps], t2)
        before = track_class({"c1": 1}, log, WIDE)
        after = track_class({"c1": 1}, log2, WIDE)
        monkeypatch.setattr(tracker, "_prepared", None)
        assert track_class({"c1": 1}, log2, WIDE) == after
        assert after != before
        assert F(2, 3) in {s.r_lo for s in after.segments}


@st.composite
def family_and_window(draw):
    """A random family and a window: either one through the clear bands
    below, between and above randgen's height tiers, or one whose cutoffs
    pass near, through or exactly onto the arcs' knot values."""
    sc = randgen.random_scenario(random.Random(draw(st.integers(0, 2**32 - 1))),
                                 Z2)
    lo, hi = sc.family.f3_range()
    if draw(st.booleans()):
        return sc.family, Window.constant(draw(st.sampled_from([lo - 1, 10])),
                                          draw(st.sampled_from([70, 200, hi + 1])))
    heights = sorted({v for a in sc.family.arcs for _, v in a.f3.points})
    near = st.sampled_from(heights).flatmap(
        lambda h: st.sampled_from([h, h - F(1, 3), h + F(1, 3), h - 7, h + 7]))

    def cutoff():
        if draw(st.booleans()):
            return Piecewise.constant(draw(near))
        knot = draw(st.sampled_from([F(1, 3), F(1, 2), F(5, 7)]))
        return Piecewise(((0, draw(near)), (knot, draw(near)), (1, draw(near))))
    return sc.family, Window(cutoff(), cutoff())


class TestWindowInvariance:
    """Verdicts depend on the order of actions, not on their scale or offset."""

    scales = st.builds(F, st.integers(1, 10**12), st.integers(1, 10**12))
    shifts = st.builds(F, st.integers(-10**12, 10**12), st.integers(1, 10**6))

    @settings(max_examples=80, deadline=None)
    @given(fw=family_and_window(), c=scales)
    def test_scaling_keeps_the_verdict(self, fw, c):
        t, w = fw
        w2 = Window(affine_profile(w.a, c, 0), affine_profile(w.b, c, 0))
        assert window_violation(w2, affine_family(t, c, 0)) == window_violation(w, t)

    @settings(max_examples=80, deadline=None)
    @given(fw=family_and_window(), s=shifts)
    def test_shifting_keeps_the_verdict(self, fw, s):
        t, w = fw
        w2 = Window(affine_profile(w.a, 1, s), affine_profile(w.b, 1, s))
        assert window_violation(w2, affine_family(t, 1, s)) == window_violation(w, t)

    @settings(max_examples=150, deadline=None)
    @given(fw=family_and_window())
    def test_sides_match_pointwise_membership(self, fw):
        t, w = fw
        if window_violation(w, t) is not None:
            return
        sides = validate_window(w, t)
        for a in t.arcs:
            rs = [r for r, _ in a.f3.points]
            for r in rs + [(r0 + r1) / 2 for r0, r1 in zip(rs, rs[1:])]:
                v = a.value(r)
                assert (sides[a.id] == tracker.INSIDE) == w.contains_value(r, v)
                assert (sides[a.id] == tracker.ABOVE) == (v >= w.b.value(r))

    def test_side_of_an_arc_born_late_is_read_over_its_own_life(self):
        # the ceiling starts at 1, below the late arc, but rises to 10
        # before the arc is born at 1/2
        late = Arc("late", Piecewise([(F(1, 2), 5), (1, 5)]),
                   BoundaryAt0(), BoundaryAt0())
        t = CerfTuple((chord("early", [(0, 20), (1, 20)]), late))
        w = Window(Piecewise.constant(0), Piecewise([(0, 1), (F(1, 2), 10), (1, 10)]))
        assert window_violation(w, t) is None
        assert validate_window(w, t) == {"early": tracker.ABOVE,
                                               "late": tracker.INSIDE}
        ids = ["early", "late"]
        fc = FlowCounter(1, F(1, 2), F(1), SparseMatrix(Z2, ids, ids, {}))
        assert window_gens(t, w, fc) == ["late"]

    def test_generated_windows_reach_both_verdicts(self):
        for valid in (True, False):
            find(family_and_window(),
                 lambda fw: (window_violation(fw[1], fw[0]) is None) == valid,
                 settings=settings(database=None, derandomize=True))


def affine_value(v, c, s):
    return v if v == NEG_INF else c * v + s


class TestTraceScaleInvariance:
    """Replacing every action v (arcs, vertices, window) by c*v + s with
    c > 0 maps each slab's spectral values the same way and leaves the
    slabs, supports, tops, certification, transfers and outcome alone."""

    @staticmethod
    def assert_affine_trace(trace, moved, c, s):
        assert moved.outcome == trace.outcome
        assert moved.transfers == trace.transfers
        assert len(moved.segments) == len(trace.segments)
        for a, b in zip(trace.segments, moved.segments):
            assert (b.interval_index, b.r_lo, b.r_hi, b.support, b.top,
                    b.certified) == (a.interval_index, a.r_lo, a.r_hi,
                                     a.support, a.top, a.certified)
            assert b.rho_lo == affine_value(a.rho_lo, c, s)
            assert b.rho_hi == affine_value(a.rho_hi, c, s)
        for a, b in zip(trace.classes, moved.classes):
            assert b.representative == a.representative
            assert b.rho_start == affine_value(a.rho_start, c, s)
            assert b.rho_end == affine_value(a.rho_end, c, s)

    def check(self, t, gamma0, events, w, h0, c, s):
        trace = track_class(h0, evolve(gamma0, events, t), w)
        moved_w = Window(affine_profile(w.a, c, s), affine_profile(w.b, c, s))
        moved_t = affine_family(t, c, s)
        moved = track_class(h0, evolve(gamma0, events, moved_t), moved_w)
        self.assert_affine_trace(trace, moved, c, s)
        return trace

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ring=st.sampled_from([Z2, Z]),
           tier=st.booleans(), c=TestWindowInvariance.scales,
           s=TestWindowInvariance.shifts)
    def test_random_families(self, seed, ring, tier, c, s):
        sc = randgen.random_scenario(random.Random(seed), ring)
        w = Window.constant(10, 200) if tier else wide_window(sc.family)
        for cc, ss in ((c, 0), (1, s)):
            trace = self.check(sc.family, sc.gamma0, sc.events, w, {"l1": 1}, cc, ss)
            assert trace.segments

    @pytest.mark.parametrize("n, ring", [(3, Z2), (5, Z), (8, Z2)])
    @pytest.mark.parametrize("c, s", [(F(1, 10**9), 0), (F(10**9, 7), 0),
                                      (1, -10**12), (1, F(5, 7))])
    def test_cascades(self, n, ring, c, s):
        t, fc0, events = build_cascade(n, ring=ring)
        trace = self.check(t, fc0, events, wide_window(t), {"c1": ring.one}, c, s)
        assert len(trace.transfers) == n and trace.survived

    @pytest.mark.parametrize("c, s", [(F(1, 1000), 0), (F(10**9, 7), 0),
                                      (1, -10**9), (1, F(5, 7))])
    def test_cli_exit_codes(self, tmp_path, capsys, c, s):
        """Every report command exits the same on the bundled scenarios,
        a cascade file and an invalid window, moved or not."""
        t, fc0, events = build_cascade(4)
        cascade = Scenario(Z2, t, fc0, tuple(events), window=wide_window(t),
                           rep={"c1": 1}, phi=linear(F(1), gap=(-2, 2)))
        scenarios = [load_scenario(data_path(name)) for name in
                     ("slide", "twoslides", "birth", "eyeball", "escaping")]
        scenarios += [cascade,
                      cascade._replace(window=Window.constant(0, 5))]
        for i, sc in enumerate(scenarios):
            w = sc.window
            moved = sc._replace(
                family=affine_family(sc.family, c, s),
                window=None if w is None else Window(affine_profile(w.a, c, s),
                                                     affine_profile(w.b, c, s)),
                ladder=tuple(Window(affine_profile(r.a, c, s),
                                    affine_profile(r.b, c, s)) for r in sc.ladder))
            paths = []
            for tag, x in (("base", sc), ("moved", moved)):
                p = tmp_path / ("%s%d.scn" % (tag, i))
                p.write_text(serialize_scenario(x), encoding="utf-8")
                paths.append(str(p))
            for cmd in ("validate", "evolve", "homology", "track", "escape", "plot"):
                codes = [main([cmd, p, "--out", str(tmp_path / "out")])
                         for p in paths]
                assert codes[0] == codes[1], (cmd, i, codes)
            capsys.readouterr()


# actions far from 1 with coprime denominators, where the integer cross
# products of the piecewise kernel grow widest
SCALES = [F(1, 10**30), F(1), F(10**30)]
DENOMINATORS = [1, 2, 3, 5, 7, 11, 13, 10**30 + 57]
coprime_shifts = st.builds(F, st.integers(-10**6, 10**6), st.sampled_from(DENOMINATORS))


class TestIntegerKernelAtScale:
    """Window verdicts, window sides and slab orders read integer signs;
    they must equal plain Fraction checks at every scale."""

    @settings(max_examples=120, deadline=None)
    @given(fw=family_and_window(), c=st.sampled_from(SCALES), s=coprime_shifts)
    def test_window_verdicts_and_sides_match_pointwise_checks(self, fw, c, s):
        t, w = fw
        t = affine_family(t, c, s)
        w = Window(affine_profile(w.a, c, s), affine_profile(w.b, c, s))
        valid = oracles.window_clear(w, t)
        assert (window_violation(w, t) is None) == valid
        if not valid:
            return
        sides = validate_window(w, t)
        for a in t.arcs:
            r, v = a.f3.points[0]
            lo = oracles.profile_value(w.a.points, r)
            hi = oracles.profile_value(w.b.points, r)
            want = (tracker.BELOW if v < lo else
                    tracker.INSIDE if v < hi else tracker.ABOVE)
            assert sides[a.id] == want

    @st.composite
    def chords_and_parameter(draw):
        """Chords over [0, 1] with knots from one pool of coprime
        denominators and values from one pool at one scale, so that
        actions tie often; and a parameter: a knot, a midpoint of two,
        or another coprime fraction."""
        scale = draw(st.sampled_from(SCALES))
        knots = sorted(draw(st.sets(st.builds(F, st.integers(1, 10),
                                              st.sampled_from(DENOMINATORS[5:])),
                                    min_size=1, max_size=4)))
        values = draw(st.lists(st.builds(lambda n, d: scale * F(n, d),
                                         st.integers(-9, 9),
                                         st.sampled_from(DENOMINATORS)),
                               min_size=1, max_size=4))
        arcs = []
        for i in range(draw(st.integers(1, 7))):
            rs = [F(0)] + sorted(draw(st.sets(st.sampled_from(knots), max_size=3))) + [F(1)]
            vs = draw(st.lists(st.sampled_from(values), min_size=len(rs),
                               max_size=len(rs)))
            # "a10", "a9", ...: str order is not declaration order
            arcs.append(chord("a%d" % (10 - i), list(zip(rs, vs))))
        t = CerfTuple(tuple(arcs))
        points = [F(0), F(1)] + knots
        points += [(x + y) / 2 for x, y in zip(points, points[1:])]
        r = draw(st.sampled_from(points) | st.builds(
            F, st.integers(0, 10**30 + 57), st.just(10**30 + 57)))
        return t, r

    @settings(max_examples=300, deadline=None)
    @given(tr=chords_and_parameter())
    def test_slab_order_matches_descending_order(self, tr):
        t, r = tr
        ids = [a.id for a in t.arcs]
        for gens in (ids, ids[::-1]):
            key = tracker._order_key({a.id: a.f3 for a in t.arcs},
                                     *r.as_integer_ratio())
            assert sorted(gens, key=key) == oracles.descending_order(t, gens, r)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ring=st.sampled_from([Z2, Z]),
           tier=st.booleans(), c=st.sampled_from(SCALES[::2]), s=coprime_shifts)
    def test_scaled_sweeps_match_reference(self, seed, ring, tier, c, s):
        sc = randgen.random_scenario(random.Random(seed), ring)
        t = affine_family(sc.family, c, s)
        w = (Window.constant(10 * c + s, 200 * c + s) if tier
             else wide_window(t))
        trace = assert_sweep_matches_reference(
            {"l1": 1}, evolve(sc.gamma0, sc.events, t), w)
        assert trace.segments


def window_gens(t, w, fc):
    """The in-window generators of the interval of fc, by the one reader."""
    return tracker._interval_gens(tracker._window(w, t)[1], fc)


def eyeball_log():
    """eyeball_with_bystander evolved: c1 alone, then the loop born at
    r=1/4 beside it, dying at r=3/4."""
    t = eyeball_with_bystander()
    log = evolve(counter(Z2, ["c1"], {}), [
        EventRecord(F(1, 4), Birth("vb", 1, ())),
        EventRecord(F(3, 4), Death("vd"))], t)
    return t, log


class TestChainGroup:
    """The windowed chain group of an interval, by the one reader, and
    the parameters its entry points refuse."""

    def test_wide_window_sees_all_lanes(self):
        t, log = three_lane_log()
        assert window_gens(t, WIDE, log.intervals[0]) == ["c1", "c2", "c3"]

    def test_window_excluding_all_arcs_is_empty(self):
        t, log = three_lane_log()
        assert window_gens(t, Window.constant(100, 200), log.intervals[0]) == []

    def test_ceiling_between_the_upper_lanes(self):
        # c2 climbs through 3 to overtake c1, so a ceiling there is
        # refused, not read at one parameter; cutoffs at 3/2 clear the
        # bottom lane c3 from the upper two
        t, log = three_lane_log()
        fc = log.intervals[0]
        with pytest.raises(InvalidWindow):
            window_gens(t, Window.constant(0, 3), fc)
        assert window_gens(t, Window.constant(F(3, 2), 10), fc) == ["c1", "c2"]
        assert window_gens(t, Window.constant(0, F(3, 2)), fc) == ["c3"]

    def test_vertex_parameter_rejected(self):
        t, log = eyeball_log()
        for r in (F(1, 4), F(3, 4)):
            for fc in log.intervals:
                with pytest.raises(DegenerateParameter):
                    filtered_homology(t, fc, r, WIDE)
            with pytest.raises(DegenerateParameter):
                spectral_value({"c1": 1}, r, log, WIDE)

    def test_forbidden_parameter_rejected(self):
        # a slide's parameter ends both intervals beside it
        t, log = three_lane_log()
        for fc in log.intervals:
            with pytest.raises(DegenerateParameter):
                filtered_homology(t, fc, F(3, 8), WIDE)

    def test_parameter_of_another_interval_rejected(self):
        t, log = three_lane_log()
        with pytest.raises(DegenerateParameter, match="not inside"):
            filtered_homology(t, log.intervals[0], F(1, 2), WIDE)
        with pytest.raises(DegenerateParameter, match="outside"):
            spectral_value({"c1": 1}, F(3, 2), log, WIDE)

    def test_dead_arcs_excluded(self):
        t, log = eyeball_log()
        w = Window.constant(0, 9)
        assert window_gens(t, w, log.counter_at(F(1, 8))) == ["c1"]
        assert window_gens(t, w, log.counter_at(F(1, 2))) == ["up", "down", "c1"]


class TestFilteredHomology:
    def test_three_lane_wide_window_rank_one(self):
        t, log = three_lane_log()
        h = filtered_homology(t, log.counter_at(F(1, 4)), F(1, 4), WIDE)
        assert h.free_rank == 1 and h.torsion == ()

    def test_floor_above_the_bottom_lane(self):
        # cutting away the bottom lane removes the only boundary, so both
        # remaining lanes are cycles and nothing is killed
        t, log = three_lane_log()
        h = filtered_homology(t, log.counter_at(F(1, 4)), F(1, 4),
                              Window.constant(F(3, 2), 10))
        assert h.free_rank == 2

    def test_invalid_window_raises(self):
        t, log = three_lane_log()
        with pytest.raises(InvalidWindow):
            filtered_homology(t, log.counter_at(F(1, 4)), F(1, 4),
                              Window.constant(0, 3))

    def test_torsion_over_the_integers(self):
        t = three_lane_tuple()
        ids = ["c1", "c2", "c3"]
        fc = counter(Z, ids, {("c2", "c3"): 2})
        h = filtered_homology(t, fc, F(1, 4), WIDE)
        assert h.free_rank == 1 and h.torsion == (2,)

    def test_full_window_reads_the_matrix_with_rows_in_another_order(self):
        # a window that holds every arc alive reads the count matrix
        # itself, and so the homology it keeps; the in-window ids come in
        # declaration order, the rows do not
        t = three_lane_tuple()
        fc = counter(Z, ["c3", "c1", "c2"], {("c2", "c3"): 2})
        h = filtered_homology(t, fc, F(1, 4), WIDE)
        assert h is algebra.homology(fc.gamma)
        assert h.free_rank == 1 and h.torsion == (2,)
        log = evolve(fc, [], t)
        assert all(x is h for x in
                   full_homology(t, log, F(1, 4), [WIDE] * 3).results)
        assert spectral_value({"c1": 1}, F(1, 4), log, WIDE).top == "c1"


class TestContinuationMap:
    def test_zero_slide_gives_identity(self):
        t = three_lane_tuple()
        ids = ["c1", "c2", "c3"]
        g0 = counter(Z2, ids, {("c2", "c3"): 1})
        log = evolve(g0, [EventRecord(F(3, 8), HandleSlide(()))], t)
        bun = continuation_map(log.steps[0].record, log)
        ident = SparseMatrix.identity(Z2, ids)
        assert bun.forward == ident and bun.backward == ident

    def test_slide_bundle_named_map(self):
        # the after-to-before map sends the upper lane past the slide
        t, log = three_lane_log()
        bun = continuation_map(log.steps[0].record, log)
        assert bun.kind == "slide"
        assert bun.backward.entry("c1", "c2") == 1
        assert bun.forward.mul(bun.backward) == SparseMatrix.identity(
            Z2, bun.forward.rows)

    def test_slide_forward_sign_over_z(self):
        t, log = three_lane_log(ring=Z)
        bun = continuation_map(log.steps[0].record, log)
        assert bun.forward.entry("c1", "c2") == -1
        assert bun.backward.entry("c1", "c2") == 1

    def test_birth_bundle_frozen(self):
        t = birth_tuple()
        g0 = counter(Z2, ["c1"], {})
        log = evolve(g0, [EventRecord(F(1, 2), Birth("vb", 1, (("c1", 1),)))], t)
        bun = continuation_map(log.steps[0].record, log)
        assert bun.kind == "birth"
        assert bun.forward.items() == [(("c1", "c1"), 1), (("c1", "up"), 1)]
        assert bun.backward.items() == [(("c1", "c1"), 1)]
        assert bun.homotopy.items() == [(("down", "up"), 1)]

    def test_death_bundle_reverses_birth(self):
        t = eyeball_with_bystander()
        g0 = counter(Z2, ["c1"], {})
        log = evolve(g0, [EventRecord(F(1, 4), Birth("vb", 1, (("c1", 1),))),
                          EventRecord(F(3, 4), Death("vd"))], t)
        bun = continuation_map(log.steps[1].record, log)
        assert bun.kind == "death"
        assert bun.forward.items() == [(("c1", "c1"), 1)]
        # the section corrects along the count against the dying lower branch
        assert bun.backward.items() == [(("c1", "c1"), 1), (("c1", "up"), 1)]

    def test_tampered_log_fails_verification(self):
        # the slide's maps against an after-matrix that is not its conjugate
        ids = ("c1", "c2", "c3")
        fc0 = FlowCounter(0, F(0), F(1, 2), SparseMatrix(Z2, ids, ids, {}))
        ev = EventRecord(F(1, 2), HandleSlide((("c1", "c2", 1),)))
        good, build = apply_handle_slide(fc0, ev, three_lane_tuple())
        maps = build()
        bad = SparseMatrix(Z2, ids, ids, {("c2", "c3"): 1})
        assert oracles.event_maps_hold(fc0.gamma, good, maps)
        assert not oracles.event_maps_hold(fc0.gamma, bad, maps)

    def test_tampered_birth_fails_verification(self):
        t = birth_tuple()
        g0 = counter(Z2, ["c1"], {})
        log = evolve(g0, [EventRecord(F(1, 2), Birth("vb", 1, (("c1", 1),)))], t)
        good = log.intervals[1].gamma
        bad = SparseMatrix(Z2, good.rows, good.cols,
                           dict(good.entries) | {("c1", "up"): 1})
        maps, before = log.steps[0].maps, log.intervals[0].gamma
        assert oracles.event_maps_hold(before, good, maps)
        assert not oracles.event_maps_hold(before, bad, maps)

    def test_bundle_is_the_one_evolve_stored(self):
        t, log = three_lane_log()
        assert continuation_map(log.steps[0].record, log) is log.steps[0].maps


class TestSpectralValue:
    def test_zero_class_is_minus_inf(self):
        t, log = three_lane_log()
        sv = spectral_value({}, F(1, 4), log, WIDE)
        assert sv.value == NEG_INF

    def test_boundary_class_is_minus_inf(self):
        # the bottom lane is the boundary of the middle one
        t, log = three_lane_log()
        sv = spectral_value({"c3": 1}, F(1, 4), log, WIDE)
        assert sv.value == NEG_INF and sv.certified

    def test_schedule_before_and_after_the_crossing(self):
        t, log = three_lane_log()
        before = spectral_value({"c1": 1}, F(1, 4), log, WIDE)
        assert before.value == 4 and before.support == ("c1",)
        after = spectral_value({"c1": 1, "c2": 1}, F(7, 8), log, WIDE)
        assert after.value == 5 and after.top == "c2"

    def test_not_a_cycle(self):
        t, log = three_lane_log()
        with pytest.raises(NotACycle):
            spectral_value({"c2": 1}, F(1, 4), log, WIDE)

    def test_support_above_the_ceiling_rejected(self):
        t, log = three_lane_log()
        with pytest.raises(NotACycle):
            spectral_value({"c1": 1}, F(1, 4), log, Window.constant(F(1, 2), F(3, 2)))

    def test_support_below_the_floor_quotiented(self):
        t, log = three_lane_log()
        sv = spectral_value({"c1": 1, "c3": 1}, F(1, 4), log,
                            Window.constant(F(3, 2), 10))
        assert sv.value == 4 and sv.support == ("c1",)

    def test_event_parameter_rejected(self):
        t, log = three_lane_log()
        with pytest.raises(DegenerateParameter):
            spectral_value({"c1": 1}, F(3, 8), log, WIDE)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_large_window_matches_span_oracle(self, data):
        # 21 to 24 generators: greedy reduction stays certified and
        # agrees with enumerating the image span
        n = data.draw(st.integers(21, 24), label="generators")
        ids = ["c%02d" % k for k in range(n)]
        heights = [10 * (n - k) for k in range(n)]
        arcs = tuple(chord(i, [(0, h), (1, h)]) for i, h in zip(ids, heights))
        t = CerfTuple(arcs)
        split = data.draw(st.integers(1, n - 1), label="split")
        entries = {(ids[0], ids[split]): 1}
        for i in range(split):
            for j in range(split, n):
                if data.draw(st.booleans(), label="g%d,%d" % (i, j)):
                    entries[(ids[i], ids[j])] = 1
        log = evolve(counter(Z2, ids, entries), [], t)
        rep = {ids[j]: 1 for j in range(split, n)
               if data.draw(st.booleans(), label="rep%d" % j)}
        sv = spectral_value(rep, F(1, 3), log, wide_window(t))
        assert sv.certified
        dense = [[entries.get((r, c), 0) for c in ids] for r in ids]
        rep_bits = sum(1 << ids.index(g) for g in rep)
        want = oracles.z2_spectral_span(
            rep_bits, oracles.z2_matrix_to_rowmasks(dense), heights)
        assert sv.value == want

    def test_integer_coefficients_certified(self):
        t, log = three_lane_log(ring=Z)
        sv = spectral_value({"c1": 1}, F(1, 4), log, WIDE)
        assert sv.value == 4 and sv.certified

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_integer_greedy_agrees_with_solvability_oracle(self, data):
        """Over Z, no element of rep + im(d) leads below the greedy lead,
        decided by integer solvability (oracles.z_least_lead)."""
        n = data.draw(st.integers(1, 6), label="generators")
        order = ["g%d" % k for k in range(n)]
        entries = {(g, c): data.draw(st.integers(-4, 4), label="d")
                   for g in data.draw(st.lists(st.sampled_from(order),
                                               unique=True, max_size=4))
                   for c in order}
        d = SparseMatrix(Z, order, order, entries)
        rep = {g: data.draw(st.integers(-6, 6), label="rep") for g in order}
        support = tracker._coset_minimize(Z, d, rep, order)
        lead = order.index(support[0]) if support else n
        rows = [[d.entry(g, c) for c in order] for g in order]
        assert lead == oracles.z_least_lead([rep[g] for g in order], rows)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_integer_families_certified_and_tight(self, seed):
        sc = randgen.random_scenario(random.Random(seed), Z)
        log = evolve(sc.gamma0, sc.events, sc.family)
        t = sc.family
        for fc in log.intervals:
            r = fc.midpoint()
            gens = oracles.in_window_at(t, WIDE_Z, r)
            order = oracles.descending_order(t, gens, r)
            d = fc.gamma.restrict(gens)
            rows = [[d.entry(g, c) for c in order] for g in order]
            # spectral_value orders only what the class or d holds, and
            # its support is the one on the whole order
            held = set().union(*d.entries)
            minimize = tracker._coset_minimize
            for g in order:
                if any(rows[order.index(g)]):
                    continue             # not a cycle
                orders = []

                def spy(ring, d_, rep, order_):
                    orders.append(list(order_))
                    return minimize(ring, d_, rep, order_)
                with mock.patch.object(tracker, "_coset_minimize", spy):
                    sv = spectral_value({g: 1}, r, log, WIDE_Z)
                assert orders == [[x for x in order if x == g or x in held]]
                assert sv.support == minimize(Z, d, {g: 1}, order)
                lead = oracles.z_least_lead([int(x == g) for x in order], rows)
                assert sv.certified
                assert sv.top == (order[lead] if lead < len(order) else None)

    def test_rational_coefficients_certified(self):
        t, log = three_lane_log(ring=Q)
        sv = spectral_value({"c1": 1}, F(1, 4), log, WIDE)
        assert sv.value == 4 and sv.certified

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_greedy_agrees_with_bruteforce(self, data):
        n = data.draw(st.integers(2, 12), label="generators")
        ids = ["c%d" % k for k in range(n)]
        heights = [10 * (n - k) for k in range(n)]
        arcs = tuple(chord(i, [(0, h), (1, h)]) for i, h in zip(ids, heights))
        t = CerfTuple(arcs)
        split = data.draw(st.integers(1, n - 1), label="split")
        entries = {}
        for i in range(split):
            for j in range(split, n):
                if data.draw(st.booleans(), label="g%d%d" % (i, j)):
                    entries[(ids[i], ids[j])] = 1
        log = evolve(counter(Z2, ids, entries), [], t)
        rep = {}
        rep_bits = 0
        for j in range(split, n):
            if data.draw(st.booleans(), label="rep%d" % j):
                rep[ids[j]] = 1
                rep_bits |= 1 << j
        sv = spectral_value(rep, F(1, 3), log, wide_window(t))
        assert sv.certified
        dense = [[entries.get((r, c), 0) for c in ids] for r in ids]
        want = oracles.z2_spectral_bruteforce(
            rep_bits, oracles.z2_matrix_to_rowmasks(dense), n, heights)
        assert sv.value == want

    def test_an_image_free_coset_is_the_representative(self):
        # with no entries in d, rep + im(d) is rep alone; its zero
        # entries are no part of the support
        order = ["g0", "g1", "g2"]
        d = SparseMatrix(Z, order, order, {})
        rep = {"g2": 3, "g0": 0, "g1": -1}
        assert tracker._coset_minimize(Z, d, rep, order) == ("g1", "g2")
        assert tracker._coset_minimize(Z, d, {"g0": 0}, order) == ()


def dense_coset_minimize(ring, d, rep, order):
    """_coset_minimize's elimination on dense rows, over any ring:
    reduce_against of rep against ordered_echelon of d's rows, taken in
    order, as the Z and Q paths run it."""
    zero = ring.zero
    rows = [[d.entries.get((g, c), zero) for c in order] for g in order
            if any((g, c) in d.entries for c in order)]
    reduced, _ = algebra.reduce_against(
        ring, [rep.get(g, zero) for g in order],
        algebra.ordered_echelon(ring, rows))
    return tuple(g for g, x in zip(order, reduced) if x != zero)


class TestBitCoset:
    """Over Z2 _coset_minimize eliminates on bit rows; its supports are
    those of the dense elimination."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_intervals_under_drawn_orders(self, seed, data):
        sc = randgen.random_scenario(random.Random(seed), Z2)
        log = evolve(sc.gamma0, sc.events, sc.family)
        for fc in log.intervals:
            for w in (WIDE_Z, Window.constant(10, 200)):
                gens = oracles.in_window_at(sc.family, w, fc.midpoint())
                d = fc.gamma.restrict(gens)
                order = data.draw(st.permutations(gens), label="order")
                rep = {g: 1 for g in data.draw(
                    st.lists(st.sampled_from(gens), unique=True)
                    if gens else st.just([]), label="rep")}
                assert tracker._coset_minimize(Z2, d, rep, order) == \
                    dense_coset_minimize(Z2, d, rep, order)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_past_64_generators(self, data):
        """Up to 70 generators, so that bit rows cross 64 bits."""
        n = data.draw(st.integers(1, 70), label="generators")
        gens = ["g%02d" % k for k in range(n)]
        pairs = st.tuples(st.sampled_from(gens), st.sampled_from(gens))
        d = SparseMatrix(Z2, gens, gens, dict.fromkeys(
            data.draw(st.lists(pairs, max_size=3 * n), label="d"), 1))
        rep = dict.fromkeys(data.draw(
            st.lists(st.sampled_from(gens), unique=True), label="rep"), 1)
        order = data.draw(st.permutations(gens), label="order")
        assert tracker._coset_minimize(Z2, d, rep, order) == \
            dense_coset_minimize(Z2, d, rep, order)


class TestFullHomology:
    def test_ladder_stabilizes(self):
        t, log = three_lane_log()
        lad = [Window.constant(F(1, 2), F(3, 2)), Window.constant(F(1, 4), 7),
               WIDE, Window.constant(-5, 20)]
        rep = full_homology(t, log, F(1, 4), lad)
        assert rep.stabilized is not None and rep.stabilized.free_rank == 1
        assert "stabilized" in rep.message
        # the class of the bottom lane dies when the middle lane enters
        assert rep.legs[0].incl_rank == 0 and not rep.legs[0].incl_iso
        assert rep.legs[1].proj_iso and rep.legs[1].incl_iso

    def test_shallow_ladder_not_stabilized(self):
        t, log = three_lane_log()
        lad = [Window.constant(F(1, 2), F(3, 2)), Window.constant(F(1, 4), 7),
               WIDE]
        rep = full_homology(t, log, F(1, 4), lad)
        assert rep.stabilized is None
        assert rep.message == "not stabilized at this ladder depth"

    def test_repeated_wide_window_matches_unrestricted(self):
        t, log = three_lane_log()
        from morseflow.algebra import homology
        fc = log.counter_at(F(1, 4))
        rep = full_homology(t, log, F(1, 4), [WIDE, WIDE, WIDE])
        assert rep.stabilized == homology(fc.gamma)

    def test_non_nested_rejected(self):
        t, log = three_lane_log()
        with pytest.raises(NonNestedLadder):
            full_homology(t, log, F(1, 4), [WIDE, Window.constant(F(1, 2), 7)])

    def test_empty_ladder_rejected(self):
        t, log = three_lane_log()
        with pytest.raises(NonNestedLadder):
            full_homology(t, log, F(1, 4), [])

    def test_event_parameter_rejected(self):
        t, log = three_lane_log()
        with pytest.raises(DegenerateParameter):
            full_homology(t, log, F(3, 8), [WIDE, WIDE, WIDE])

    # randgen's lanes and bubbles clear each of these levels
    LEVELS = [-20, -5, 10, F(55, 2), F(65, 2), F(75, 2), 50, 75, 85, 95, 110]

    def random_ladders(self, seed, ring):
        """Ten random nested ladders of 2-4 windows over randgen families
        over ring, each at a random interval midpoint r: yields the
        report of full_homology, the windows' in-window generators, the
        legs' (intermediate, narrower, wider) generators and a reader of
        the dense windowed count matrix on given generators."""
        rng = random.Random(seed)
        for _ in range(10):
            sc = randgen.random_scenario(rng, ring)
            t = sc.family
            log = evolve(sc.gamma0, sc.events, t)
            r = rng.choice(log.intervals).midpoint()
            gamma = log.counter_at(r).gamma
            split = rng.randrange(1, len(self.LEVELS))
            k = rng.randint(2, 4)
            floors = sorted(rng.choices(self.LEVELS[:split], k=k), reverse=True)
            ceilings = sorted(rng.choices(self.LEVELS[split:], k=k))
            rep = full_homology(t, log, r, [Window.constant(a, b)
                                            for a, b in zip(floors, ceilings)])

            def inside(a, b):
                return oracles.in_window_at(t, Window.constant(a, b), r)

            def dense(gens):
                return gamma.restrict(gens).to_dense(gens, gens)

            gens = [inside(a, b) for a, b in zip(floors, ceilings)]
            legs = [(inside(floors[i + 1], ceilings[i]), gens[i], gens[i + 1])
                    for i in range(k - 1)]
            yield rep, gens, legs, dense

    @staticmethod
    def coordinates(rows, cols):
        return [[int(g == c) for c in cols] for g in rows]

    @pytest.mark.parametrize("seed", range(4))
    def test_legs_match_z2_enumeration(self, seed):
        """Every result and leg of random nested ladders over randgen
        families, against cycle and boundary enumeration over Z2."""
        for rep, gens, legs, dense in self.random_ladders(seed, Z2):
            assert [h.free_rank for h in rep.results] == [
                oracles.z2_homology_rank(dense(g)) for g in gens]
            for leg, (mid, narrow, wide) in zip(rep.legs, legs):
                assert leg.proj_rank == oracles.z2_induced_rank(
                    dense(mid), dense(narrow), self.coordinates(mid, narrow))
                assert leg.incl_rank == oracles.z2_induced_rank(
                    dense(mid), dense(wide), self.coordinates(mid, wide))

    @pytest.mark.parametrize("ring", [Q, Z], ids=str)
    @pytest.mark.parametrize("seed", range(3))
    def test_legs_match_rational_cycle_bases(self, seed, ring):
        """Every leg of random nested ladders over randgen families over
        Q and Z, against an explicit rational cycle basis of the
        intermediate window pushed into each target and ranked with its
        boundaries (oracles.q_induced_rank); over Z the legs' ranks are
        ranks on the free part."""
        for rep, _, legs, dense in self.random_ladders(seed, ring):
            for leg, (mid, narrow, wide) in zip(rep.legs, legs):
                assert leg.proj_rank == oracles.q_induced_rank(
                    dense(mid), dense(narrow), self.coordinates(mid, narrow))
                assert leg.incl_rank == oracles.q_induced_rank(
                    dense(mid), dense(wide), self.coordinates(mid, wide))

    @pytest.mark.parametrize("seed", range(3))
    def test_integer_legs_match_rational_legs(self, seed):
        """Over Z the legs' ranks are ranks on the free part, so random
        nested ladders over randgen Z families give the same leg ranks
        and free ranks as the same families read over Q."""
        rng = random.Random(seed)
        for _ in range(10):
            sc = randgen.random_scenario(rng, Z)
            sq = parse_scenario(serialize_scenario(sc), ring=Q)
            log_z = evolve(sc.gamma0, sc.events, sc.family)
            log_q = evolve(sq.gamma0, sq.events, sq.family)
            r = rng.choice(log_z.intervals).midpoint()
            split = rng.randrange(1, len(self.LEVELS))
            k = rng.randint(2, 4)
            floors = sorted(rng.choices(self.LEVELS[:split], k=k), reverse=True)
            ceilings = sorted(rng.choices(self.LEVELS[split:], k=k))
            ladder = [Window.constant(a, b) for a, b in zip(floors, ceilings)]
            rep_z = full_homology(sc.family, log_z, r, ladder)
            rep_q = full_homology(sq.family, log_q, r, ladder)
            assert [h.free_rank for h in rep_z.results] == [
                h.free_rank for h in rep_q.results]
            assert [(l.proj_rank, l.incl_rank) for l in rep_z.legs] == [
                (l.proj_rank, l.incl_rank) for l in rep_q.legs]

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_each_window_is_derived_once(self, k, monkeypatch):
        """A k-window ladder restricts each window and each intermediate
        window once (2k - 1), and multiplies out no chain map: gamma1
        makes the legs chain maps.  Over Z2 every elimination runs on bit
        rows, once per homology (2k - 1) and once per leg (2k - 2), 4k - 3
        in all, and none through ordered_echelon.  Every window and
        intermediate window of this ladder holds entries and not every
        arc alive, so each of those eliminations has rows."""
        sc = randgen.random_scenario(random.Random(0), Z2)
        log = evolve(sc.gamma0, sc.events, sc.family)
        r = log.intervals[0].midpoint()
        bounds = [(F(65, 2), 75), (F(55, 2), 75), (F(55, 2), 85),
                  (F(55, 2), 95), (10, 95)][:k]
        ladder = [Window.constant(a, b) for a, b in bounds]
        gamma = log.counter_at(r).gamma
        # the windows, then the intermediate windows (new floor, old ceiling)
        for a, b in bounds + [(a, b) for (a, _), (_, b)
                              in zip(bounds[1:], bounds)]:
            gens = oracles.in_window_at(sc.family, Window.constant(a, b), r)
            assert len(gens) < len(gamma.rows)
            assert gamma.restrict(gens).entries
        calls = {"restrict": 0, "ordered_echelon": 0, "_bit_echelon": 0,
                 "is_chain_map": 0}

        def counted(name, fn):
            def spy(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return spy
        monkeypatch.setattr(SparseMatrix, "restrict",
                            counted("restrict", SparseMatrix.restrict))
        for name, modules in (("ordered_echelon", (algebra,)),
                              ("_bit_echelon", (algebra,)),
                              ("is_chain_map", (algebra,))):
            spy = counted(name, getattr(algebra, name))
            for module in modules:
                monkeypatch.setattr(module, name, spy)
        rep = full_homology(sc.family, log, r, ladder)
        assert len(rep.results) == k and len(rep.legs) == k - 1
        assert calls == {"restrict": 2 * k - 1, "ordered_echelon": 0,
                         "_bit_echelon": 4 * k - 3, "is_chain_map": 0}

    def test_action_order_is_checked_once_per_ladder(self):
        """A count (c3, c2) that raises action is refused where the log
        is built, so no ladder reads it: its legs need not be chain
        maps."""
        with open(data_path("ladder"), encoding="utf-8") as fh:
            text = fh.read().replace("(c2, c3) = 2", "(c3, c2) = 1")
        sc = parse_scenario(text)
        with pytest.raises(EvolutionError, match=r"entry \(c3, c2\)"):
            evolve(sc.gamma0, sc.events, sc.family)


# lanes under lanes_over_a_top's top arc, meeting in degenerate ways
DEGENERATE_MEETINGS = [
    # three arcs through (1/2, 3)
    ([("c1", [(0, 1), (1, 5)]), ("c2", [(0, 5), (1, 1)]),
      ("c3", [(0, 3), (1, 3)])], ()),
    # c2 touches c1 at 1/2 without crossing it
    ([("c1", [(0, 3), (1, 3)]), ("c2", [(0, 1), (F(1, 2), 3), (1, 1)])], ()),
    # c1 coincides with c2 on [1/4, 3/4], then separates above it
    ([("c1", [(0, 2), (F(1, 4), 3), (F(3, 4), 3), (1, 4)]),
      ("c2", [(0, 3), (1, 3)]), ("c3", [(0, 3), (F(1, 2), 3), (1, 5)])], ()),
    # c1 and c2 cross exactly at a slide
    ([("c1", [(0, 1), (1, 5)]), ("c2", [(0, 5), (1, 1)])],
     (EventRecord(F(1, 2), HandleSlide((("c1", "c0", 1),))),)),
    # the same crossing with every lane meeting there as well
    ([("c1", [(0, 1), (1, 5)]), ("c2", [(0, 5), (1, 1)]),
      ("c3", [(0, 3), (F(1, 4), 3), (F(3, 4), 4), (1, 4)]),
      ("c4", [(0, 2), (F(1, 2), 3), (1, 2)])],
     (EventRecord(F(1, 4), HandleSlide((("c3", "c0", 1),))),)),
]


class TestTrackClass:
    def test_no_events_constant_trace(self):
        t = three_lane_tuple()
        ids = ["c1", "c2", "c3"]
        log = evolve(counter(Z2, ids, {("c2", "c3"): 1}), [], t)
        tr = track_class({"c1": 1}, log, WIDE)
        assert tr.outcome == "Survived" and tr.transfers == ()
        assert all(s.rho_lo == 4 and s.rho_hi == 4 for s in tr.segments)

    def test_slide_schedule_frozen(self):
        t, log = three_lane_log()
        tr = track_class({"c1": 1}, log, WIDE)
        assert tr.outcome == "Survived"
        assert tr.transfers == ((F(3, 4), "c1", "c2"),)
        assert tr.final_value() == 6
        assert [c.representative for c in tr.classes] == [
            (("c1", 1),), (("c1", 1), ("c2", 1))]

    def test_slide_schedule_over_z(self):
        t, log = three_lane_log(ring=Z)
        tr = track_class({"c1": 1}, log, WIDE)
        assert tr.classes[1].representative == (("c1", 1), ("c2", -1))
        assert tr.final_value() == 6

    def test_birth_transfer_frozen(self):
        t = birth_tuple()
        g0 = counter(Z2, ["c1"], {})
        log = evolve(g0, [EventRecord(F(1, 2), Birth("vb", 1, (("c1", 1),)))], t)
        tr = track_class({"c1": 1}, log, Window.constant(-1, 20))
        assert tr.transfers == ((F(13, 20), "c1", "up"),)
        assert tr.final_value() == 12

    def test_class_survives_birth_and_death(self):
        t = eyeball_with_bystander()
        g0 = counter(Z2, ["c1"], {})
        log = evolve(g0, [EventRecord(F(1, 4), Birth("vb", 1, (("c1", 1),))),
                          EventRecord(F(3, 4), Death("vd"))], t)
        tr = track_class({"c1": 1}, log, Window.constant(0, 9))
        assert tr.outcome == "Survived" and tr.transfers == ()
        assert [c.representative for c in tr.classes] == [
            (("c1", 1),), (("c1", 1), ("up", 1)), (("c1", 1),)]
        assert all(s.rho_lo == 7 for s in tr.segments)

    def test_rank_preserved_across_birth_and_death(self):
        t = eyeball_with_bystander()
        g0 = counter(Z2, ["c1"], {})
        log = evolve(g0, [EventRecord(F(1, 4), Birth("vb", 1, (("c1", 1),))),
                          EventRecord(F(3, 4), Death("vd"))], t)
        w = Window.constant(0, 9)
        ranks = [filtered_homology(t, fc, fc.midpoint(), w).free_rank
                 for fc in log.intervals]
        assert ranks == [1, 1, 1]

    def test_class_dying_in_a_death_leaves_below(self):
        t = u_death_tuple()
        g0 = counter(Z2, ["up", "dn"], {("up", "dn"): 1})
        log = evolve(g0, [EventRecord(F(3, 4), Death("vd"))], t)
        tr = track_class({"dn": 1}, log, Window.constant(-1, 8))
        assert tr.outcome == "LeftWindow(below)"
        assert tr.final_value() == NEG_INF
        assert tr.classes[-1].representative == ()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ring=st.sampled_from([Z2, Z]),
           tier=st.booleans())
    def test_slabs_match_per_interval_crossings(self, seed, ring, tier):
        sc = randgen.random_scenario(random.Random(seed), ring)
        log = evolve(sc.gamma0, sc.events, sc.family)
        w = Window.constant(10, 200) if tier else wide_window(sc.family)
        trace = assert_sweep_matches_reference({"l1": 1}, log, w)
        assert trace.segments

    def test_random_families_reach_both_kinds_of_interval(self):
        # the randgen cases above meet intervals whose windowed
        # differential is empty and intervals with an in-window generator
        # that neither the class nor the differential holds
        kinds = collections.Counter()
        for seed, ring, tier in itertools.product(range(6), (Z2, Z),
                                                  (False, True)):
            sc = randgen.random_scenario(random.Random(seed), ring)
            log = evolve(sc.gamma0, sc.events, sc.family)
            w = Window.constant(10, 200) if tier else wide_window(sc.family)
            assert_sweep_matches_reference({"l1": 1}, log, w, kinds)
        assert kinds["empty"] > 0 and kinds["untouched"] > 0

    @pytest.mark.parametrize("n", [0, 1, 4, 7])
    def test_cascade_slabs_match_per_interval_crossings(self, n):
        t, fc0, events = build_cascade(n)
        log = evolve(fc0, events, t)
        trace = assert_sweep_matches_reference({"c1": 1}, log, wide_window(t))
        assert len(trace.segments) > n

    def test_tracking_builds_no_comparison_map(self, monkeypatch):
        # the first track built every event's maps; a second only reads
        # them
        runs = []
        t, fc0, events = build_cascade(6)
        runs.append((evolve(fc0, events, t), wide_window(t)))
        t = eyeball_with_bystander()
        log = evolve(counter(Z2, ["c1"], {}),
                     [EventRecord(F(1, 4), Birth("vb", 1, (("c1", 1),))),
                      EventRecord(F(3, 4), Death("vd"))], t)
        runs.append((log, wide_window(t)))
        want = [track_class({"c1": 1}, log, w) for log, w in runs]

        def refuse(*args, **kwargs):
            raise AssertionError("a comparison map was built again")
        for module, name in [(bifurcation, "ChainMapBundle"),
                             (bifurcation, "_pair_maps"),
                             (bifurcation, "_nilpotent_series"),
                             (algebra, "is_chain_map")]:
            monkeypatch.setattr(module, name, refuse)
        assert [track_class({"c1": 1}, log, w) for log, w in runs] == want

    def test_three_lane_slabs_match_per_interval_crossings(self):
        _, log = three_lane_log()
        trace = assert_sweep_matches_reference({"c1": 1}, log, WIDE)
        assert any(s.r_lo == F(3, 4) for s in trace.segments)

    @staticmethod
    def lanes_over_a_top(lanes, events=()):
        """Chords named by lanes, under a top arc t at 9 whose boundary is
        the sum of the two first lanes, so the tracked class c1 may move
        onto c2; c0 at -9 sits below everything."""
        arcs = [chord(aid, pts) for aid, pts in lanes]
        arcs += [chord("t", [(0, 9), (1, 9)]), chord("c0", [(0, -9), (1, -9)])]
        t = CerfTuple(tuple(arcs))
        ids = [a.id for a in arcs]
        return evolve(counter(Z2, ids, {("t", "c1"): 1, ("t", "c2"): 1}), events, t)

    @pytest.mark.parametrize("lanes, events", DEGENERATE_MEETINGS)
    def test_degenerate_meetings_match_the_reference(self, lanes, events):
        log = self.lanes_over_a_top(lanes, events)
        for h0 in ({"c1": 1}, {"c1": 1, "c0": 1}, {"c2": 1, "t": 0}):
            trace = assert_sweep_matches_reference(h0, log, Window.constant(-10, 10))
            assert trace.outcome == "Survived"

    def test_invalid_window_outcome(self):
        # c2 climbs from 2 to 6, through both cutoffs of (3, 5): every
        # reader of the window rejects it alike
        t, log = three_lane_log()
        w = Window.constant(3, 5)
        with pytest.raises(InvalidWindow):
            track_class({"c1": 1}, log, w)
        with pytest.raises(InvalidWindow):
            spectral_value({"c1": 1}, F(1, 4), log, w)
        with pytest.raises(InvalidWindow):
            filtered_homology(t, log.counter_at(F(1, 4)), F(1, 4), w)
        with pytest.raises(InvalidWindow):
            full_homology(t, log, F(1, 4), [w])

    def test_jump_across_a_slide_detected(self):
        # tamper the first slide's stored forward map so that it sends c1
        # to c2 alone: the value would jump from 1 down to 1/8
        t, gamma0, events = build_cascade(3)
        log = evolve(gamma0, events, t)
        step = log.steps[0]
        ring = step.maps.forward.ring
        fwd = SparseMatrix(ring, step.maps.forward.rows, step.maps.forward.cols,
                           {(g, "c2" if g == "c1" else g): ring.one
                            for g in step.maps.forward.rows})
        tampered = step.maps._replace(forward=fwd)
        bad = step._replace(build_maps=lambda: tampered)
        log = log._replace(steps=(bad,) + log.steps[1:])
        with pytest.raises(VerificationFailed,
                           match="spectral value jumped across the slide at r=1/9"):
            track_class({"c1": 1}, log, wide_window(t))

    def test_not_a_cycle_rejected(self):
        t, log = three_lane_log()
        with pytest.raises(NotACycle):
            track_class({"c2": 1}, log, WIDE)

    def test_chain_on_unborn_arc_rejected(self):
        t = eyeball_with_bystander()
        g0 = counter(Z2, ["c1"], {})
        log = evolve(g0, [EventRecord(F(1, 4), Birth("vb", 1, ())),
                          EventRecord(F(3, 4), Death("vd"))], t)
        with pytest.raises(NotACycle):
            track_class({"up": 1}, log, Window.constant(0, 9))

    def test_boundary_class_tracks_at_minus_inf(self):
        t, log = three_lane_log()
        tr = track_class({"c3": 1}, log, WIDE)
        assert tr.outcome == "Survived"
        assert all(s.rho_lo == NEG_INF for s in tr.segments)

    def test_table_serialization(self):
        t, log = three_lane_log()
        text = track_class({"c1": 1}, log, WIDE).table()
        lines = text.splitlines()
        assert lines[0].startswith("r_lo\tr_hi")
        assert any(line.startswith("# transfer at r=3/4") for line in lines)
        assert lines[-1] == "# outcome: Survived"

    def test_trace_is_contiguous(self):
        t, log = three_lane_log()
        tr = track_class({"c1": 1}, log, WIDE)
        assert tr.segments[0].r_lo == 0 and tr.segments[-1].r_hi == 1
        for a, b in zip(tr.segments, tr.segments[1:]):
            assert a.r_hi == b.r_lo


def assert_merged_fine_trace(h0, log, w):
    """track_class's trace equals oracles.merge_slabs of the finer
    reference trace: reference_slabs cut at every meeting of two
    in-window arcs, each slab's support _coset_minimize's on its whole
    reference order, and its values the top's, by profile_value.
    Returns the trace and the number of finer slabs."""
    t = log.family
    trace = track_class(h0, log, w)
    reps = {c.interval_index: dict(c.representative) for c in trace.classes
            if c.representative}
    cosets, fine = {}, []
    for i, lo, hi, order in reference_slabs(log, w, reps, every_pair=True):
        d = log.intervals[i].gamma.restrict(order)
        cosets[i] = set(reps[i]).union(*d.entries)
        support = tracker._coset_minimize(log.ring, d, reps[i], order)
        top = support[0] if support else None
        fine.append((i, lo, hi, support, top) + (
            (NEG_INF, NEG_INF) if top is None else tuple(
                oracles.profile_value(t.arc(top).f3.points, r)
                for r in (lo, hi))))
    assert oracles.merge_slabs(fine, cosets, t) == [
        (s.interval_index, s.r_lo, s.r_hi, s.support, s.top, s.rho_lo,
         s.rho_hi) for s in trace.segments]
    return trace, len(fine)


class TestMergeOracle:
    """A slab bound is a meeting of two of the class's coset generators:
    the trace is the finer one, cut at every meeting of two in-window
    arcs, merged across every other bound."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ring=st.sampled_from([Z2, Z, Q]),
           tier=st.booleans())
    def test_random_families(self, seed, ring, tier):
        sc = randgen.random_scenario(random.Random(seed), ring)
        log = evolve(sc.gamma0, sc.events, sc.family)
        w = Window.constant(10, 200) if tier else wide_window(sc.family)
        hs = [{"l1": 1}]
        if any(a.id == "l2" for a in sc.family.arcs):
            hs.append({"l1": 1, "l2": 1})
        for h0 in hs:
            assert_merged_fine_trace(h0, log, w)

    @pytest.mark.parametrize("n", [6, 12, 30])
    def test_cascades(self, n):
        # a lane that has not yet slid into the class is no coset
        # generator, so its crossings with the lanes below cut no slab
        t, fc0, events = build_cascade(n)
        log = evolve(fc0, events, t)
        trace, fine = assert_merged_fine_trace({"c1": 1}, log, wide_window(t))
        assert len(trace.transfers) == n
        assert n < len(trace.segments) < fine

    def test_degenerate_meetings(self):
        merged = 0
        for lanes, events in DEGENERATE_MEETINGS:
            log = TestTrackClass.lanes_over_a_top(lanes, events)
            for h0 in ({"c1": 1}, {"c1": 1, "c0": 1}, {"c2": 1, "t": 0}):
                trace, fine = assert_merged_fine_trace(
                    h0, log, Window.constant(-10, 10))
                merged += fine - len(trace.segments)
        assert merged > 0


class TestNonzeroStaysNonzero:
    @pytest.mark.parametrize("over_z", [False, True])
    def test_a_class_lost_on_a_later_interval_raises(self, over_z):
        # a minimization that finds the class zero after the first
        # interval breaks the invariant, and the trace refuses it, over
        # Z2 and over the integers
        t, log = three_lane_log(Z if over_z else Z2)
        minimize = tracker._coset_minimize
        first = []

        def lose(ring, d, rep, order):
            if not first:
                first.append(d)
            if d is not first[0]:
                return ()
            return minimize(ring, d, rep, order)
        assert track_class({"c1": 1}, log, WIDE).segments[-1].top == "c2"
        with mock.patch.object(tracker, "_coset_minimize", lose):
            with pytest.raises(VerificationFailed, match="turned zero"):
                track_class({"c1": 1}, log, WIDE)

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ring=st.sampled_from([Z2, Z, Q]),
           tier=st.booleans())
    def test_no_random_trace_turns_zero_or_back(self, seed, ring, tier):
        sc = randgen.random_scenario(random.Random(seed), ring)
        log = evolve(sc.gamma0, sc.events, sc.family)
        w = Window.constant(10, 200) if tier else wide_window(sc.family)
        hs = [{"l1": 1}]
        if any(a.id == "l2" for a in sc.family.arcs):
            hs.append({"l1": 1, "l2": 1})
        for h0 in hs:
            trace = track_class(h0, log, w)
            assert len({s.top is None for s in trace.segments}) <= 1


def tie_log():
    """Z2 lanes a, b and c through (1/2, 3), and d coinciding with c on
    [1/4, 3/4], so d meets a and b there too; t1 bounds c + d and t2
    bounds a + b, so the class of c is that of d, and a's is b's."""
    arcs = (chord("t1", [(0, 9), (1, 9)]), chord("t2", [(0, 8), (1, 8)]),
            chord("a", [(0, 1), (1, 5)]), chord("b", [(0, 5), (1, 1)]),
            chord("c", [(0, 3), (1, 3)]),
            chord("d", [(0, 2), (F(1, 4), 3), (F(3, 4), 3), (1, 4)]))
    t = CerfTuple(arcs)
    ids = [a.id for a in arcs]
    gamma = {("t1", "c"): 1, ("t1", "d"): 1, ("t2", "a"): 1, ("t2", "b"): 1}
    return evolve(counter(Z2, ids, gamma), [], t)


class TestTies:
    W = Window.constant(-10, 10)

    def bruteforce(self, log, h0, r):
        """The spectral value of h0 at r, from z2_spectral_bruteforce on
        the arcs in the window at r."""
        t = log.family
        gens = oracles.in_window_at(t, self.W, r)
        gamma = log.intervals[0].gamma      # the family has no events
        dense = [[gamma.entry(g, c) for c in gens] for g in gens]
        heights = [oracles.profile_value(t.arc(g).f3.points, r) for g in gens]
        rep_bits = sum(1 << i for i, g in enumerate(gens) if h0.get(g))
        return oracles.z2_spectral_bruteforce(
            rep_bits, oracles.z2_matrix_to_rowmasks(dense), len(gens), heights)

    @pytest.mark.parametrize("h0", [{"c": 1}, {"d": 1}, {"a": 1},
                                    {"a": 1, "c": 1}, {"c": 1, "d": 1}])
    def test_both_sweeps_match_the_reference_and_bruteforce(self, h0):
        log = tie_log()
        assert validate_cerf(log.family).ok
        trace = assert_sweep_matches_reference(h0, log, self.W)
        want = [(i, lo, hi) for i, lo, hi, _ in
                reference_slabs(log, self.W, {0: h0})]
        assert [(s.interval_index, s.r_lo, s.r_hi)
                for s in trace.segments] == want
        for s in trace.segments:
            mid = (s.r_lo + s.r_hi) / 2
            at_mid = (NEG_INF if s.top is None else
                      oracles.profile_value(log.family.arc(s.top).f3.points, mid))
            for r, v in ((s.r_lo, s.rho_lo), (s.r_hi, s.rho_hi), (mid, at_mid)):
                assert v == self.bruteforce(log, h0, r)

    def test_three_pairs_share_one_bound(self):
        log = tie_log()
        cuts = tracker._window_cuts(self.W, log.family)
        met = [(g1, g2) for x, _, _, g1, g2 in cuts if x == F(1, 2)]
        assert len(met) >= 3
        trace = track_class({"a": 1}, log, self.W)
        assert [s.r_lo for s in trace.segments].count(F(1, 2)) == 1
        assert trace.transfers == ((F(1, 2), "a", "b"),)

    def test_a_tie_goes_to_the_greater_id(self):
        # c and d tie on [1/4, 3/4]: the order puts c first, so the
        # greedy pushes the class of c down onto d until d rises past c
        log = tie_log()
        trace = track_class({"c": 1}, log, self.W)
        assert trace.transfers == ((F(3, 4), "d", "c"),)
        assert all(s.rho_hi == 3 for s in trace.segments
                   if F(1, 4) <= s.r_lo < F(3, 4))


class TestIntervalGenerators:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ring=st.sampled_from([Z2, Z]),
           tier=st.booleans())
    def test_read_off_the_matrix_equals_the_midpoint_scan(self, seed, ring, tier):
        sc = randgen.random_scenario(random.Random(seed), ring)
        t = sc.family
        log = evolve(sc.gamma0, sc.events, t)
        w = Window.constant(10, 200) if tier else wide_window(t)
        for fc in log.intervals:
            assert window_gens(t, w, fc) == \
                oracles.in_window_at(t, w, fc.midpoint())

    def test_midpoint_computed_once(self):
        fc = counter(Z2, ["c1"], {})
        assert "_midpoint" not in vars(fc)
        assert fc.midpoint() == F(1, 2) and fc.midpoint() is fc.midpoint()

    def test_tracking_scans_no_arc_list(self, monkeypatch):
        t, fc0, events = build_cascade(5)
        log = evolve(fc0, events, t)
        w = wide_window(t)
        want = track_class({"c1": 1}, log, w)

        def refuse(*args):
            raise AssertionError("track_class scanned the alive arcs")
        monkeypatch.setattr(type(t), "arcs_alive", refuse)
        assert track_class({"c1": 1}, log, w) == want

    def test_window_readers_scan_no_arc_list(self, monkeypatch):
        t, log = eyeball_log()
        w = Window.constant(0, 9)
        ladder = [Window.constant(F(1, 2), 8), w, WIDE]

        def read():
            return ([filtered_homology(t, fc, fc.midpoint(), w)
                     for fc in log.intervals],
                    spectral_value({"c1": 1}, F(1, 2), log, w),
                    full_homology(t, log, F(1, 2), ladder))
        want = read()

        def refuse(*args):
            raise AssertionError("a window reader scanned the alive arcs")
        monkeypatch.setattr(type(t), "arcs_alive", refuse)
        assert read() == want


def pushed_away(trace, log, w):
    """The entries each push of trace dropped, by a midpoint reference:
    each lies below the floor on the interval pushed into, and the push
    keeps every other entry of the forward image as it is."""
    dropped = []
    for before, after in zip(trace.classes, trace.classes[1:]):
        forward = log.steps[before.interval_index].maps.forward
        image = vec_apply(log.ring, dict(before.representative), forward)
        kept = dict(after.representative)
        r = log.intervals[after.interval_index].midpoint()
        assert kept == {g: v for g, v in image.items() if g in kept}
        for g in image.keys() - kept.keys():
            assert (oracles.profile_value(log.family.arc(g).f3.points, r)
                    < oracles.profile_value(w.a.points, r))
            dropped.append(g)
    return dropped


class TestPush:
    def test_an_entry_pushed_away_lies_below_the_floor(self):
        """No class leaves a window above (track_class gives the proof):
        every cycle on one or two in-window generators at r=0, in the
        geometry probe's windows on randgen families with 0-6 events,
        is carried by the forward image restricted to the window, and
        each entry the restriction drops lies below the floor."""
        drops = 0
        with within(15):
            for ring in (Z2, Z, Q):
                scales = (1,) if ring is Z2 else (1, -1)
                for seed in range(30):
                    rng = random.Random("push %s/%d" % (ring.name, seed))
                    sc = randgen.random_scenario(rng, ring)
                    t = sc.family
                    log = evolve(sc.gamma0, sc.events, t)
                    walk = random.Random("push walk %s/%d" % (ring.name, seed))
                    for _, w in differential.geometry_windows(t, rng, walk):
                        if window_violation(w, t) is not None:
                            continue
                        gens = oracles.in_window_at(
                            t, w, log.intervals[0].midpoint())
                        hs = [{g: 1} for g in gens] + [
                            {g1: 1, g2: c} for g1, g2
                            in itertools.combinations(gens, 2) for c in scales]
                        for h in hs:
                            try:
                                trace = track_class(h, log, w)
                            except NotACycle:
                                continue
                            assert trace.outcome in ("Survived",
                                                     "LeftWindow(below)")
                            drops += len(pushed_away(trace, log, w))
        assert drops > 0

    def test_each_interval_window_is_derived_once(self, monkeypatch):
        """A trace reads each interval's in-window generators once per
        interval it reaches, and restricts interval 0's complex once, in
        a window that does not hold every arc alive there."""
        sc = randgen.random_scenario(random.Random(17), Z2)
        log = evolve(sc.gamma0, sc.events, sc.family)
        w = Window.constant(F(65, 2), 200)
        first = log.intervals[0]
        assert len(window_gens(sc.family, w, first)) < len(first.gamma.rows)
        u_log = evolve(counter(Z2, ["up", "dn"], {("up", "dn"): 1}),
                       [EventRecord(F(3, 4), Death("vd"))], u_death_tuple())
        reads, restricted = [], []
        interval_gens = tracker._interval_gens
        restrict = SparseMatrix.restrict

        def read(inside, fc):
            reads.append(fc.interval_index)
            return interval_gens(inside, fc)

        def counted(m, gens):
            restricted.append(m)
            return restrict(m, gens)
        monkeypatch.setattr(tracker, "_interval_gens", read)
        monkeypatch.setattr(SparseMatrix, "restrict", counted)
        trace = track_class({"u1": 1}, log, w)
        assert trace.outcome == "Survived"
        assert reads == list(range(len(log.intervals)))
        assert sum(m is first.gamma for m in restricted) == 1
        reads.clear()
        trace = track_class({"dn": 1}, u_log, Window.constant(-1, 8))
        assert trace.outcome == "LeftWindow(below)"
        assert reads == [c.interval_index for c in trace.classes] == [0, 1]


class TestIntegerPoints:
    @pytest.mark.parametrize("tier", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_profile_converts_once(self, seed, tier, monkeypatch):
        """A profile converts its points to integers once, when it is made:
        validate_axioms, evolve, filtered_homology and track_class make no
        profile, and the family's arcs and the window's cutoffs keep the
        integer points they were made with."""
        sc = randgen.random_scenario(random.Random(seed), Z)
        t = sc.family
        w = Window.constant(10, 200) if tier else wide_window(t)
        profiles = [a.f3 for a in t.arcs] + [w.a, w.b]
        kept = [pw.ints for pw in profiles]
        made = []
        init = Piecewise.__init__

        def spy(pw, points):
            made.append(pw)
            init(pw, points)
        monkeypatch.setattr(Piecewise, "__init__", spy)

        bifurcation.validate_axioms(sc.gamma0, sc.events, t)
        log = evolve(sc.gamma0, sc.events, t)
        for fc in log.intervals:
            filtered_homology(t, fc, fc.midpoint(), w)
        track_class({"l1": 1}, log, w)
        track_class({"l1": 1}, log, w)
        assert made == []
        assert all(pw.ints is ints for pw, ints in zip(profiles, kept))


def outcome(fn, *args):
    """fn(*args), or the class name and message of the error it raises."""
    try:
        return fn(*args)
    except (InvalidWindow, OutOfRange) as e:
        return "%s: %s" % (type(e).__name__, e)


def reversed_copies(gamma):
    """gamma with each of its entries reversed in turn, one at a time."""
    for (c1, c2), v in gamma.items():
        entries = dict(gamma.entries)
        del entries[c1, c2]
        entries[c2, c1] = v
        yield SparseMatrix(gamma.ring, gamma.rows, gamma.cols, entries)


def range_readers(t, w, counters):
    """What each reader of a value range decides: window_violation, the
    window's sides and cuts, and the action-order violations of each
    (gamma, r_lo, r_hi) in counters, from an empty slot."""
    with mock.patch.object(tracker, "_prepared", None):
        why = outcome(window_violation, w, t)
        got = outcome(tracker._window, w, t)
        cuts = got if isinstance(got, str) else tracker._window_cuts(w, t)
        return why, got, cuts, [
            outcome(bifurcation._triangularity_violations, gamma, t, lo, hi)
            for gamma, lo, hi in counters]


def walk_only(fn, *args):
    """fn(*args) with every range test deciding nothing, so that every
    sign test walks."""
    never = lambda rf, rg: 0
    with mock.patch.object(tracker, "_apart", never), \
            mock.patch.object(bifurcation, "_apart", never):
        return fn(*args)


class TestValueRanges:
    """The range test (piecewise._range, _apart) only skips walks whose
    verdict it already knows."""

    @settings(max_examples=60, deadline=None)
    @given(fw=family_and_window(), seed=st.integers(0, 2**32 - 1))
    def test_readers_agree_with_the_walk_alone(self, fw, seed):
        t, w = fw
        sc = randgen.random_scenario(random.Random(seed), Z)
        log = evolve(sc.gamma0, sc.events, sc.family)
        for fam, counters in ((t, []), (sc.family, [
                (gamma, fc.r_lo, fc.r_hi) for fc in log.intervals
                for gamma in [fc.gamma, *reversed_copies(fc.gamma)]])):
            got = range_readers(fam, w, counters)
            assert got == walk_only(range_readers, fam, w, counters)

    def test_readers_agree_with_the_walk_on_lives_the_walk_refuses(self):
        # c ends at 3/8, inside the interval (0, 1/2), and e leaves [0, 1]:
        # their ranges are apart from every other.  The window's readers
        # walk and raise as they would without the range test; the
        # action-order reader lets the range decide, since evolve refuses
        # an entry on a life cut short before that reader runs
        c = chord("c", [(0, 5), (F(3, 8), 5)])
        d = chord("d", [(0, 1), (1, 1)])
        e = Arc("e", Piecewise([(0, 20), (F(3, 2), 20)]), BoundaryAt0(),
                BoundaryAt0())
        gamma = SparseMatrix(Z2, ("c", "d"), ("c", "d"), {("c", "d"): 1})
        counters = [(gamma, F(0), F(1, 2)), (gamma, F(0), F(1, 4))]
        for t in (CerfTuple((c, d)), CerfTuple((c, d, e))):
            for w in (Window.constant(0, 10), Window.constant(2, 30)):
                got = range_readers(t, w, counters)
                walked = walk_only(range_readers, t, w, counters)
                assert got[:3] == walked[:3]
                assert got[3] == [[], []]
                assert "outside domain" in walked[3][0] and walked[3][1] == []
        assert "outside domain" in got[0]

    @pytest.mark.parametrize("tier", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_separated_ranges_are_never_walked(self, seed, tier):
        """window_violation walks no arc/cutoff pair, and no floor and
        ceiling, whose ranges are apart; the window's cuts walk each
        in-window pair whose lives meet and whose ranges overlap once,
        and no other."""
        sc = randgen.random_scenario(random.Random(seed), (Z2, Z)[seed % 2])
        t = sc.family
        log = evolve(sc.gamma0, sc.events, t)
        w = Window.constant(10, 200) if tier else wide_window(t)
        walked, crossed = [], []
        walk, cross = tracker._walk, tracker.crossings

        def spy_walk(f, g, lo, hi):
            walked.append((f, g))
            return walk(f, g, lo, hi)

        def spy_cross(f, g):
            crossed.append((id(f), id(g)))
            return cross(f, g)
        with mock.patch.object(tracker, "_prepared", None), \
                mock.patch.object(tracker, "_walk", spy_walk), \
                mock.patch.object(tracker, "crossings", spy_cross):
            inside = tracker._window(w, t)[1]
            for _ in range(2):
                track_class({"l1": 1}, log, w)
        assert all(_apart(_range(f), _range(g)) == 0 for f, g in walked)
        want = []
        for g1, g2 in itertools.combinations(inside, 2):
            f1, f2 = t.arc(g1).f3, t.arc(g2).f3
            if (f1.r_lo <= f2.r_hi and f2.r_lo <= f1.r_hi
                    and not _apart(_range(f1), _range(f2))):
                want.append((id(f1), id(f2)))
        assert crossed == want


class TestEventInvariance:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_single_slide_preserves_filtered_homology(self, data):
        ring = data.draw(st.sampled_from([Z2, Z, Q]), label="ring")
        n = data.draw(st.integers(3, 6), label="lanes")
        ids = ["c%d" % k for k in range(n)]
        heights = [10 * (n - k) for k in range(n)]
        arcs = tuple(chord(i, [(0, h), (1, h)]) for i, h in zip(ids, heights))
        t = CerfTuple(arcs)
        split = data.draw(st.integers(1, n - 1), label="split")
        entries = {}
        for i in range(split):
            for j in range(split, n):
                v = data.draw(st.integers(-3, 3), label="g%d%d" % (i, j))
                if v:
                    entries[(ids[i], ids[j])] = v
        i = data.draw(st.integers(0, n - 2), label="slide_i")
        j = data.draw(st.integers(i + 1, n - 1), label="slide_j")
        v = data.draw(st.sampled_from([-2, -1, 1, 2]), label="slide_v")
        ev = EventRecord(F(1, 2), HandleSlide(((ids[i], ids[j], v),)))
        log = evolve(counter(ring, ids, entries), [ev], t)
        w = wide_window(t)
        before = filtered_homology(t, log.intervals[0], F(1, 4), w)
        after = filtered_homology(t, log.intervals[1], F(3, 4), w)
        assert before == after
        bun = continuation_map(ev, log)
        ident = SparseMatrix.identity(ring, bun.forward.rows)
        assert bun.forward.mul(bun.backward) == ident
        assert bun.backward.mul(bun.forward) == ident
