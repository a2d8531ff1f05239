"""Family data model: validation, the premises of its loops-and-chords
proof, crossings of the front, lifting."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseflow.cerf import (Arc, BirthVertex, BoundaryAt0, BoundaryAt1,
                            CerfTuple, DeathVertex, Vertex,
                            _segments_cross, legendrian_lift, validate_cerf)
from morseflow.errors import NonIsolatedCusp, VerticalTangency
from morseflow.piecewise import Piecewise
from morseflow.rings import Z2

import randgen
from fixtures import (birth_tuple, chord, escaping_tuple, eyeball_tuple,
                      three_lane_tuple)


class TestValidate:
    def test_single_chord_valid(self):
        t = CerfTuple((chord("c", [(0, 5), (1, 5)]),))
        report = validate_cerf(t)
        assert report.ok
        # properness over compact windows is reported informationally
        assert any(f.code == "properness" for f in report.findings)

    def test_three_lanes_valid(self):
        assert validate_cerf(three_lane_tuple()).ok

    def test_eyeball_valid(self):
        assert validate_cerf(eyeball_tuple()).ok

    def test_birth_scenario_valid(self):
        assert validate_cerf(birth_tuple()).ok

    def test_half_open_footprint_rejected(self):
        report = validate_cerf(escaping_tuple())
        codes = [f.code for f in report.errors()]
        assert "C1-compactness" in codes

    def test_two_births_loop_rejected(self):
        # gluing two arcs at two birth vertices puts a birth at a high end
        a1 = Arc("a1", Piecewise([(F(1, 4), 3), (F(3, 4), 5)]),
                 BirthVertex("v1"), BirthVertex("v2"))
        a2 = Arc("a2", Piecewise([(F(1, 4), 1), (F(3, 4), 3)]),
                 BirthVertex("v1"), BirthVertex("v2"))
        v1 = Vertex("v1", "birth", F(1, 4), 3, "a1", "a2")
        v2 = Vertex("v2", "birth", F(3, 4), 5, "a1", "a2")
        t = CerfTuple((a1, a2), (v1, v2))
        report = validate_cerf(t)
        assert not report.ok
        assert any(f.code == "vertex-end" for f in report.errors())

    def test_duplicate_parameters_flagged(self):
        t = eyeball_tuple()
        report = validate_cerf(t, event_params=[F(1, 4)])
        assert any(f.code == "disjoint-parameters" for f in report.errors())

    def test_mismatched_vertex_action(self):
        up = Arc("up", Piecewise([(F(1, 4), 3), (F(3, 4), 5)]),
                 BirthVertex("vb"), DeathVertex("vd"))
        down = Arc("down", Piecewise([(F(1, 4), 2), (F(3, 4), 5)]),
                   BirthVertex("vb"), DeathVertex("vd"))
        vb = Vertex("vb", "birth", F(1, 4), 3, "up", "down")
        vd = Vertex("vd", "death", F(3, 4), 5, "up", "down")
        t = CerfTuple((up, down), (vb, vd))
        report = validate_cerf(t)
        assert any(f.code == "vertex-action" for f in report.errors())

    def test_orientation_swap_rejected(self):
        t = eyeball_tuple()
        vb = Vertex("vb", "birth", F(1, 4), 3, "down", "up")  # swapped
        bad = CerfTuple(t.arcs, (vb, t.vertices[1]))
        report = validate_cerf(bad)
        assert any(f.code == "vertex-orientation" for f in report.errors())

    def test_birth_at_the_high_end_of_its_minus_arc(self):
        # the branches share no parameter after the vertex, so their
        # order there is not judged: only the misplaced birth is reported
        up = Arc("up", Piecewise([(F(1, 4), 3), (1, 5)]),
                 BirthVertex("vb"), BoundaryAt1())
        down = Arc("down", Piecewise([(0, 1), (F(1, 4), 3)]),
                   BoundaryAt0(), BirthVertex("vb"))
        vb = Vertex("vb", "birth", F(1, 4), 3, "up", "down")
        t = CerfTuple((up, down), (vb,))
        assert [f.code for f in validate_cerf(t).errors()] == ["vertex-end"]

    def test_plus_arc_missing_the_vertex_below_is_misoriented(self):
        # the plus arc starts half a unit under the vertex, so it lies
        # below the minus arc just after it, though above it further on
        t = eyeball_tuple()
        up = t.arc("up")
        low = Piecewise(tuple((r, v - F(1, 2)) for r, v in up.f3.points))
        arcs = tuple(Arc(a.id, low, a.lo_tag, a.hi_tag) if a is up else a
                     for a in t.arcs)
        codes = [f.code for f in
                 validate_cerf(CerfTuple(arcs, t.vertices)).errors()]
        assert "vertex-action" in codes and "vertex-orientation" in codes


    def test_unrecognized_end_tag(self):
        t = CerfTuple((Arc("c", Piecewise([(0, 5), (1, 5)]), "boundary",
                           BoundaryAt1()),))
        assert [(f.code, f.message) for f in validate_cerf(t).errors()] == [
            ("unknown-tag", "arc 'c' has unrecognized lo tag 'boundary'")]


class TestLookupById:
    """CerfTuple.arc and CerfTuple.vertex: the first entry with an id wins,
    and an unknown id raises KeyError."""

    def test_first_of_two_entries_with_one_id_wins(self):
        a1 = chord("a", [(0, 5), (1, 5)])
        a2 = chord("a", [(0, 3), (1, 3)])
        v1 = Vertex("v", "birth", F(1, 2), 2, "up", "down")
        v2 = Vertex("v", "death", F(3, 4), 1, "up", "down")
        t = CerfTuple((a1, a2), (v1, v2))
        assert t.arc("a") is a1 and t.vertex("v") is v1

    def test_unknown_id_raises_key_error(self):
        t = birth_tuple()
        with pytest.raises(KeyError):
            t.arc("vb")
        with pytest.raises(KeyError):
            t.vertex("c1")


class TestDerivedComponents:
    """The premises from which validate_cerf's docstring proves that the
    components of an accepted family are loops and chords, read off the
    tags and compared with the declarations."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from((None,) + randgen.MUTATIONS))
    def test_an_accepted_family_has_loops_and_chords(self, seed, kind):
        rng = random.Random(seed)
        t = randgen.random_scenario(rng, Z2).family
        if kind is not None:
            t = randgen.mutate(rng, t, kind) or t
        if not validate_cerf(t).ok:
            return
        ends = [(a.id, tag) for a in t.arcs for tag in (a.lo_tag, a.hi_tag)]
        tagged = [(aid, tag.vertex) for aid, tag in ends
                  if isinstance(tag, (BirthVertex, DeathVertex))]
        for v in t.vertices:
            # one end each of exactly its two declared, distinct arcs
            at = [aid for aid, vid in tagged if vid == v.id]
            assert v.plus_arc != v.minus_arc
            assert sorted(at) == sorted((v.plus_arc, v.minus_arc)), v.id
        # so no end names any other vertex, and every other end is a
        # boundary
        assert len(tagged) == 2 * len(t.vertices)
        assert all(isinstance(tag, (BoundaryAt0, BoundaryAt1))
                   for _, tag in ends
                   if not isinstance(tag, (BirthVertex, DeathVertex)))


class TestFront:
    def test_three_lanes_crossings(self):
        # c2 crosses c1 exactly once: 2 + 8(r - 1/2) = 4 at r = 3/4
        from morseflow.piecewise import crossings
        t = three_lane_tuple()
        xs = crossings(t.arc("c1").f3, t.arc("c2").f3, 0, 1)
        assert xs == [F(3, 4)]


class TestLift:
    def test_parabola(self):
        # y = s, z = s^2 sampled on a fine grid: x = -2s at midpoints
        n = 16
        pts = [(F(i, n), F(i, n) ** 2) for i in range(-n, n + 1)]
        res = legendrian_lift(pts)
        assert all(r == 0 for r in res.contact_residuals)
        for k, (_, x) in enumerate(res.samples):
            s_mid = (F(k - n, n) + F(k - n + 1, n)) / 2
            assert x == -2 * s_mid
        assert res.embedded

    def test_flat(self):
        res = legendrian_lift([(0, 0), (1, 0), (2, 0)])
        assert all(x == 0 for _, x in res.samples)

    def test_vertical_segment(self):
        with pytest.raises(VerticalTangency):
            legendrian_lift([(0, 0), (0, 1)])

    def test_repeated_sample(self):
        with pytest.raises(NonIsolatedCusp):
            legendrian_lift([(0, 0), (0, 0), (1, 1)])

    def test_transverse_crossing_ok(self):
        # last stroke crosses the first with a different slope
        res = legendrian_lift([(0, 0), (4, 4), (5, 3), (0, 1)])
        assert res.embedded

    def test_one_sample_has_no_segment(self):
        with pytest.raises(VerticalTangency, match="at least two samples"):
            legendrian_lift([(0, 0)])

    @pytest.mark.parametrize("s_values", [(0, 1, 1), (0, 2, 1), (0, 1)])
    def test_parameters_must_strictly_increase(self, s_values):
        # one per sample, each above the last
        with pytest.raises(NonIsolatedCusp, match="strictly increase"):
            legendrian_lift([(0, 0), (1, 1), (2, 0)], s_values)

    @pytest.mark.parametrize("q0, q1, hit", [
        ((0, 1), (1, 2), None),
        ((2, 2), (3, 3), None),
        ((-2, -2), (-1, -1), None),
        ((F(1, 2), F(1, 2)), (3, 3), ("overlap", None)),
        ((1, 1), (2, 2), ("point", (1, 1)))],
        ids=["parallel", "collinear beyond", "collinear before", "overlapping",
             "collinear touching"])
    def test_parallel_segments_cross_only_where_they_overlap(self, q0, q1,
                                                             hit):
        assert _segments_cross((0, 0), (1, 1), q0, q1) == hit

    def test_overlap_flagged(self):
        res = legendrian_lift([(0, 0), (2, 0), (1, 1), (F(1, 2), 0), (3, 0)])
        assert any("overlap" in f for f in res.nontransverse)

    def test_straight_front_is_embedded(self):
        # consecutive collinear segments share only their breakpoint
        assert legendrian_lift([(0, 0), (1, 0), (2, 0)]).embedded

    def test_collinear_touching_is_a_nontransverse_point(self):
        # segments 1 and 5 lie on y = x - 2 and meet only at (2, 0)
        res = legendrian_lift([(0, 0), (2, 0), (3, 1), (4, 0), (3, -1),
                               (2, 0), (1, -1)])
        assert res.nontransverse == (
            "non-transverse self-intersection of segments 1 and 5 at (2, 0)",)
