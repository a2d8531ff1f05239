"""Event engine: slides, births, deaths, evolution, axiom reports."""

import random
import traceback
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
import randgen
from morseflow import bifurcation
from morseflow.bifurcation import (Birth, ChainMapBundle, Death, EventRecord,
                                   FlowCounter, HandleSlide, apply_birth,
                                   apply_death, apply_handle_slide, evolve,
                                   validate_axioms)
from morseflow.cerf import (Arc, BirthVertex, BoundaryAt0, BoundaryAt1,
                            CerfTuple, DeathVertex, Vertex)
from morseflow.cli import data_path
from morseflow.errors import (ActionConstraintViolated, ConstraintViolated,
                              CycleConditionViolated, DegenerateParameter,
                              EvolutionError, MorseflowError,
                              NonTriangularDelta, NonUnitError, NonUnitPivot)
from morseflow.matrix import SparseMatrix
from morseflow.piecewise import Piecewise
from morseflow.rings import Q, Z, Z2
from morseflow.scenario import load_scenario

from fixtures import (birth_tuple, chord, count_bundles,
                      eyeball_with_bystander, three_lane_tuple, within)


def counter(ring, ids, entries, r_lo=0, r_hi=1, index=0):
    return FlowCounter(index, r_lo, r_hi, SparseMatrix(ring, ids, ids, entries))


def slide(r, *delta):
    return EventRecord(r, HandleSlide(delta))


def lanes(ids):
    """A family of constant chords named ids, descending in that order."""
    return CerfTuple(tuple(chord(c, [(0, len(ids) - k), (1, len(ids) - k)])
                           for k, c in enumerate(ids)))


class TestHandleSlide:
    def test_zero_delta_is_identity(self):
        fc = counter(Z2, ("c1", "c2", "c3"), {("c2", "c3"): 1})
        out, build = apply_handle_slide(fc, slide(F(1, 2)),
                                        lanes(fc.gamma.rows))
        maps = build()
        assert out == fc.gamma
        ident = SparseMatrix.identity(Z2, fc.gamma.rows)
        assert maps.kind == "slide" and maps.homotopy is None
        assert maps.forward == ident and maps.backward == ident

    def test_three_lane_gains_composite(self):
        # one flow c2 -> c3; sliding c1 over c2 creates the composite c1 -> c3
        t = three_lane_tuple()
        fc = counter(Z2, ("c1", "c2", "c3"), {("c2", "c3"): 1}, 0, F(3, 8))
        out, _ = apply_handle_slide(fc, slide(F(3, 8), ("c1", "c2", 1)), t)
        assert out.entries == {("c2", "c3"): 1, ("c1", "c3"): 1}

    def test_action_order_enforced(self):
        t = three_lane_tuple()
        fc = counter(Z2, ("c1", "c2", "c3"), {}, 0, F(3, 8))
        with pytest.raises(NonTriangularDelta):
            apply_handle_slide(fc, slide(F(3, 8), ("c2", "c1", 1)), t)

    def test_non_nilpotent_rejected(self):
        # a cycle of jumps cannot point down the action order both ways
        fc = counter(Z2, ("a", "b"), {})
        with pytest.raises(NonTriangularDelta, match=r"\(b, a\) violates"):
            apply_handle_slide(fc, slide(F(1, 2), ("a", "b", 1), ("b", "a", 1)),
                               lanes(("a", "b")))

    def test_diagonal_rejected(self):
        fc = counter(Z2, ("a", "b"), {})
        with pytest.raises(NonTriangularDelta):
            apply_handle_slide(fc, slide(F(1, 2), ("a", "a", 1)),
                               lanes(("a", "b")))

    def test_unknown_arc_rejected(self):
        fc = counter(Z2, ("a", "b"), {})
        with pytest.raises(EvolutionError):
            apply_handle_slide(fc, slide(F(1, 2), ("a", "zz", 1)),
                               lanes(("a", "b")))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_square_zero_preserved_and_invertible(self, data):
        # upper lanes u*, lower lanes l*: gamma from u to l, delta within
        # each level and from u to l, all strictly down a total order
        order = ["u0", "u1", "l0", "l1"]
        gamma_entries = {}
        for i, a in enumerate(order):
            for b in order[max(i + 1, 2):]:
                if a.startswith("u") and b.startswith("l"):
                    if data.draw(st.integers(-2, 2), label="g(%s,%s)" % (a, b)):
                        gamma_entries[(a, b)] = 1
        delta = []
        for i, a in enumerate(order):
            for b in order[i + 1:]:
                v = data.draw(st.integers(-2, 2), label="d(%s,%s)" % (a, b))
                if v:
                    delta.append((a, b, v))
        fc = counter(Z, order, gamma_entries)
        assert fc.gamma.mul(fc.gamma).is_zero()
        out, _ = apply_handle_slide(fc, slide(F(1, 2), *delta), lanes(order))
        assert out.mul(out).is_zero()
        # the inverse slide restores the original exactly
        ident = SparseMatrix.identity(Z, order)
        dmat = SparseMatrix(Z, order, order, {(a, b): v for a, b, v in delta})
        inv_steps = []
        term = ident
        inv = ident
        for _ in order:
            term = term.mul(dmat.neg())
            if term.is_zero():
                break
            inv = inv.add(term)
        back_delta = [(a, b, v) for (a, b), v in inv.sub(ident).entries.items()]
        fc2 = counter(Z, order, out.entries)
        restored, _ = apply_handle_slide(fc2, slide(F(1, 2), *back_delta),
                                         lanes(order))
        assert restored == fc.gamma


class TestSlideByProducts:
    """apply_handle_slide against (I + D) G (I + D)^-1 formed by two
    products, the inverse by Gauss-Jordan (oracles.conjugate_by_products),
    and its maps against I + D and that inverse."""

    @staticmethod
    def assert_products(gamma, ev, t):
        ring, ids = gamma.ring, list(gamma.rows)
        d = SparseMatrix(ring, ids, ids, {(a, b): v for a, b, v
                                          in ev.payload.delta})
        section = [[int(i == j) + x for j, x in enumerate(row)]
                   for i, row in enumerate(d.to_dense(ids, ids))]
        want = oracles.conjugate_by_products(gamma.to_dense(ids, ids),
                                             d.to_dense(ids, ids))
        out, build = apply_handle_slide(FlowCounter(0, 0, 1, gamma), ev, t)
        maps = build()

        def reduced(dense):
            return [[ring.coerce(x) for x in row] for row in dense]
        assert out.to_dense(ids, ids) == reduced(want)
        assert maps.backward.to_dense(ids, ids) == reduced(section)
        assert maps.forward.to_dense(ids, ids) == reduced(
            oracles.gauss_jordan_inverse(section))

    @pytest.mark.parametrize("ring", [Z2, Z, Q])
    @pytest.mark.parametrize("seed", range(12))
    def test_randgen_slides(self, seed, ring):
        sc = randgen.random_scenario(random.Random(seed), ring)
        log = evolve(sc.gamma0, sc.events, sc.family)
        for st_ in log.steps:
            if isinstance(st_.record.payload, HandleSlide):
                self.assert_products(st_.before.gamma, st_.record, sc.family)

    @pytest.mark.parametrize("ring, values", [
        (Z, (2, -1, 3, 1)), (Z, (1, 1, 1, -2)),
        (Q, (F(1, 2), -3, F(2, 3), 5)), (Q, (-1, F(7, 4), 1, F(-1, 3)))])
    def test_jumps_whose_square_is_nonzero(self, ring, values):
        # a > b > c > d: the chain a -> b -> c -> d makes D^2 and D^3
        # nonzero, so the series has three terms
        ids = ["a", "b", "c", "d"]
        x, y, z, w = values
        ev = slide(F(1, 2), ("a", "b", x), ("b", "c", y), ("c", "d", z),
                   ("a", "c", w))
        d = SparseMatrix(ring, ids, ids, {(a, b): v for a, b, v
                                          in ev.payload.delta})
        assert not d.mul(d).is_zero() and not d.mul(d).mul(d).is_zero()
        rng = random.Random(repr(values))
        for _ in range(6):
            gamma = SparseMatrix(ring, ids, ids, {
                (p, q): rng.choice([0, 1, -2, F(3, 2) if ring is Q else 3])
                for p in ids for q in ids})
            self.assert_products(gamma, ev, lanes(ids))


class TestBirth:
    def test_split_summand(self):
        t = birth_tuple()
        fc = counter(Z2, ("c1",), {}, 0, F(1, 2))
        out, _ = apply_birth(fc, EventRecord(F(1, 2), Birth("vb", 1)), t)
        assert out.entries == {("up", "down"): 1}
        assert set(out.rows) == {"c1", "up", "down"}

    def test_new_column(self):
        t = birth_tuple()
        fc = counter(Z2, ("c1",), {}, 0, F(1, 2))
        ev = EventRecord(F(1, 2), Birth("vb", 1, (("c1", 1),)))
        out, _ = apply_birth(fc, ev, t)
        assert out.entries == {("up", "down"): 1, ("c1", "down"): 1}

    def test_a_death_vertex_is_no_birth(self):
        t = eyeball_with_bystander()
        fc = counter(Z2, ("c1", "up", "down"), {("up", "down"): 1},
                     F(1, 4), F(3, 4))
        with pytest.raises(EvolutionError,
                           match="^vertex 'vd' is a death, not a birth$"):
            apply_birth(fc, EventRecord(F(3, 4), Birth("vd", 1)), t)

    def test_non_unit_pivot(self):
        t = birth_tuple()
        fc = counter(Z, ("c1",), {}, 0, F(1, 2))
        with pytest.raises(NonUnitPivot):
            apply_birth(fc, EventRecord(F(1, 2), Birth("vb", 2)), t)

    def _two_lane_birth(self, level):
        a = chord("a", [(0, 4), (1, 4)])
        b = chord("b", [(0, 2), (1, 2)])
        up = Arc("up", Piecewise([(F(1, 2), level), (1, level + 4)]),
                 BirthVertex("vb"), BoundaryAt1())
        down = Arc("down", Piecewise([(F(1, 2), level), (1, level - 4)]),
                   BirthVertex("vb"), BoundaryAt1())
        vb = Vertex("vb", "birth", F(1, 2), level, "up", "down")
        return CerfTuple((a, b, up, down), (vb,))

    def test_cycle_condition(self):
        t = self._two_lane_birth(F(1, 2))
        fc = counter(Z2, ("a", "b"), {("a", "b"): 1}, 0, F(1, 2))
        ev = EventRecord(F(1, 2), Birth("vb", 1, (("b", 1),)))
        with pytest.raises(CycleConditionViolated):
            apply_birth(fc, ev, t)

    def test_cycle_condition_names_the_first_failing_row(self):
        # rows a and b both fail; the message names a, the first in str
        # order, though the entries list b first
        t = self._two_lane_birth(F(1, 2))
        c = chord("c", [(0, 1), (1, 1)])
        t = CerfTuple(t.arcs[:2] + (c,) + t.arcs[2:], t.vertices)
        fc = counter(Z, ("b", "a", "c"), {("b", "c"): 3, ("a", "c"): 2},
                     0, F(1, 2))
        ev = EventRecord(F(1, 2), Birth("vb", 1, (("c", 1),)))
        with pytest.raises(CycleConditionViolated) as err:
            apply_birth(fc, ev, t)
        assert str(err.value) == (
            "old matrix does not kill the new column: row 'a' gives 2")

    def test_action_constraint(self):
        t = self._two_lane_birth(3)   # lower branch starts above lane b
        fc = counter(Z2, ("a", "b"), {}, 0, F(1, 2))
        ev = EventRecord(F(1, 2), Birth("vb", 1, (("b", 1),)))
        with pytest.raises(ActionConstraintViolated):
            apply_birth(fc, ev, t)

    @pytest.mark.parametrize("end", [F(1, 2), F(3, 8)])
    def test_column_on_an_arc_gone_after_the_birth(self, end):
        # the entry's arc ends at or before the vertex, so it is not above
        # the lower branch just after it: not a crash, but a gamma1
        # finding, or a structure finding where the arc, a row, ends
        # inside the interval before the birth
        t = self._two_lane_birth(F(1, 2))
        a = Arc("a", Piecewise([(0, 4), (end, 4)]), BoundaryAt0(),
                BoundaryAt1())
        t = CerfTuple((a,) + t.arcs[1:], t.vertices)
        fc = counter(Z2, ("a", "b"), {}, 0, F(1, 2))
        ev = EventRecord(F(1, 2), Birth("vb", 1, (("a", 1),)))
        with pytest.raises(ActionConstraintViolated):
            apply_birth(fc, ev, t)
        report = validate_axioms(fc, [ev], t)
        assert [f.code for f in report.errors()] == [
            "gamma1" if end == F(1, 2) else "structure"]


class TestDeath:
    def test_pivot_block_dies(self):
        t = eyeball_with_bystander()
        fc = counter(Z2, ("c1", "up", "down"), {("up", "down"): 1},
                     F(1, 4), F(3, 4))
        out, _ = apply_death(fc, EventRecord(F(3, 4), Death("vd")), t)
        assert set(out.rows) == {"c1"} and out.is_zero()

    def test_non_unit_pivot(self):
        t = eyeball_with_bystander()
        fc = counter(Z, ("c1", "up", "down"), {("up", "down"): 2},
                     F(1, 4), F(3, 4))
        with pytest.raises(NonUnitPivot):
            apply_death(fc, EventRecord(F(3, 4), Death("vd")), t)

    def test_a_birth_vertex_is_no_death(self):
        t = birth_tuple()
        fc = counter(Z2, ("c1",), {}, 0, F(1, 2))
        with pytest.raises(EvolutionError,
                           match="^vertex 'vb' is a birth, not a death$"):
            apply_death(fc, EventRecord(F(1, 2), Death("vb")), t)

    def test_zero_constraints(self):
        t = eyeball_with_bystander()
        fc = counter(Z2, ("c1", "up", "down"),
                     {("up", "down"): 1, ("c1", "up"): 1}, F(1, 4), F(3, 4))
        with pytest.raises(ConstraintViolated):
            apply_death(fc, EventRecord(F(3, 4), Death("vd")), t)

    def test_survivor_formula_cancellation(self):
        # general-position data: c1 feeds the lower branch, the upper
        # branch feeds nothing else, so survivors are untouched
        t = eyeball_with_bystander()
        fc = counter(Z2, ("c1", "up", "down"),
                     {("up", "down"): 1, ("c1", "down"): 1}, F(1, 4), F(3, 4))
        out, _ = apply_death(fc, EventRecord(F(3, 4), Death("vd")), t)
        assert set(out.rows) == {"c1"} and out.is_zero()


class TestEvolve:
    def test_no_events(self):
        t = three_lane_tuple()
        fc = counter(Z2, ("c1", "c2", "c3"), {("c2", "c3"): 1})
        log = evolve(fc, [], t)
        assert len(log.intervals) == 1 and not log.steps
        assert log.counter_at(F(1, 2)).gamma == fc.gamma

    def test_three_lane_slide(self):
        t = three_lane_tuple()
        fc = counter(Z2, ("c1", "c2", "c3"), {("c2", "c3"): 1})
        log = evolve(fc, [slide(F(3, 8), ("c1", "c2", 1))], t)
        assert len(log.intervals) == 2
        assert log.intervals[1].gamma.entries == {("c2", "c3"): 1,
                                                  ("c1", "c3"): 1}
        assert log.counter_at(0) is log.intervals[0]
        assert log.counter_at(1) is log.intervals[1]
        for r, words in ((F(3, 8), "event parameter"), (F(-1), "outside"),
                         (F(2), "outside")):
            with pytest.raises(DegenerateParameter, match=words):
                log.counter_at(r)
        st_ = log.step_at(F(3, 8))
        assert st_.before.gamma.entries == {("c2", "c3"): 1}

    def test_eyeball_round_trip(self):
        t = eyeball_with_bystander()
        fc = counter(Z2, ("c1",), {})
        events = [EventRecord(F(1, 4), Birth("vb", 1)),
                  EventRecord(F(3, 4), Death("vd"))]
        log = evolve(fc, events, t)
        assert len(log.intervals) == 3
        assert log.intervals[2].gamma == fc.gamma
        assert set(log.intervals[1].gamma.rows) == {"c1", "up", "down"}

    def test_missing_event_record(self):
        t = eyeball_with_bystander()
        fc = counter(Z2, ("c1",), {})
        with pytest.raises(EvolutionError):
            evolve(fc, [EventRecord(F(1, 4), Birth("vb", 1))], t)

    def test_wrong_parameter(self):
        t = eyeball_with_bystander()
        fc = counter(Z2, ("c1",), {})
        events = [EventRecord(F(1, 3), Birth("vb", 1)),
                  EventRecord(F(3, 4), Death("vd"))]
        with pytest.raises(EvolutionError):
            evolve(fc, events, t)

    def test_crossing_with_count_rejected(self):
        # c2 overtakes c1 at r=3/4; a standing c1 -> c2 count breaks the
        # action order mid-interval
        t = three_lane_tuple()
        fc = counter(Z2, ("c1", "c2", "c3"), {("c1", "c2"): 1})
        with pytest.raises(EvolutionError):
            evolve(fc, [], t)

    def test_unsquared_matrix_before_a_death_rejected(self):
        # the interval is checked before its closing event builds maps
        t, fc, events = unsquared_before_death()
        with pytest.raises(EvolutionError, match="square-zero"):
            evolve(fc, events, t)

    def test_duplicate_parameters(self):
        t = three_lane_tuple()
        fc = counter(Z2, ("c1", "c2", "c3"), {})
        evs = [slide(F(1, 2), ("c1", "c2", 1)), slide(F(1, 2), ("c1", "c3", 1))]
        with pytest.raises(EvolutionError):
            evolve(fc, evs, t)


def unsquared_before_death():
    """c -> a -> dn squares to c -> dn before the pair (up, dn) dies.

    The death's own checks pass, but its inclusion is no chain map.
    """
    c = chord("c", [(0, 20), (1, 20)])
    a = chord("a", [(0, 10), (1, 10)])
    up = Arc("up", Piecewise([(0, 6), (F(3, 4), 3)]), BoundaryAt0(),
             DeathVertex("vd"))
    dn = Arc("dn", Piecewise([(0, 1), (F(3, 4), 3)]), BoundaryAt0(),
             DeathVertex("vd"))
    vd = Vertex("vd", "death", F(3, 4), 3, "up", "dn")
    t = CerfTuple((c, a, up, dn), (vd,))
    fc = counter(Z2, ("c", "a", "up", "dn"),
                 {("c", "a"): 1, ("a", "dn"): 1, ("up", "dn"): 1}, 0, F(3, 4))
    return t, fc, [EventRecord(F(3, 4), Death("vd"))]


class TestValidateAxioms:
    def test_slide_entry_on_an_arc_gone_before_the_slide(self):
        # c, a row, ends at 3/8, inside the interval before the slide at
        # 1/2: one structure finding, before the slide reads c
        t = CerfTuple((chord("c", [(0, 5), (F(3, 8), 5)]),
                       chord("d", [(0, 1), (1, 1)])))
        fc = counter(Z2, ("c", "d"), {}, 0, F(1, 2))
        events = [slide(F(1, 2), ("c", "d", 1))]
        why = "counter on interval 0 has rows ['c'] alive on only part of " \
              "[0, 1/2]"
        report = validate_axioms(fc, events, t)
        assert [(f.code, f.message) for f in report.errors()] == [
            ("structure", why)]
        with pytest.raises(EvolutionError) as e:
            evolve(fc, events, t)
        assert str(e.value) == why
        # called on its own, the slide refuses the arc itself
        with pytest.raises(EvolutionError, match="^jump entry \\(c, d\\) "
                           "references an arc not alive at r=1/2$"):
            apply_handle_slide(fc, events[0], t)

    @staticmethod
    def ends_inside():
        """Lane a, alive at the midpoint 1/2 but ending at 3/4, counted
        against lane b on the one interval (0, 1), and the message that
        names a."""
        t = CerfTuple((chord("a", [(0, 5), (F(3, 4), 5)]),
                       chord("b", [(0, 1), (1, 1)])))
        fc = counter(Z2, ("a", "b"), {("a", "b"): 1})
        return t, fc, ("final counter has rows ['a'] alive on only part "
                       "of [0, 1]")

    def test_report_names_a_row_ending_inside_its_interval(self):
        # a structure finding, where the action-order test would read a
        # outside its domain and raise OutOfRange
        t, fc, why = self.ends_inside()
        report = validate_axioms(fc, [], t)
        assert [(f.code, f.message) for f in report.errors()] == [
            ("structure", why)]

    def test_evolve_refuses_a_row_ending_inside_its_interval(self):
        t, fc, why = self.ends_inside()
        with pytest.raises(EvolutionError) as e:
            evolve(fc, [], t)
        assert str(e.value) == why

    def test_the_escaping_arc_is_refused(self):
        # runaway lives on [0, 1/2] with an open end, the paper's escape:
        # the one interval (0, 1) cannot count it
        sc = load_scenario(data_path("escaping"))
        why = "final counter has rows ['runaway'] alive on only part of [0, 1]"
        report = validate_axioms(sc.gamma0, sc.events, sc.family)
        assert [(f.code, f.message) for f in report.findings] == [
            ("structure", why)]
        with pytest.raises(EvolutionError) as e:
            evolve(sc.gamma0, sc.events, sc.family)
        assert str(e.value) == why

    def test_unsquared_matrix_before_a_death_reported(self):
        # no map is built: the interval's own square-zero check reports
        # it, and checking goes on past the death.  evolve refuses it, and
        # the death's maps on that matrix would not be chain maps
        t, fc, events = unsquared_before_death()
        report = validate_axioms(fc, events, t)
        assert [f.code for f in report.errors()] == ["gamma2"]
        assert [str(f) for f in report.findings] == [
            "[error] gamma2: square-zero fails on (0, 3/4)"]
        with pytest.raises(EvolutionError, match="square-zero"):
            evolve(fc, events, t)
        gp, build = apply_death(fc, events[0], t)
        assert not oracles.event_maps_hold(fc.gamma, gp, build())

    def test_unsquared_matrix_before_a_birth_reported(self):
        # the birth keeps the old block, so only the first interval's
        # square-zero finding reports it, and checking goes on past it
        c = chord("c", [(0, 20), (1, 20)])
        a = chord("a", [(0, 10), (1, 10)])
        b = chord("b", [(0, 5), (1, 5)])
        up = Arc("up", Piecewise([(F(1, 2), 1), (1, 3)]), BirthVertex("vb"),
                 BoundaryAt1())
        dn = Arc("dn", Piecewise([(F(1, 2), 1), (1, 0)]), BirthVertex("vb"),
                 BoundaryAt1())
        t = CerfTuple((c, a, b, up, dn),
                      (Vertex("vb", "birth", F(1, 2), 1, "up", "dn"),))
        fc = counter(Z2, ("c", "a", "b"), {("c", "a"): 1, ("a", "b"): 1},
                     0, F(1, 2))
        events = [EventRecord(F(1, 2), Birth("vb", 1))]
        report = validate_axioms(fc, events, t)
        assert [str(f) for f in report.findings] == [
            "[error] gamma2: square-zero fails on (0, 1/2)"]
        with pytest.raises(EvolutionError, match="square-zero"):
            evolve(fc, events, t)

    def test_evolve_raises_the_findings_of_the_report(self):
        # c2 overtakes c1 at r=3/4, against the count c1 -> c2, and
        # c1 -> c2 -> c3 fails square-zero: evolve names both, in the
        # words of the report's findings
        t = three_lane_tuple()
        fc = counter(Z2, ("c1", "c2", "c3"),
                     {("c1", "c2"): 1, ("c2", "c3"): 1})
        report = validate_axioms(fc, [], t)
        assert [f.code for f in report.errors()] == ["gamma1", "gamma2"]
        with pytest.raises(EvolutionError) as e:
            evolve(fc, [], t)
        assert str(e.value) == "; ".join(f.message for f in report.errors())
        assert str(e.value) == ("entry (c1, c2) violates the action order "
                                "on (0, 1); square-zero fails on (0, 1)")

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ring=st.sampled_from([Z2, Z, Q]),
           flips=st.integers(0, 2))
    def test_passing_report_means_every_step_maps_verify(self, seed, ring,
                                                         flips):
        """Whenever the report is ok, evolve accepts the input and each
        step's maps relate its two complexes (oracles.event_maps_hold);
        the initial matrix gets up to two random extra entries, so some
        reports fail."""
        rng = random.Random(seed)
        sc = randgen.random_scenario(rng, ring)
        gamma = sc.gamma0.gamma
        entries = dict(gamma.entries)
        for _ in range(flips):
            entries[(rng.choice(gamma.rows), rng.choice(gamma.rows))] = 1
        fc = FlowCounter(0, sc.gamma0.r_lo, sc.gamma0.r_hi,
                         SparseMatrix(ring, gamma.rows, gamma.cols, entries))
        if not validate_axioms(fc, sc.events, sc.family).ok:
            return
        # from an empty slot, so that evolve makes a run of its own
        with mock.patch.object(bifurcation, "_last_run", None):
            log = evolve(fc, sc.events, sc.family)
        for step in log.steps:
            assert step.maps.kind == step.record.kind.replace("handleslide",
                                                              "slide")
            assert oracles.event_maps_hold(step.before.gamma,
                                           step.after.gamma, step.maps)


    def test_trivial_passes(self):
        t = three_lane_tuple()
        fc = counter(Z2, ("c1", "c2", "c3"), {})
        assert validate_axioms(fc, [], t).ok

    def test_three_lane_passes(self):
        t = three_lane_tuple()
        fc = counter(Z2, ("c1", "c2", "c3"), {("c2", "c3"): 1})
        report = validate_axioms(fc, [slide(F(3, 8), ("c1", "c2", 1))], t)
        assert report.ok

    def test_delta_action_violation_reported(self):
        t = three_lane_tuple()
        fc = counter(Z2, ("c1", "c2", "c3"), {})
        report = validate_axioms(fc, [slide(F(3, 8), ("c3", "c1", 1))], t)
        assert not report.ok
        assert any(f.code == "gamma1" for f in report.errors())

    def test_mid_interval_crossing_reported(self):
        t = three_lane_tuple()
        fc = counter(Z2, ("c1", "c2", "c3"), {("c1", "c2"): 1})
        report = validate_axioms(fc, [], t)
        assert any(f.code == "gamma1" for f in report.errors())

    def test_death_pivot_reported_as_gamma5(self):
        """Over Z a count of 2 between a dying pair's branches reports
        exactly gamma5, and a birth pivot of 2 exactly gamma4."""
        assert self.pivot_findings() == (["gamma5"], ["gamma4"])

    def test_pivot_findings_follow_the_error_type(self, monkeypatch):
        """Reworded, the birth's message names a dying pair and the
        death's does not; the findings stay."""
        for name, text in (("apply_birth", "pivot of the dying pair"),
                           ("apply_death", "pivot 2")):
            monkeypatch.setattr(bifurcation, name, _reworded(
                getattr(bifurcation, name), text))
        assert self.pivot_findings() == (["gamma5"], ["gamma4"])

    @staticmethod
    def pivot_findings():
        """The error codes validate_axioms reports, over Z, for a pair
        alive from r=0 whose branches count 2 and that dies at its
        vertex, and for a birth with pivot 2."""
        up = Arc("up", Piecewise([(0, 6), (F(3, 4), 3)]), BoundaryAt0(),
                 DeathVertex("vd"))
        dn = Arc("dn", Piecewise([(0, 1), (F(3, 4), 3)]), BoundaryAt0(),
                 DeathVertex("vd"))
        t = CerfTuple((up, dn), (Vertex("vd", "death", F(3, 4), 3, "up",
                                        "dn"),))
        death = validate_axioms(counter(Z, ("up", "dn"), {("up", "dn"): 2}),
                                [EventRecord(F(3, 4), Death("vd"))], t)
        birth = validate_axioms(counter(Z, ("c1",), {}),
                                [EventRecord(F(1, 2), Birth("vb", 2))],
                                birth_tuple())
        return ([f.code for f in death.errors()],
                [f.code for f in birth.errors()])


def log_shape(log):
    """Each interval's bounds and sorted entries, and each step's record,
    counters and maps, of log."""
    def items(fc):
        return (fc.interval_index, fc.r_lo, fc.r_hi, fc.gamma.rows,
                sorted(fc.gamma.items(), key=str))
    return ([items(fc) for fc in log.intervals],
            [(st.record, items(st.before), items(st.after), st.maps)
             for st in log.steps])


class TestValidatedSlot:
    """evolve and validate_axioms read one run: the slot keeps the last
    run whatever its outcome, and either reader given the same gamma0,
    event records and family, by identity, reads it in either order."""

    @pytest.fixture(autouse=True)
    def empty_slot(self, monkeypatch):
        monkeypatch.setattr(bifurcation, "_last_run", None)

    @staticmethod
    def spy(monkeypatch):
        """The list to which each later _evolve run appends its gamma0."""
        calls = []
        real = bifurcation._evolve

        def counted(gamma0, events, t):
            calls.append(gamma0)
            return real(gamma0, events, t)
        monkeypatch.setattr(bifurcation, "_evolve", counted)
        return calls

    @staticmethod
    def three_lanes():
        t = three_lane_tuple()
        fc = counter(Z2, ("c1", "c2", "c3"), {("c2", "c3"): 1})
        return t, fc, [slide(F(3, 8), ("c1", "c2", 1))]

    def test_validate_then_evolve_evolves_once(self, monkeypatch):
        t, fc, events = self.three_lanes()
        calls = self.spy(monkeypatch)
        assert validate_axioms(fc, events, t).ok
        log = evolve(fc, events, t)
        assert calls == [fc]
        assert bifurcation._last_run[:3] == (fc, tuple(events), t)
        assert bifurcation._last_run[3][0] is log
        # another sequence holding the same records, and more reads
        assert evolve(fc, tuple(events), t) is log
        assert evolve(fc, iter(events), t) is log
        assert validate_axioms(fc, iter(events), t).ok
        assert calls == [fc]
        assert [st.record for st in log.steps] == events

    def test_evolve_then_validate_evolves_once(self, monkeypatch):
        t, fc, events = self.three_lanes()
        calls = self.spy(monkeypatch)
        log = evolve(fc, events, t)
        report = validate_axioms(fc, events, t)
        assert calls == [fc]
        assert [str(f) for f in report.findings] == [
            "[info] summary: all axioms pass on 2 intervals, 1 events"]
        assert evolve(fc, events, t) is log

    @pytest.mark.parametrize("change", ["gamma0", "record", "family",
                                        "no record"])
    def test_other_objects_evolve_again(self, monkeypatch, change):
        t, fc, events = self.three_lanes()
        assert validate_axioms(fc, events, t).ok
        kept = evolve(fc, events, t)
        calls = self.spy(monkeypatch)
        # an equal object that is not the one read, or fewer records
        if change == "gamma0":
            fc = fc._replace()
        elif change == "record":
            events = [events[0]._replace()]
        elif change == "family":
            t = t._replace()
        else:
            events = []
        log = evolve(fc, events, t)
        assert calls == [fc]
        assert log is not kept
        assert (log_shape(log) == log_shape(kept)) == (change != "no record")
        assert validate_axioms(fc, events, t).ok
        assert calls == [fc]

    def test_a_failing_family_evolves_once_in_either_order(self,
                                                          monkeypatch):
        """Interval findings, findings before a failing event, an axiom
        that stops the run, and a structure error: each is run once in
        either order, and both orders give the same report and error."""
        t, fc, events = self.three_lanes()
        unsquared = counter(Z2, ("c1", "c2", "c3"),
                            {("c1", "c2"): 1, ("c2", "c3"): 1})
        reversed_slide = [slide(F(3, 8), ("c3", "c1", 1))]
        cases = [
            ((t, unsquared, []), EvolutionError,
             "entry (c1, c2) violates the action order on (0, 1); "
             "square-zero fails on (0, 1)",
             ["gamma1", "gamma2"]),
            (unsquared_before_death(), EvolutionError,
             "square-zero fails on (0, 3/4)", ["gamma2"]),
            ((t, fc, reversed_slide), NonTriangularDelta,
             "jump entry (c3, c1) violates the action order at r=3/8: "
             "1 <= 4", ["gamma1"]),
            # the report names only the stopping slide; evolve raises the
            # finding of the interval before it
            ((t, unsquared, reversed_slide), EvolutionError,
             "square-zero fails on (0, 3/8)", ["gamma1"]),
            ((t, counter(Z2, ("c1", "c2"), {}), []), EvolutionError,
             "final counter indexes ['c1', 'c2'] but the alive arcs are "
             "['c1', 'c2', 'c3']", ["structure"]),
        ]
        calls = self.spy(monkeypatch)
        for (ft, g, evs), error, why, codes in cases:
            seen = []
            for validate_first in (True, False):
                monkeypatch.setattr(bifurcation, "_last_run", None)
                del calls[:]
                if validate_first:
                    report = validate_axioms(g, evs, ft)
                with pytest.raises(MorseflowError) as e:
                    evolve(g, evs, ft)
                if not validate_first:
                    report = validate_axioms(g, evs, ft)
                assert calls == [g]
                seen.append((report, type(e.value), str(e.value)))
            assert seen[0] == seen[1]
            assert seen[0][1:] == (error, why)
            assert [f.code for f in report.errors()] == codes

    def test_evolve_raises_a_copy_of_the_kept_error(self, monkeypatch):
        """Each evolve of a family whose run stopped raises a new copy of
        the run's error, and its traceback, which reaches the update that
        raised, does not grow from call to call."""
        t, fc, _ = self.three_lanes()
        events = [slide(F(3, 8), ("c3", "c1", 1))]
        calls = self.spy(monkeypatch)
        raised = []
        for _ in range(3):
            with pytest.raises(NonTriangularDelta) as e:
                evolve(fc, events, t)
            raised.append(e.value)
        assert calls == [fc]
        assert len({id(e) for e in raised}) == 3
        assert len({str(e) for e in raised}) == 1
        frames = [traceback.extract_tb(e.__traceback__) for e in raised]
        assert frames[0][-1].name == "apply_handle_slide"
        assert len({len(f) for f in frames}) == 1

    @pytest.mark.parametrize("ring", [Z2, Z, Q])
    def test_the_kept_log_is_the_log_evolve_builds(self, ring, monkeypatch):
        """On randgen families, in either order of the two readers, one
        run gives the report and the log, and the log equals a fresh
        run's, interval by interval and step by step, maps included."""
        calls = self.spy(monkeypatch)
        kept_logs = 0
        for seed in range(40):
            sc = randgen.random_scenario(random.Random(seed), ring)
            g, evs, ft = sc.gamma0, sc.events, sc.family
            if not validate_axioms(g, evs, ft).ok:
                continue
            kept = evolve(g, evs, ft)
            assert kept is bifurcation._last_run[3][0]
            monkeypatch.setattr(bifurcation, "_last_run", None)
            fresh = evolve(g, evs, ft)
            assert validate_axioms(g, evs, ft).ok
            assert fresh is not kept and fresh.family is kept.family
            assert log_shape(fresh) == log_shape(kept)
            kept_logs += 1
        assert kept_logs >= 30
        assert len(calls) == 40 + kept_logs


def _dying_pair(rows, entries):
    """Chords z (action 0) and w (2) beside a pair up (6 down to 3) and
    dn (1 up to 3) that dies at vd, r = 3/4: the counter on (0, 3/4) with
    rows in the order given, and the death."""
    up = Arc("up", Piecewise([(0, 6), (F(3, 4), 3)]), BoundaryAt0(),
             DeathVertex("vd"))
    dn = Arc("dn", Piecewise([(0, 1), (F(3, 4), 3)]), BoundaryAt0(),
             DeathVertex("vd"))
    t = CerfTuple((chord("z", [(0, 0), (1, 0)]), chord("w", [(0, 2), (1, 2)]),
                   up, dn), (Vertex("vd", "death", F(3, 4), 3, "up", "dn"),))
    return (t, counter(Z2, rows, entries, 0, F(3, 4)),
            [EventRecord(F(3, 4), Death("vd"))])


def _born_alive():
    """up is a whole chord, so the pair of vb is half alive before it."""
    down = Arc("down", Piecewise([(F(1, 2), 3), (1, 1)]), BirthVertex("vb"),
               BoundaryAt1())
    t = CerfTuple((chord("up", [(0, 3), (1, 3)]), down),
                  (Vertex("vb", "birth", F(1, 2), 3, "up", "down"),))
    return (t, counter(Z2, ("up",), {}, 0, F(1, 2)),
            [EventRecord(F(1, 2), Birth("vb", 1))])


def _dying_unborn():
    """The pair of vd lives on [1/2, 3/4], so it is not alive on (0, 3/4)."""
    up = Arc("up", Piecewise([(F(1, 2), 4), (F(3, 4), 3)]), BoundaryAt0(),
             DeathVertex("vd"))
    dn = Arc("dn", Piecewise([(F(1, 2), 2), (F(3, 4), 3)]), BoundaryAt0(),
             DeathVertex("vd"))
    t = CerfTuple((chord("c", [(0, 5), (1, 5)]), up, dn),
                  (Vertex("vd", "death", F(3, 4), 3, "up", "dn"),))
    return (t, counter(Z2, ("c",), {}, 0, F(3, 4)),
            [EventRecord(F(3, 4), Death("vd"))])


def _eyeball(*events):
    return (eyeball_with_bystander(), counter(Z2, ("c1",), {}, 0, F(1, 4)),
            [EventRecord(r, payload) for r, payload in events])


# name -> (family, counter, events), the error evolve raises, and the
# finding code validate_axioms reports it under
REFUSALS = {
    "birth-branches-alive": (
        _born_alive, EvolutionError,
        "branches of 'vb' already alive before r=1/2", "structure"),
    "birth-column-not-alive": (
        lambda: (birth_tuple(), counter(Z2, ("c1",), {}, 0, F(1, 2)),
                 [EventRecord(F(1, 2), Birth("vb", 1, (("zz", 1),)))]),
        EvolutionError, "new column references 'zz', not alive before r=1/2",
        "structure"),
    "death-branches-not-alive": (
        _dying_unborn, EvolutionError,
        "branches of 'vd' not alive before r=3/4", "structure"),
    # over Z2 the two paths up -> dn -> z and up -> w -> z cancel, so the
    # counter squares to zero and only the death refuses it
    "death-lower-branch-flows": (
        lambda: _dying_pair(("z", "w", "up", "dn"), {
            ("up", "dn"): 1, ("dn", "z"): 1, ("up", "w"): 1, ("w", "z"): 1}),
        ConstraintViolated, "lower branch of 'vd' still flows to 'z'",
        "gamma5"),
    "death-upper-branch-flows": (
        lambda: _dying_pair(("w", "z", "up", "dn"),
                            {("up", "dn"): 1, ("up", "w"): 1}),
        ConstraintViolated,
        "upper branch of 'vd' flows to 'w' besides its partner", "gamma5"),
    "parameter-at-the-end": (
        lambda: (three_lane_tuple(), counter(Z2, ("c1", "c2", "c3"), {}),
                 [slide(F(1), ("c1", "c2", 1))]),
        EvolutionError, "event parameters must lie strictly inside (0, 1)",
        "structure"),
    "vertex-two-records": (
        lambda: _eyeball((F(1, 4), Birth("vb", 1)), (F(1, 3), Birth("vb", 1)),
                         (F(3, 4), Death("vd"))),
        EvolutionError, "vertex 'vb' has two event records", "structure"),
    "vertex-kind": (
        lambda: _eyeball((F(1, 4), Death("vb")), (F(3, 4), Death("vd"))),
        EvolutionError,
        "vertex 'vb' is a birth but its event record is a death",
        "structure"),
    "vertex-parameter": (
        lambda: _eyeball((F(1, 3), Birth("vb", 1)), (F(3, 4), Death("vd"))),
        EvolutionError,
        "vertex 'vb' sits at r=1/4 but its event record says r=1/3",
        "structure"),
    "vertex-unknown": (
        lambda: (three_lane_tuple(), counter(Z2, ("c1", "c2", "c3"), {}),
                 [EventRecord(F(1, 2), Birth("vx", 1))]),
        EvolutionError, "event records reference unknown vertices: ['vx']",
        "structure"),
    # a library-built event value outside the ring: the parser coerces
    # every value at its line, so only a library caller can reach these
    "slide-value-outside-the-ring": (
        lambda: (three_lane_tuple(),
                 counter(Z, ("c1", "c2", "c3"), {("c2", "c3"): 1}),
                 [slide(F(3, 8), ("c1", "c2", F(1, 2)))]),
        NonUnitError, "1/2 is not an integer", "structure"),
    "slide-float-value-outside-the-ring": (
        lambda: (three_lane_tuple(),
                 counter(Z, ("c1", "c2", "c3"), {("c2", "c3"): 1}),
                 [slide(F(3, 8), ("c1", "c2", 0.5))]),
        NonUnitError, "1/2 is not an integer", "structure"),
    "birth-pivot-outside-the-ring": (
        lambda: (birth_tuple(), counter(Z, ("c1",), {}, 0, F(1, 2)),
                 [EventRecord(F(1, 2), Birth("vb", F(1, 2)))]),
        NonUnitError, "1/2 is not an integer", "structure"),
    "birth-column-value-outside-the-ring": (
        lambda: (birth_tuple(), counter(Z, ("c1",), {}, 0, F(1, 2)),
                 [EventRecord(F(1, 2), Birth("vb", 1, (("c1", F(3, 2)),)))]),
        NonUnitError, "3/2 is not an integer", "structure"),
    "rows-not-the-alive-arcs": (
        lambda: (three_lane_tuple(), counter(Z2, ("c1", "c2"), {}), []),
        EvolutionError,
        "final counter indexes ['c1', 'c2'] but the alive arcs are "
        "['c1', 'c2', 'c3']", "structure"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_through_evolve_and_the_report(name):
    """Each refusal of an event update or of evolve's own checks raises
    its error and message through evolve, and validate_axioms reports it
    as one finding with that message."""
    build, error, why, code = REFUSALS[name]
    t, fc, events = build()
    with pytest.raises(error) as e:
        evolve(fc, events, t)
    assert (type(e.value), str(e.value)) == (error, why)
    report = validate_axioms(fc, events, t)
    assert [(f.code, f.message) for f in report.errors()] == [(code, why)]


def test_a_whole_float_slide_value_is_its_integer():
    """A library-built slide value 2.0 over Z reads as 2 through the
    ring's coerce: evolve gives the matrices the value 2 gives, and
    validate_axioms reports no finding."""
    t = three_lane_tuple()
    fc = counter(Z, ("c1", "c2", "c3"), {("c2", "c3"): 1})
    events = [slide(F(3, 8), ("c1", "c2", 2.0))]
    want = evolve(fc, [slide(F(3, 8), ("c1", "c2", 2))], t)
    assert [c.gamma for c in evolve(fc, events, t).intervals] == [
        c.gamma for c in want.intervals]
    assert validate_axioms(fc, events, t).ok


def test_step_at_a_parameter_without_an_event():
    t = three_lane_tuple()
    log = evolve(counter(Z2, ("c1", "c2", "c3"), {}),
                 [slide(F(3, 8), ("c1", "c2", 1))], t)
    with pytest.raises(EvolutionError, match=r"^no event at r=1/3$"):
        log.step_at(F(1, 3))


def _reworded(apply, text):
    """apply, raising its NonUnitPivot again with the message text."""
    def run(*args):
        try:
            return apply(*args)
        except NonUnitPivot as e:
            raise type(e)(text) from None
    return run


@pytest.mark.parametrize("ring", [Z2, Z, Q])
def test_every_randgen_step_maps_hold(ring):
    """Each step of 60 randgen logs relates its two complexes by the maps
    it builds (oracles.event_maps_hold), within a wall-time bound."""
    steps = 0
    with within(20):
        for seed in range(60):
            sc = randgen.random_scenario(random.Random(seed), ring)
            for step in evolve(sc.gamma0, sc.events, sc.family).steps:
                assert oracles.event_maps_hold(step.before.gamma,
                                               step.after.gamma, step.maps)
                steps += 1
    assert steps >= 60


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ring=st.sampled_from([Z2, Z, Q]))
def test_a_row_cut_short_inside_its_interval_is_refused(seed, ring):
    """A randgen arc whose life is cut short at one of its interior knots,
    with its end tags kept (randgen.cut_short), is a row alive at the
    midpoint of an interval it ends inside: validate_axioms reports one
    structure finding naming it, and evolve raises the same message."""
    rng = random.Random(seed)
    sc = randgen.random_scenario(rng, ring)
    found = randgen.cut_short(rng, sc.family, sc.events)
    assume(found is not None)
    cut, aid, n = found
    ends = [F(0)] + [e.r for e in sc.events] + [F(1)]
    why = "%s has rows ['%s'] alive on only part of [%s, %s]" % (
        "counter on interval %d" % n if n < len(sc.events) else
        "final counter", aid, ends[n], ends[n + 1])
    report = validate_axioms(sc.gamma0, sc.events, cut)
    assert [(f.code, f.message) for f in report.findings] == [
        ("structure", why)]
    with pytest.raises(EvolutionError) as e:
        evolve(sc.gamma0, sc.events, cut)
    assert str(e.value) == why


def _walked(fc, events, t):
    """(findings, stop) of the event updates applied to fc in parameter
    order: each interval's _interval_findings before the event closing
    it, and the MorseflowError of the first update that raises, or None.
    The intervals' structure is not checked."""
    updates = {HandleSlide: apply_handle_slide, Birth: apply_birth,
               Death: apply_death}
    evs = sorted(events, key=lambda e: e.r)
    ends = [e.r for e in evs] + [1]
    current = FlowCounter(0, 0, ends[0], fc.gamma)
    found = []
    for k, ev in enumerate(evs):
        found.append(bifurcation._interval_findings(current, t))
        try:
            gp, _ = updates[type(ev.payload)](current, ev, t)
        except MorseflowError as e:
            return found, e
        current = FlowCounter(k + 1, ev.r, ends[k + 1], gp)
    return found + [bifurcation._interval_findings(current, t)], None


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ring=st.sampled_from([Z2, Z, Q]),
       extra=st.integers(0, 2), slides=st.integers(0, 2))
def test_the_two_readers_agree_in_either_order(seed, ring, extra, slides):
    """On a randgen family with up to two planted entries in the initial
    matrix and up to two planted slides, validate_axioms then evolve and
    evolve then validate_axioms, each from an empty slot, give the same
    report and outcome.  evolve raises exactly when the report has an
    error: the first failing interval's findings joined by "; ", or else
    the report's stopping error."""
    rng = random.Random(seed)
    sc = randgen.random_scenario(rng, ring)
    t, gamma = sc.family, sc.gamma0.gamma
    entries = dict(gamma.entries)
    for _ in range(extra):
        entries[rng.choice(gamma.rows), rng.choice(gamma.rows)] = 1
    fc = FlowCounter(0, sc.gamma0.r_lo, sc.gamma0.r_hi,
                     SparseMatrix(ring, gamma.rows, gamma.cols, entries))
    # at odd 64ths, which randgen's event parameters never take
    ids = [a.id for a in t.arcs]
    events = list(sc.events) + [
        slide(F(2 * k + 1, 64), (rng.choice(ids), rng.choice(ids), 1))
        for k in rng.sample(range(32), slides)]

    seen = []
    for validate_first in (True, False):
        with mock.patch.object(bifurcation, "_last_run", None):
            if validate_first:
                report = validate_axioms(fc, events, t)
            try:
                outcome = evolve(fc, events, t)
            except MorseflowError as e:
                outcome = "%s: %s" % (type(e).__name__, e)
            if not validate_first:
                report = validate_axioms(fc, events, t)
        seen.append((report.findings, outcome))
    assert seen[0] == seen[1]

    found, stop = _walked(fc, events, t)
    errors = report.errors()
    assert isinstance(outcome, str) == bool(errors)
    if stop is None:
        assert [(f.code, f.message) for f in errors] == [
            item for bad in found for item in bad]
    else:
        assert errors[0].message == str(stop)
    if errors:
        first = next((bad for bad in found if bad), None)
        assert outcome == ("EvolutionError: " + "; ".join(
            msg for _, msg in first) if first else "%s: %s" % (
                type(stop).__name__, errors[0].message))


class TestLazyMaps:
    def test_built_and_verified_once_on_first_read(self, monkeypatch):
        t = eyeball_with_bystander()
        fc = counter(Z2, ("c1",), {})
        events = [EventRecord(F(1, 4), Birth("vb", 1, (("c1", 1),))),
                  EventRecord(F(3, 4), Death("vd"))]
        calls = count_bundles(monkeypatch)
        log = evolve(fc, events, t)
        assert calls == []
        first = [step.maps for step in log.steps]
        assert len(calls) == 2
        assert [step.maps for step in log.steps] == first
        assert all(a is step.maps for a, step in zip(first, log.steps))
        assert len(calls) == 2
        assert calls == first
        assert [m.kind for m in first] == ["birth", "death"]

    def test_tampered_recipe_fails_on_read(self):
        # the step hands out what its recipe builds; the oracle tells the
        # log's own slide maps from identities put in their place
        t = three_lane_tuple()
        fc = counter(Z2, ("c1", "c2", "c3"), {("c2", "c3"): 1}, 0, F(3, 8))
        log = evolve(fc, [slide(F(3, 8), ("c1", "c2", 1))], t)
        ident = SparseMatrix.identity(Z2, fc.gamma.rows)
        tampered = ChainMapBundle("slide", ident, ident)
        bad = log.steps[0]._replace(build_maps=lambda: tampered)
        step = log.steps[0]
        assert oracles.event_maps_hold(step.before.gamma, step.after.gamma,
                                       step.maps)
        assert bad.maps is tampered
        assert not oracles.event_maps_hold(bad.before.gamma, bad.after.gamma,
                                           bad.maps)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.booleans())
def test_birth_then_death_is_identity(extra, with_column):
    """A pair born with empty column and dying untouched changes nothing."""
    t = eyeball_with_bystander()
    ring = Z if extra else Z2
    fc = counter(ring, ("c1",), {})
    col = (("c1", 1),) if with_column else ()
    events = [EventRecord(F(1, 4), Birth("vb", 1, col)),
              EventRecord(F(3, 4), Death("vd"))]
    log = evolve(fc, events, t)
    assert log.intervals[-1].gamma == fc.gamma
