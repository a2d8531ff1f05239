"""Scenario text format: parsing, serialization, error locations."""

import os
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import randgen
from morseflow.bifurcation import Birth, Death, HandleSlide
from morseflow.cerf import BirthVertex, BoundaryAt0, BoundaryAt1, DeathVertex
from morseflow.cerf import validate_cerf
from morseflow.cli import data_path
from morseflow.errors import (MAX_LITERAL_DIGITS, ScenarioError,
                              ScenarioSemanticError, ScenarioSyntaxError)
from morseflow import escape
from morseflow.escape import build_cascade, iterlog, linear, polylog, square
from morseflow.rings import Q, Z, Z2
from morseflow.scenario import (_FIELDS, Scenario, _rational, load_scenario,
                                parse_chain, parse_phi, parse_scenario,
                                parse_window_spec, phi_text,
                                serialize_scenario)
from morseflow.tracker import wide_window

MINIMAL = """
[arcs]
c1 : (0, 4) (1, 4)
"""

BUNDLED = ["slide", "twoslides", "birth", "eyeball", "escaping"]


def fields_for_comparison(sc):
    return (sc.ring, sc.family, sc.gamma0, sc.events, sc.window, sc.ladder,
            sc.rep, sc.phi, sc.kappa, sc.rho0, sc.model,
            sc.model_rho0, sc.model_kappa)


class TestParseBasics:
    def test_minimal_one_arc_file(self):
        sc = parse_scenario(MINIMAL)
        assert sc.ring is Z2
        assert [a.id for a in sc.family.arcs] == ["c1"]
        assert sc.events == ()
        assert sc.gamma0.r_lo == 0 and sc.gamma0.r_hi == 1
        assert sc.gamma0.gamma.is_zero()

    def test_default_end_tags_from_footprint(self):
        sc = parse_scenario(MINIMAL)
        a = sc.family.arc("c1")
        assert isinstance(a.lo_tag, BoundaryAt0)
        assert isinstance(a.hi_tag, BoundaryAt1)

    def test_ring_section_and_override(self):
        text = "[coefficients]\nring = q\n" + MINIMAL
        assert parse_scenario(text).ring is Q
        assert parse_scenario(text, ring=Z).ring is Z
        assert parse_scenario(MINIMAL, ring=Q).ring is Q

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n[arcs]  # trailing\nc1 : (0, 1) (1, 1) # pts\n"
        sc = parse_scenario(text)
        assert sc.family.arc("c1").f3.points == ((0, 1), (1, 1))

    def test_gamma_entries_and_first_interval(self):
        sc = load_scenario(data_path("slide"))
        assert sc.gamma0.r_hi == F(3, 8)
        assert sc.gamma0.gamma.entry("c2", "c3") == 1
        assert sc.ring is Z2

    def test_event_payloads(self):
        sc = load_scenario(data_path("birth"))
        kinds = [type(e.payload) for e in sc.events]
        assert kinds == [Birth]
        b = sc.events[0].payload
        assert b.vertex == "vb" and b.pivot == 1
        assert b.new_column == (("c1", 1),)

    def test_death_and_slide_payloads(self):
        sc = load_scenario(data_path("eyeball"))
        assert [type(e.payload) for e in sc.events] == [Birth, Death]
        sc2 = load_scenario(data_path("twoslides"))
        assert all(isinstance(e.payload, HandleSlide) for e in sc2.events)
        assert sc2.events[0].payload.delta == (("c1", "c2", 1),)
        assert sc2.events[1].payload.delta == (("c2", "c3", -1),)

    def test_vertex_end_tags(self):
        sc = load_scenario(data_path("eyeball"))
        up = sc.family.arc("up")
        assert isinstance(up.lo_tag, BirthVertex) and up.lo_tag.vertex == "vb"
        assert isinstance(up.hi_tag, DeathVertex) and up.hi_tag.vertex == "vd"

    def test_open_footprint_requested(self):
        sc = load_scenario(data_path("escaping"))
        assert sc.family.arc("runaway").hi_open

    def test_rabinowitz_section(self):
        sc = load_scenario(data_path("eyeball"))
        assert sc.model is not None
        assert sc.model.h_sup == 1
        assert type(sc.model.tame_class).__name__ == "SquareTame"
        assert sc.model_rho0 == F(1, 3) and sc.model_kappa == 1


class TestFileOrder:
    # a chord A - B - C joined at v1 and v2; components are not declared
    ZIGZAG = {"A": "A : (0, 5) (1/2, 3) ends=boundary,death(v1)",
              "B": "B : (1/4, 2) (1/2, 3) ends=birth(v2),death(v1)",
              "C": "C : (1/4, 2) (1, 0) ends=birth(v2),boundary"}

    @pytest.mark.parametrize("order", ["ABC", "ACB", "BAC", "BCA", "CAB", "CBA"])
    def test_a_chain_validates_in_any_file_order(self, order):
        text = ("[arcs]\n" + "\n".join(self.ZIGZAG[x] for x in order)
                + "\n[vertices]\nv1 : death r=1/2 f3=3 plus=A minus=B\n"
                "v2 : birth r=1/4 f3=2 plus=B minus=C\n")
        t = parse_scenario(text).family
        assert "".join(a.id for a in t.arcs) == order
        assert validate_cerf(t).ok


class TestParseChain:
    def test_accumulation_and_signs(self):
        assert parse_chain("2*c1 - c2 + c1", Z) == {"c1": 3, "c2": -1}

    def test_unit_coefficients(self):
        assert parse_chain("c1 + c2", Z2) == {"c1": 1, "c2": 1}

    def test_rational_coefficient_over_q(self):
        assert parse_chain("1/2*c1", Q) == {"c1": F(1, 2)}

    def test_cancellation_drops_generator(self):
        assert parse_chain("c1 - c1 + c2", Z) == {"c2": 1}

    def test_mod2_reduction(self):
        assert parse_chain("c1 + c1", Z2) == {}

    def test_bad_syntax(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_chain("c1 ++ c2", Z)
        with pytest.raises(ScenarioSyntaxError):
            parse_chain("c1 c2", Z)
        with pytest.raises(ScenarioSyntaxError):
            parse_chain("", Z)

    def test_window_spec(self):
        w = parse_window_spec("a=0,b=10")
        assert w.a.value(F(1, 2)) == 0 and w.b.value(F(1, 2)) == 10
        for bad in ("a=0", "a=0,b=10,junk", "a=0,a=1,b=10", "a=0,,b=10"):
            with pytest.raises(ScenarioSyntaxError):
                parse_window_spec(bad)


class TestErrors:
    def line_of(self, excinfo):
        return excinfo.value.line

    def test_missing_arcs_section(self):
        with pytest.raises(ScenarioSyntaxError, match="arcs"):
            parse_scenario("[coefficients]\nring = z\n")

    def test_unknown_section_with_line(self):
        with pytest.raises(ScenarioSyntaxError) as e:
            parse_scenario("[arcs]\nc1 : (0,1) (1,1)\n[nonsense]\n")
        assert e.value.line == 3

    def test_repeated_section(self):
        with pytest.raises(ScenarioSyntaxError, match="repeated"):
            parse_scenario("[arcs]\nc1 : (0,1) (1,1)\n[arcs]\n")

    def test_content_before_header(self):
        with pytest.raises(ScenarioSyntaxError) as e:
            parse_scenario("ring = z2\n[arcs]\nc1 : (0,1) (1,1)\n")
        assert e.value.line == 1

    def test_unknown_ring(self):
        with pytest.raises(ScenarioSyntaxError, match="ring"):
            parse_scenario("[coefficients]\nring = z3\n" + MINIMAL)

    def test_bad_arc_line(self):
        with pytest.raises(ScenarioSyntaxError) as e:
            parse_scenario("[arcs]\nno colon here\n")
        assert e.value.line == 2

    def test_bad_end_tag(self):
        with pytest.raises(ScenarioSyntaxError, match="end tag"):
            parse_scenario("[arcs]\nc1 : (0,1) (1,1) ends=left,right\n")

    def test_bad_rational(self):
        with pytest.raises(ScenarioSyntaxError):
            parse_scenario("[arcs]\nc1 : (0, one) (1, 1)\n")

    def test_literal_at_the_digit_limit_is_read(self):
        big = "9" * MAX_LITERAL_DIGITS
        sc = parse_scenario("[arcs]\nc1 : (0, %s) (1, -%s)\n[window]\n"
                            "a = -1%s\nb = 1%s\n" % (big, big, big[1:], big[1:]))
        assert sc.family.arc("c1").f3.points[0][1] == int(big)
        assert parse_chain("%s*c1" % big, Q) == {"c1": int(big)}
        w = parse_window_spec("a=1/%s,b=1e%d" % (big[1:], MAX_LITERAL_DIGITS - 3))
        assert w.b.value(0) == 10 ** (MAX_LITERAL_DIGITS - 3)

    @pytest.mark.parametrize("text, line", [
        ("[arcs]\nc1 : (0, 4) (1, %s)\n", 2),
        ("[arcs]\nc1 : (0, 4) (1/%s, 4)\n", 2),
        ("[arcs]\nc1 : (0, 4) (1, 4)\n\n[gamma]\n(c1, c1) = %s\n", 5),
        ("[arcs]\nc1 : (0, 4) (1, 4)\n[window]\na = 0\nb = %s\n", 5),
        ("[arcs]\nc1 : (0, 4) (1, 4)\n[phi]\nkappa = %s\n", 4),
        ("[arcs]\nc1 : (0, 4) (1, 4)\n[phi]\nbound = linear(c=%s)\n", 4),
    ])
    def test_literal_past_the_digit_limit_is_refused_with_its_line(self, text, line):
        for over in ("1" * (MAX_LITERAL_DIGITS + 1),
                     "1e%d" % (MAX_LITERAL_DIGITS - 2),
                     "2.5e-%d" % (MAX_LITERAL_DIGITS - 3)):
            with pytest.raises(ScenarioSyntaxError, match="digits") as e:
                parse_scenario(text % over)
            assert e.value.line == line

    @staticmethod
    def assert_reads_as_fraction(text):
        """_rational(text) is Fraction(text), or the ScenarioSyntaxError
        of oracles.read_literal's message where Fraction refuses text."""
        want = oracles.read_literal(text)
        if isinstance(want, F):
            got = _rational(text, 7)
            assert type(got) is F and got == want
        else:
            with pytest.raises(ScenarioSyntaxError) as e:
                _rational(text, 7)
            assert type(e.value) is ScenarioSyntaxError and e.value.line == 7
            assert str(e.value) == "line 7: " + want

    @pytest.mark.parametrize("text", [
        "1/0", "1/-2", "--1", "1/2/3", "", " 3/00 ", "-0/0", "1 / 2", "+-1",
        "-3/4", "-10/4", "6/8", "-0", "007", "-0012/030", " 1/2 "])
    def test_literal_reads_as_fraction_reads_it(self, text):
        self.assert_reads_as_fraction(text)

    @settings(max_examples=300, deadline=None)
    @given(space=st.sampled_from(["", " ", "\t", " \n"]),
           sign=st.sampled_from(["", "-", "+", "--", "-+"]),
           num=st.one_of(
               st.integers(0, 10 ** 12).map(str),
               st.from_regex(r"[0-9]{1,3}_[0-9]{3}|\u0663\u0662|0{1,3}[0-9]"
                             r"|[0-9]*\.[0-9]+", fullmatch=True)),
           tail=st.one_of(
               st.just(""), st.integers(0, 10 ** 9).map("/{}".format),
               st.from_regex(r"/0+|/-[0-9]|/[0-9]/[0-9]|[eE]-?[0-9]|/ 3|/1_0",
                             fullmatch=True)))
    def test_drawn_literal_reads_as_fraction_reads_it(self, space, sign, num,
                                                      tail):
        self.assert_reads_as_fraction(space + sign + num + tail + space)

    def test_chain_coefficient_past_the_digit_limit(self):
        with pytest.raises(ScenarioSyntaxError, match="digits") as e:
            parse_scenario("[arcs]\nc1 : (0, 4) (1, 4)\n[track]\nclass = 1/%s*c1\n"
                           % ("3" * MAX_LITERAL_DIGITS))
        assert e.value.line == 4

    def test_gamma_unknown_arc(self):
        text = MINIMAL + "[gamma]\n(c1, zz) = 1\n"
        with pytest.raises(ScenarioSemanticError, match="zz"):
            parse_scenario(text)

    def test_event_unknown_arc(self):
        text = MINIMAL + "[events]\nslide r=1/2 : (c1, zz) = 1\n"
        with pytest.raises(ScenarioSemanticError, match="zz"):
            parse_scenario(text)

    def test_event_unknown_vertex(self):
        text = MINIMAL + "[events]\nbirth r=1/2 vertex=vq pivot=1\n"
        with pytest.raises(ScenarioSemanticError, match="vq"):
            parse_scenario(text)

    def test_event_parameter_range(self):
        for r in ("0", "1", "3/2", "-1/4"):
            text = MINIMAL + "[events]\nslide r=%s : (c1, c1) = 1\n" % r
            with pytest.raises(ScenarioSemanticError, match="strictly inside"):
                parse_scenario(text)

    def test_duplicate_event_parameter_cites_disjointness(self):
        with pytest.raises(ScenarioSemanticError) as e:
            load_scenario(data_path("duplicate_event"))
        assert "disjoint" in str(e.value)
        assert e.value.line is not None

    def test_slide_needs_entries(self):
        text = MINIMAL + "[events]\nslide r=1/2\n"
        with pytest.raises(ScenarioSyntaxError, match="at least one entry"):
            parse_scenario(text)

    def test_birth_entry_arity(self):
        text = ("[arcs]\nc1 : (0, 4) (1, 4)\n"
                "up : (1/2, 2) (1, 3) ends=birth(vb),boundary\n"
                "down : (1/2, 2) (1, 1) ends=birth(vb),boundary\n"
                "[vertices]\nvb : birth r=1/2 f3=2 plus=up minus=down\n"
                "[events]\nbirth r=1/2 vertex=vb : (c1, c1) = 1\n")
        with pytest.raises(ScenarioSyntaxError, match="birth entries"):
            parse_scenario(text)

    def test_vertex_missing_field(self):
        text = ("[arcs]\nc1 : (0, 4) (1, 4)\n"
                "[vertices]\nvb : birth r=1/2 f3=2 plus=c1\n")
        with pytest.raises(ScenarioSyntaxError, match="minus"):
            parse_scenario(text)

    def test_vertex_unknown_arc(self):
        text = ("[arcs]\nc1 : (0, 4) (1, 4)\n"
                "[vertices]\nvb : birth r=1/2 f3=2 plus=c1 minus=zz\n")
        with pytest.raises(ScenarioSemanticError, match="zz"):
            parse_scenario(text)

    def test_window_needs_both_keys(self):
        with pytest.raises(ScenarioSyntaxError, match="a and b"):
            parse_scenario(MINIMAL + "[window]\na = 0\n")

    def test_ladder_line_shape(self):
        with pytest.raises(ScenarioSyntaxError, match="ladder"):
            parse_scenario(MINIMAL + "[ladder]\nrung : a=0 b=1\n")

    def test_track_unknown_arc(self):
        with pytest.raises(ScenarioSemanticError, match="zz"):
            parse_scenario(MINIMAL + "[track]\nclass = zz\n")

    def test_unknown_phi_family(self):
        with pytest.raises(ScenarioSemanticError, match="cubic") as e:
            parse_scenario(MINIMAL + "[phi]\nbound = cubic(c=1)\n")
        assert e.value.line == 5

    @pytest.mark.parametrize("section, line, words", [
        ("[phi]\nbound = garbage\n", 5, "unrecognized"),
        ("[phi]\nbound = linear(c=0)\n", 5, "positive"),
        ("[phi]\nkappa = 1\nbound = iterlog(c=1, depth=3/2)\n", 6, "whole"),
        ("[rabinowitz]\nh_sup = -1\n", 5, "nonnegative"),
        ("[rabinowitz]\nclass = logtame\ndepth = 3/2\n", 6, "whole"),
        ("[rabinowitz]\ntheta = -1\n", 5, "theta"),
        ("[rabinowitz]\nclass = logtame\ndepth = 5\n", 5, "depth"),
        ("[phi]\nkappa = 0\n", 5, "kappa must be positive"),
        ("[phi]\nbound = linear(c=1)\nrho0 = 1\nkappa = -1/2\n", 7,
         "kappa must be positive"),
        ("[rabinowitz]\nrho0 = 1/3\nkappa = 0\n", 6, "kappa must be positive"),
    ])
    def test_growth_and_model_values_carry_their_line(self, section, line, words):
        with pytest.raises(ScenarioSemanticError, match=words) as e:
            parse_scenario(MINIMAL + section)
        assert e.value.line == line

    @pytest.mark.parametrize("section", [
        "[ladder]\nwindowpane : a=0 b=10\n",
        "[ladder]\nwindowsill : a=0 b=10\n",
        "[ladder]\nwindows : a=0 b=10\n",
        "[ladder]\nwindow : a=0 a=1 b=10\n",
        "[vertices]\nv : birth r=1/2 r=1/3 f3=1 plus=c1 minus=c1\n",
        "[events]\nslide r=1/4 r=1/2 : (c1, c1) = 1\n",
    ])
    def test_stray_rung_keyword_and_repeated_keys(self, section):
        with pytest.raises(ScenarioSyntaxError) as e:
            parse_scenario(MINIMAL + section)
        assert e.value.line == 5

    @pytest.mark.parametrize("text, line, words", [
        ("[coefficients]\nring = z\nRing = q\n", 6, "'ring' given twice"),
        ("[track]\nclas = c1\n", 5, "unknown key 'clas'"),
        ("[phi]\nbound\n", 5, "expected key=value"),
        ("[window]\na = 0\nb = 1\nc = 2\n", 7, "unknown key 'c'"),
        ("[rabinowitz]\nthata = 2\n", 5, "unknown key 'thata'"),
        ("[vertices]\nv : birth r=1/2 f3=1 plus=c1 minus=c1 pivot=1\n", 5,
         "unknown key 'pivot'"),
        ("[events]\ndeath r=1/2 vertex=v pivot=1\n", 5,
         "unknown key 'pivot'"),
        ("[ladder]\nwindow : a=0 b=1 c=2\n", 5, "unknown key 'c'"),
        ("[window]\na = (0, 1) (1, 1) junk\nb = 2\n", 5, "'junk'"),
        ("[window]\na = (0, 1) (1 1) (1, 1)\nb = 2\n", 5, "'(1 1)'"),
        ("[arcs]\n", 4, "repeated"),
        ("[track]\nclass = c1\nlabel = h\n", 6, "unknown key 'label'"),
    ])
    def test_unknown_keys_and_stray_text(self, text, line, words):
        with pytest.raises(ScenarioSyntaxError, match=re.escape(words)) as e:
            parse_scenario(MINIMAL + text)
        assert e.value.line == line

    @pytest.mark.parametrize("arc", [
        "c1 : junk (0, 4) (1, 4)",
        "c1 : (0, 4), (1, 4)",
        "c1 : (0, 4) (1, 4) ends=boundary,boundary ends=boundary,boundary",
        "c1 : (0, 4) (1, 4) open=up",
        "c1 : (0, 4) (1, 4) close=hi",
    ])
    def test_arc_line_is_pairs_then_options(self, arc):
        with pytest.raises(ScenarioSyntaxError) as e:
            parse_scenario("[arcs]\n%s\n" % arc)
        assert e.value.line == 2

    def test_keys_are_case_insensitive(self):
        text = ("[Coefficients]\nRING = Z\n[arcs]\nc1 : (0, 4) (1, 4)\n"
                "[events]\nSLIDE R=1/2 : (c1, c1) = 1\n")
        with pytest.raises(ScenarioSyntaxError, match="event kind"):
            parse_scenario(text)
        sc = parse_scenario(text.replace("SLIDE", "slide"))
        assert sc.ring is Z and sc.events[0].r == F(1, 2)

    def test_gamma_dead_arc_on_first_interval(self):
        text = ("[arcs]\nc1 : (0, 4) (1, 4)\n"
                "up : (1/2, 2) (1, 3) ends=birth(vb),boundary\n"
                "down : (1/2, 2) (1, 1) ends=birth(vb),boundary\n"
                "[vertices]\nvb : birth r=1/2 f3=2 plus=up minus=down\n"
                "[gamma]\n(c1, up) = 1\n"
                "[events]\nbirth r=1/2 vertex=vb pivot=1\n")
        with pytest.raises(ScenarioSemanticError, match="first interval"):
            parse_scenario(text)

    @pytest.mark.parametrize("bound, words", [
        ("linear(c=1, gap=(-2))", "pair"),
        ("square(c=1, gap=(-2))", "pair"),
        ("linear(c=1, gap=(-1, 1, 7))", "pair"),
        ("linear(c=1, gap=())", "pair"),
        ("linear(c=1, c=5)", "'c' given twice"),
        ("linear(c=1, garbage)", "'garbage'"),
        ("linear(c=1,)", "expected key=value"),
        ("linear(c=1,, gap=(-1,1) junk)", "expected key=value"),
        ("linear(c=1) junk)", "not an exact number"),
        ("linear(c=1, gap=(-1, 1)", "expected key=value"),
        ("linear()", "c is missing"),
        ("polylog(c=1, p=1, logs=1)", "list"),
        ("polylog(c=1, p=1, logs=(1,))", "not an exact number"),
        ("polylog(c=1, p=1, logs=(1, 1, 1, 1, 1))", "four"),
        ("iterlog(c=1, depth=2, logs=(1))", "unknown key 'logs'"),
        ("LINEAR(c=1)", "unrecognized"),
    ])
    def test_malformed_bound_carries_its_line(self, bound, words):
        with pytest.raises(ScenarioError, match=re.escape(words)) as e:
            parse_scenario(MINIMAL + "[phi]\nkappa = 1\nbound = %s\n" % bound)
        assert e.value.line == 6

    def test_keys_inside_a_bound_are_case_insensitive(self):
        sc = parse_scenario(MINIMAL + "[phi]\nbound = linear(C=2, GAP=(-3, 3))\n")
        assert sc.phi == linear(2, gap=(-3, 3))

    @pytest.mark.parametrize("section, line, words", [
        ("[events]\nslide r=1/2 : c1, c2) = 1\n", 6, "slide entries"),
        ("[events]\nslide r=1/2 : (c1, c2 = 1\n", 6, "slide entries"),
        ("[events]\nslide r=1/2 : ((c1, c2)) = 1\n", 6, "slide entries"),
        ("[events]\nslide r=1/2 : (c1,, c2) = 1\n", 6, "slide entries"),
        ("[events]\nslide r=1/2 : (c1, c2, c2) = 1\n", 6, "slide entries"),
        ("[events]\nslide r=1/2 : (c1) = 1\n", 6, "slide entries"),
        ("[events]\nslide r=1/2 : (c2, c1) 1\n", 6, "slide entries"),
        ("[events]\nbirth r=1/2 vertex=vb : c1 = 1\n", 6, "birth entries"),
        ("[events]\ndeath r=3/4 vertex=vd : (c1) = 5\n", 6,
         "death takes no entries"),
        ("[gamma]\n(c2, c1) = 1\n(c2, c1, c1) = 1\n", 7, "gamma entries"),
        ("[gamma]\nc2, c1) = 1\n", 6, "gamma entries"),
    ])
    def test_entry_positions_are_read_strictly(self, section, line, words):
        with pytest.raises(ScenarioSyntaxError, match=words) as e:
            parse_scenario(MINIMAL + "c2 : (0, 1) (1, 1)\n" + section)
        assert e.value.line == line

    def test_error_message_carries_line_prefix(self):
        with pytest.raises(ScenarioError, match=r"^line 2:"):
            parse_scenario("[arcs]\nbroken\n")


class TestRoundTrip:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_serialize_parse_fixed_point(self, name):
        sc = load_scenario(data_path(name))
        text = serialize_scenario(sc)
        sc2 = parse_scenario(text)
        assert fields_for_comparison(sc2) == fields_for_comparison(sc)
        assert serialize_scenario(sc2) == text

    def test_window_with_breakpoints_round_trips(self):
        text = (MINIMAL +
                "[window]\na = (0, -1) (1/2, -2) (1, -1)\nb = 10\n")
        sc = parse_scenario(text)
        assert sc.window.a.value(F(1, 2)) == -2
        sc2 = parse_scenario(serialize_scenario(sc))
        assert sc2.window == sc.window

    def test_ladder_round_trips(self):
        text = (MINIMAL +
                "[ladder]\nwindow : a=0 b=10\nwindow : a=-1 b=11\n")
        sc = parse_scenario(text)
        assert len(sc.ladder) == 2
        sc2 = parse_scenario(serialize_scenario(sc))
        assert sc2.ladder == sc.ladder

    def test_signed_class_round_trips(self):
        text = ("[coefficients]\nring = z\n"
                "[arcs]\nc1 : (0, 4) (1, 4)\nc2 : (0, 2) (1, 2)\n"
                "[track]\nclass = -2*c1 + c2 - c2\n")
        sc = parse_scenario(text)
        assert sc.rep == {"c1": -2}
        sc2 = parse_scenario(serialize_scenario(sc))
        assert sc2.rep == sc.rep
        assert serialize_scenario(sc2) == serialize_scenario(sc)

    def test_later_class_terms_round_trip(self):
        text = ("[coefficients]\nring = z\n[arcs]\nc1 : (0, 4) (1, 4)\n"
                "c2 : (0, 2) (1, 2)\nc3 : (0, 1) (1, 1)\n"
                "[track]\nclass = -c1 + 2*c2 - c3\n")
        sc = parse_scenario(text)
        assert sc.rep == {"c1": -1, "c2": 2, "c3": -1}
        out = serialize_scenario(sc)
        assert "class = -c1 + 2*c2 - c3\n" in out
        assert parse_scenario(out).rep == sc.rep

    @pytest.mark.parametrize("points, lo, hi", [
        ("(0, 4) (1/2, 4)", BoundaryAt0(), BoundaryAt0()),
        ("(1/4, 4) (1, 4)", BoundaryAt1(), BoundaryAt1()),
        ("(0, 4) (1, 4)", BoundaryAt0(), BoundaryAt1()),
    ])
    @pytest.mark.parametrize("ends", ["", " ends=boundary,boundary"])
    def test_boundary_end_tags_round_trip(self, points, lo, hi, ends):
        """`boundary` resolves by one rule, written or omitted."""
        sc = parse_scenario("[arcs]\nc1 : %s%s\n" % (points, ends))
        arc = sc.family.arc("c1")
        assert (arc.lo_tag, arc.hi_tag) == (lo, hi)
        assert parse_scenario(serialize_scenario(sc)).family == sc.family


_POSITIVE = st.builds(F, st.integers(1, 10**6), st.integers(1, 10**3))
_NONNEGATIVE = st.builds(F, st.integers(0, 10**6), st.integers(1, 10**3))


@st.composite
def growth_bounds(draw):
    """A bound from one of the four constructors, with its default gap or
    a drawn one that clears the log threshold."""
    family = draw(st.sampled_from(["linear", "square", "iterlog", "polylog"]))
    c = draw(_POSITIVE)
    depth = draw(st.integers(1, 4)) if family == "iterlog" else 0
    logs = ()
    if family == "polylog":
        logs = tuple(draw(st.lists(_NONNEGATIVE, max_size=4)))
    thr = escape._LOG_THRESHOLD[max(depth, len(logs))]
    gap = draw(st.none() | st.tuples(_NONNEGATIVE, _NONNEGATIVE).map(
        lambda ab: (-thr - ab[0], thr + ab[1])))
    if family == "linear":
        return linear(c, gap)
    if family == "square":
        return square(c, gap)
    if family == "iterlog":
        return iterlog(c, depth, gap)
    return polylog(c, draw(st.builds(F, st.integers(-9, 9), st.integers(1, 9))),
                   logs, gap)


class TestGrowthBoundText:
    @settings(max_examples=200, deadline=None)
    @given(phi=growth_bounds())
    def test_phi_text_reads_back(self, phi):
        text = phi_text(phi)
        assert parse_phi(text) == phi
        assert phi_text(parse_phi(text)) == text

    def test_empty_logs_round_trip(self):
        text = phi_text(polylog(1, -1))
        assert text == "polylog(c=1, p=-1, logs=(), gap=(-1, 1))"
        assert parse_phi(text) == polylog(1, -1)


def assert_text_fixed_point(sc):
    """serialize -> parse gives the family back, and serializing that
    gives the first text back.  Families compare by their arcs and
    vertices."""
    text = serialize_scenario(sc)
    back = parse_scenario(text)
    assert back.family == sc.family
    assert serialize_scenario(back) == text


class TestRoundTripFuzz:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), ring=st.sampled_from([Z2, Z]),
           tracked=st.booleans())
    def test_random_families(self, seed, ring, tracked):
        sc = randgen.random_scenario(random.Random(seed), ring)
        if tracked:
            sc = sc._replace(window=wide_window(sc.family),
                             rep={"l1": ring.one})
        assert_text_fixed_point(sc)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 12), ring=st.sampled_from([Z2, Z]),
           base=st.builds(F, st.integers(1, 10**6), st.integers(1, 10**3)),
           ratio=st.builds(F, st.integers(2, 10**3), st.just(1)) | st.just(F(3, 2)),
           delta=st.sampled_from([1, -1, 3]))
    def test_cascades(self, n, ring, base, ratio, delta):
        t, fc0, events = build_cascade(n, base=base, ratio=ratio,
                                       delta_value=ring.coerce(delta), ring=ring)
        assert_text_fixed_point(Scenario(
            ring, t, fc0, tuple(events), window=wide_window(t),
            rep={"c1": ring.one},
            phi=linear(F(1), gap=(-ratio, ratio))))


def test_format_doc_lists_the_declared_keys():
    """docs/format.md's grammar blocks and the reader's table declare the
    same keys for every record kind, the four growth-bound families
    included."""
    doc_path = os.path.join(os.path.dirname(__file__), "..", "docs",
                            "format.md")
    with open(doc_path, encoding="utf-8") as fh:
        doc = fh.read()
    documented = {}
    for heading, block in re.findall(r"^## ([^\n]+)\n+```\n(.*?)```", doc,
                                     re.M | re.S):
        lines = re.findall(r"^(\w+)\s*=", block, re.M)
        if lines:                  # a section of key = value lines
            documented[heading] = set(lines)
        for rule, body in re.findall(r"^([\w-]+)\s*::=(.*(?:\n\s+.*)*)",
                                     block, re.M):
            keys = set(re.findall(r'"(\w+)="', body))
            if keys:               # a record of key=value tokens
                documented[rule] = keys
    assert documented.pop("rung") == set(_FIELDS["window"])
    flag = re.search(r"`--window ([^`]*)`", doc).group(1)
    documented["window"] = set(re.findall(r"(\w+)=", flag))
    assert {"linear", "square", "iterlog", "polylog"} <= documented.keys()
    assert documented == {kind: set(fields) for kind, fields in _FIELDS.items()}
