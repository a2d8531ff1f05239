"""Command dispatch: exit codes, report content, determinism."""

import contextlib
import glob
import io
import json
import os
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import golden
from fixtures import count_bundles, within
from morseflow import cli, errors
from morseflow.cerf import CerfTuple
from morseflow.cli import MAX_CASCADE_STAGES, data_path, main
from morseflow.diagrams import family_svg, trace_svg
from morseflow.errors import MAX_LITERAL_DIGITS
from morseflow.scenario import load_scenario, serialize_scenario
from morseflow.tracker import SpectralTrace, TraceSegment

DESCENDING = """
[arcs]
c1 : (0, 8) (1, 2)

[track]
class = c1

[phi]
bound = linear(c=1)
"""

BAD_SLIDE = """
[arcs]
c1 : (0, 4) (1, 4)
c2 : (0, 1) (1, 1)

[events]
slide r=1/2 : (c2, c1) = 1
"""


# a pair alive from r=0 whose branches count 2 to each other: over Z the
# death's pivot is no unit
BAD_DEATH = """
[coefficients]
ring = z

[arcs]
up : (0, 6) (3/4, 3) ends=boundary,death(vd)
dn : (0, 1) (3/4, 3) ends=boundary,death(vd)

[vertices]
vd : death r=3/4 f3=3 plus=up minus=dn

[gamma]
(up, dn) = 2

[events]
death r=3/4 vertex=vd
"""


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestDataPath:
    @pytest.mark.parametrize("name", ["slide", "twoslides", "birth",
                                      "eyeball", "escaping", "duplicate_event",
                                      "ladder"])
    def test_bundled_names_resolve(self, name):
        p = data_path(name)
        assert os.path.isfile(p) and p.endswith(name + ".scn")

    def test_unknown_name(self):
        with pytest.raises(OSError):
            data_path("nonexistent")


# the exit code of every error class in errors.py, and of file I/O
EXIT_CODES = {
    1: ("ScenarioError", "ScenarioSyntaxError", "ScenarioSemanticError",
        "OSError"),
    2: ("InvalidTuple", "InvalidWindow", "NonNestedLadder"),
    3: ("AxiomViolation", "NonTriangularDelta", "NonUnitPivot",
        "DeathPivotNotUnit", "CycleConditionViolated",
        "ActionConstraintViolated", "ConstraintViolated", "EvolutionError",
        "NotADifferential"),
    4: ("MorseflowError", "DimensionMismatch", "NonUnitError",
        "VerticalTangency", "NonIsolatedCusp", "DegenerateParameter",
        "VerificationFailed", "NotACycle", "EmptyTrace",
        "ZeroClass", "UnsupportedFamily", "PrecisionExhausted",
        "InvalidParameters", "MissingClassData", "OutOfRange"),
}
EXIT_CODE = {name: code for code, names in EXIT_CODES.items() for name in names}
ERROR_CLASSES = [c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, errors.MorseflowError)]


class TestExitCodes:
    @pytest.mark.parametrize("error", ERROR_CLASSES + [OSError],
                             ids=lambda c: c.__name__)
    def test_every_error_class_exits_with_its_code(self, error, monkeypatch,
                                                   capsys):
        def fail(arg, flags):
            raise error("planted")
        monkeypatch.setitem(cli._COMMANDS, "validate", fail)
        assert main(["validate", "slide"]) == EXIT_CODE[error.__name__]
        assert capsys.readouterr().err == "error: planted\n"

    def test_validate_ok(self, capsys):
        assert main(["validate", "slide"]) == 0
        out = capsys.readouterr().out
        assert "result: ok" in out and out.startswith("# morseflow 0.1.0")

    def test_validate_structural_failure(self, capsys):
        assert main(["validate", "escaping"]) == 2
        out = capsys.readouterr().out
        assert "C1-compactness" in out

    @pytest.mark.parametrize("cmd", ["evolve", "homology", "track", "escape", "plot"])
    def test_structural_failure_in_every_command_reading_the_family(self, cmd, capsys):
        assert main(["validate", "escaping"]) == 2
        cerf = capsys.readouterr().out.split("[axioms]")[0]
        assert main([cmd, "escaping"]) == 2
        assert capsys.readouterr().out == cerf

    def test_rabinowitz_reads_only_the_model(self, capsys):
        assert main(["rabinowitz", "escaping"]) == 1
        assert "[rabinowitz]" in capsys.readouterr().err

    def test_parse_failure(self, capsys):
        assert main(["validate", "duplicate_event"]) == 1
        err = capsys.readouterr().err
        assert "disjoint" in err

    def test_validate_needs_a_scenario(self, capsys):
        assert main(["validate"]) == 1
        assert capsys.readouterr() == (
            "", "error: this command needs a scenario argument\n")

    def test_run_refuses_an_unknown_command(self):
        with pytest.raises(errors.ScenarioError,
                           match="^unknown command 'frobnicate'$"):
            cli.run("frobnicate", "slide", None)

    def test_missing_file(self, capsys):
        assert main(["validate", "no_such_scenario"]) == 1

    def test_axiom_failure_on_evolve(self, tmp_path, capsys):
        p = write(tmp_path, "bad.scn", BAD_SLIDE)
        assert main(["evolve", p]) == 3
        assert "action order" in capsys.readouterr().err

    def test_axiom_failure_reported_by_validate(self, tmp_path, capsys):
        p = write(tmp_path, "bad.scn", BAD_SLIDE)
        assert main(["validate", p]) == 3
        assert "gamma1" in capsys.readouterr().out

    def test_death_pivot_failure(self, tmp_path, capsys):
        p = write(tmp_path, "bad.scn", BAD_DEATH)
        assert main(["evolve", p]) == 3
        assert "dying branches" in capsys.readouterr().err
        assert main(["validate", p]) == 3
        assert "error gamma5: count between" in capsys.readouterr().out

    def test_computation_failure(self, capsys):
        # slide's slope test under |s|^(1/10^7) needs integers past the cap
        assert main(["escape", "slide", "--phi",
                     "polylog(c=1, p=1/10000000)"]) == 4
        assert "past the cap" in capsys.readouterr().err

    def test_track_needs_class(self, tmp_path, capsys):
        p = write(tmp_path, "min.scn", "[arcs]\nc1 : (0, 4) (1, 4)\n")
        assert main(["track", p]) == 1
        assert "--class" in capsys.readouterr().err


class TestReports:
    def test_track_lists_both_transfers(self, capsys):
        assert main(["track", "twoslides"]) == 0
        out = capsys.readouterr().out
        assert "# transfer at r=19/48: c1 -> c2" in out
        assert "# transfer at r=149/176: c2 -> c3" in out
        assert "final: 12" in out

    def test_track_class_flag_overrides(self, capsys):
        # c3 bounds, so its class is zero and the trace sits at -inf
        assert main(["track", "slide", "--class", "c3"]) == 0
        out = capsys.readouterr().out
        assert "final: -inf" in out and "transfer" not in out

    def test_coeff_override(self, capsys):
        assert main(["track", "slide", "--coeff", "z"]) == 0
        out = capsys.readouterr().out
        assert "# transfer at r=3/4: c1 -> c2" in out

    def test_window_flag(self, capsys):
        # c2 climbs from 2 to 6, so a ceiling at 5 crosses it: the window
        # is invalid, as homology reports with the same exit code
        for cmd in ("track", "escape", "plot", "homology"):
            assert main([cmd, "slide", "--window", "a=0,b=5",
                         "--phi", "linear(c=9)"]) == 2
            io = capsys.readouterr()
            assert io.out == "" and "c2" in io.err and "ceiling" in io.err
        assert main(["track", "slide", "--window", "a=1/2,b=7"]) == 0
        out = capsys.readouterr().out
        assert "# transfer at r=3/4: c1 -> c2" in out
        assert "# outcome: Survived" in out and "final: 6" in out

    def test_escape_on_an_empty_trace_gives_no_verdict(self, capsys):
        # c3 lies below the floor, so the tracked class is zero from the start
        flags = ["--class", "c3", "--window", "a=3/2,b=10", "--phi", "linear(c=9)"]
        assert main(["track", "slide"] + flags) == 0
        assert "# outcome: LeftWindow(below)" in capsys.readouterr().out
        assert main(["escape", "slide"] + flags) == 4
        io = capsys.readouterr()
        assert "verdict" not in io.out and "no segments" in io.err

    def test_homology_table(self, capsys):
        assert main(["homology", "slide"]) == 0
        out = capsys.readouterr().out
        rows = [l for l in out.splitlines() if l and l[0].isdigit()]
        assert len(rows) == 2
        assert all("\t1\t-" in r for r in rows)

    def test_evolve_dump(self, capsys):
        assert main(["evolve", "slide"]) == 0
        out = capsys.readouterr().out
        assert "(c1, c3) = 1" in out and "event r=3/8: handleslide" in out

    def test_descending_trace_is_priced(self, tmp_path, capsys):
        # the fall from 8 to 2 costs ln 4 under linear(c=1), as the rise would
        p = write(tmp_path, "desc.scn", DESCENDING)
        assert main(["escape", p]) == 0
        out = capsys.readouterr().out
        assert "step 0: 8 -> 2 costs 1.3862943611198904" in out
        assert "flat steps: 0" in out
        assert "verdict: InfeasibleWithinUnitTime" in out

    def test_a_rise_whose_float_cost_rounds_to_zero_is_not_flat(
            self, tmp_path, capsys):
        p = write(tmp_path, "rise.scn", DESCENDING.replace(
            "(0, 8) (1, 2)",
            "(0, 100000000000000000000) (1, 100000000000000000001)"))
        assert main(["escape", p]) == 0
        out = capsys.readouterr().out
        assert ("step 0: 100000000000000000000 -> 100000000000000000001 "
                "costs 0.0") in out
        assert "flat steps: 0" in out

    def test_escape_with_phi_flag(self, capsys):
        assert main(["escape", "slide", "--phi", "linear(c=9)"]) == 0
        out = capsys.readouterr().out
        assert "result: ok" in out and "verdict: WithinBudget" in out

    def test_rabinowitz_verdict(self, capsys):
        assert main(["rabinowitz", "eyeball"]) == 0
        out = capsys.readouterr().out
        assert "class survives (margin 1)" in out
        assert "conditional on H3" in out

    def test_rabinowitz_needs_section(self, capsys):
        assert main(["rabinowitz", "slide"]) == 1

    def test_rabinowitz_on_a_form_homotopy_that_does_not_move(
            self, tmp_path, capsys):
        # nothing moves, so the class is invariant with no growth bound
        p = write(tmp_path, "still.scn",
                  "[arcs]\nc1 : (0, 1) (1, 1)\n\n[rabinowitz]\nh_sup = 1\n"
                  "c = 1\ntheta = 0\neta_rate = 1\n")
        assert main(["rabinowitz", p]) == 0
        out = capsys.readouterr().out
        assert "verdict: invariant" in out and "growth bound" not in out

    def test_rabinowitz_inconclusive_verdict(self, tmp_path, capsys):
        # square-tame, c = 1: the tails reach 1/rho0 = 1, short of 1 + kappa
        p = write(tmp_path, "far.scn",
                  "[arcs]\nc1 : (0, 1) (1, 1)\n\n[rabinowitz]\nh_sup = 1\n"
                  "c = 1\nclass = squaretame\nrho0 = 1\nkappa = 1\n")
        assert main(["rabinowitz", p]) == 0
        assert ("verdict: inconclusive: a tail integral reaches only 1 where "
                "2 is required (failing integral 1)\n"
                in capsys.readouterr().out)

    def test_rabinowitz_depth_past_four_is_a_parse_error(
            self, tmp_path, capsys):
        p = write(tmp_path, "deep.scn",
                  "[arcs]\nc1 : (0, 1) (1, 1)\n\n[rabinowitz]\nh_sup = 1\n"
                  "class = logtame\ndepth = 5\n")
        assert main(["rabinowitz", p]) == 1
        err = capsys.readouterr().err
        assert "line 5" in err and "depth" in err


    ROOT_TIE = """
[arcs]
c1 : (0, 290521/250000) (1, 560021/250000)

[phi]
bound = polylog(c=1, p=%s)
kappa = 499/501
rho0 = 251001/250000
"""

    def test_fractional_power_ties_are_exact(self, tmp_path, capsys):
        # the slope 539/500 equals (290521/250000)^(1/2), and the upper
        # tail under |s|^(3/2) from rho0 = (501/500)^2 equals 1 + kappa
        assert main(["escape", write(tmp_path, "half.scn",
                                     self.ROOT_TIE % "1/2")]) == 0
        out = capsys.readouterr().out
        assert "[H1]\ninfo  summary: slope bound and both divergences " \
               "hold\nresult: ok\n" in out
        assert main(["escape", write(tmp_path, "three_halves.scn",
                                     self.ROOT_TIE % "3/2")]) == 0
        out = capsys.readouterr().out
        assert "required: 1000/501\nmargin: 0.0\nresult: ok\n" in out

    def test_root_past_the_power_cap_exits_4(self, tmp_path, capsys):
        path = write(tmp_path, "tiny.scn", self.ROOT_TIE % "1/10000000")
        assert main(["escape", path]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "past the cap" in err

    def test_unregistered_bound_is_named_as_written(self, capsys):
        assert main(["escape", "slide", "--phi",
                     "polylog(c=1, p=1/3, logs=(2))"]) == 4
        assert capsys.readouterr().err == (
            "error: no closed-form antiderivative registered for p=1/3, "
            "logs=(2)\n")


class TestArtifacts:
    def test_out_dir_writes_files(self, tmp_path, capsys):
        out = str(tmp_path / "arts")
        assert main(["validate", "slide", "--out", out]) == 0
        printed = capsys.readouterr().out.strip().splitlines()
        assert printed == [os.path.join(out, "validation.txt")]
        with open(printed[0], encoding="utf-8") as fh:
            assert "result: ok" in fh.read()

    def test_reports_are_deterministic(self, capsys):
        main(["track", "twoslides"])
        first = capsys.readouterr().out
        main(["track", "twoslides"])
        assert capsys.readouterr().out == first

    def test_plot_svgs_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["plot", "eyeball", "--out", a]) == 0
        assert main(["plot", "eyeball", "--out", b]) == 0
        for name in ("cerf.svg", "trace.svg"):
            pa = open(os.path.join(a, name), "rb").read()
            pb = open(os.path.join(b, name), "rb").read()
            assert pa == pb
            assert b"morseflow 0.1.0" in pa
            assert b"<svg" in pa and b"timestamp" not in pa

    def test_cascade_round_trip(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["cascade", "--n", "3", "--out", out]) == 0
        path = capsys.readouterr().out.strip()
        sc = load_scenario(path)
        assert serialize_scenario(sc) == open(path, encoding="utf-8").read()
        assert main(["validate", path]) == 0
        capsys.readouterr()

    def test_cascade_then_escape_budget(self, tmp_path, capsys):
        out = str(tmp_path)
        main(["cascade", "--n", "5", "--out", out])
        path = capsys.readouterr().out.strip()
        assert main(["escape", path]) == 0
        text = capsys.readouterr().out
        # four doubling stages above the exempt gap: total (n-1) ln 2
        assert "total: 2.772588722239781" in text
        assert "verdict: InfeasibleWithinUnitTime" in text
        assert "escape to infinity costs +inf: True" in text

    @pytest.mark.parametrize("n", [3, 8])
    def test_only_tracking_builds_event_maps(self, n, tmp_path, capsys,
                                             monkeypatch):
        main(["cascade", "--n", str(n), "--out", str(tmp_path)])
        path = capsys.readouterr().out.strip()
        calls = count_bundles(monkeypatch)
        for cmd in ("validate", "evolve", "homology"):
            assert main([cmd, path]) == 0
        assert calls == []
        assert main(["track", path]) == 0
        # a cascade of n stages has n slides
        assert 0 < len(calls) <= n
        capsys.readouterr()

    def test_escape_verdict_at_a_convergent_of_e(self, tmp_path, capsys):
        # one doubling-style stage of ratio just above e: the float total
        # prints 1.0, the exact verdict is infeasible
        main(["cascade", "--n", "2", "--ratio", "438351041/161260336",
              "--out", str(tmp_path)])
        path = capsys.readouterr().out.strip()
        main(["escape", path])
        text = capsys.readouterr().out
        assert "total: 1.0\n" in text
        assert "verdict: InfeasibleWithinUnitTime" in text

    def test_cascade_thirty_passes_its_own_window_check(self, tmp_path, capsys):
        main(["cascade", "--n", "30", "--out", str(tmp_path)])
        path = capsys.readouterr().out.strip()
        assert main(["validate", path]) == 0
        capsys.readouterr()
        assert main(["track", path]) == 0
        out = capsys.readouterr().out
        assert "# outcome: Survived" in out
        assert out.endswith("final: %d\n" % 2**30)

    def test_cascade_needs_n(self, capsys):
        assert main(["cascade"]) == 1


class TestDiagrams:
    def test_a_family_with_no_arcs_is_drawn_on_the_unit_range(self):
        svg = family_svg(CerfTuple(()))
        assert "<polyline" not in svg and "<circle" not in svg
        assert re.findall(r'text-anchor="end">([^<]*)<', svg) == ["0", "1"]

    def test_a_transfer_that_starts_no_slab_draws_no_mark(self):
        # a hand-built trace: track_class marks transfers at slab starts
        slabs = (TraceSegment(0, Fraction(0), Fraction(1, 2), ("a",), "a",
                              Fraction(2), Fraction(3), True),
                 TraceSegment(0, Fraction(1, 2), Fraction(1), ("b",), "b",
                              Fraction(3), Fraction(4), True))
        plain = trace_svg(SpectralTrace(slabs, (), "Survived", ()))
        inside = trace_svg(SpectralTrace(
            slabs, ((Fraction(1, 4), "a", "b"),), "Survived", ()))
        at_start = trace_svg(SpectralTrace(
            slabs, ((Fraction(1, 2), "a", "b"),), "Survived", ()))
        assert inside == plain
        assert at_start.count("<circle") == 1


class TestInputLimits:
    """Malformed or oversized numbers end in one error line and exit 1,
    before any work starts."""

    @staticmethod
    def assert_one_error_line(capsys, *words):
        io = capsys.readouterr()
        assert io.out == ""
        lines = io.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert all(w in lines[0] for w in words)

    @pytest.mark.parametrize("flag", ["--base", "--ratio", "--delta"])
    @pytest.mark.parametrize("value", ["abc", "1/0", "1e", "2/"])
    def test_malformed_cascade_flag(self, flag, value, tmp_path, capsys):
        argv = ["cascade", "--n", "3", flag, value, "--out", str(tmp_path)]
        assert main(argv) == 1
        self.assert_one_error_line(capsys, flag, "not an exact number")
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize("flag", ["--base", "--ratio", "--delta"])
    def test_oversized_cascade_flag(self, flag, tmp_path, capsys):
        for value in ("2" * (MAX_LITERAL_DIGITS + 1), "2e%d" % MAX_LITERAL_DIGITS):
            argv = ["cascade", "--n", "3", flag, value, "--out", str(tmp_path)]
            assert main(argv) == 1
            self.assert_one_error_line(capsys, flag, "digits")

    def test_cascade_flags_at_the_digit_limit(self, tmp_path, capsys):
        big = "3" * MAX_LITERAL_DIGITS
        out = str(tmp_path)
        assert main(["cascade", "--n", "0", "--base", big, "--out", out]) == 0
        path = capsys.readouterr().out.strip()
        sc = load_scenario(path)
        assert sc.family.arc("c1").f3.value(0) == int(big)
        assert main(["cascade", "--n", "1", "--ratio", big, "--delta", big,
                     "--coeff", "z", "--out", out]) == 0
        sc = load_scenario(capsys.readouterr().out.strip())
        assert sc.family.arc("c2").f3.value(1) == int(big)

    def test_cascade_stage_limit(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["cascade", "--n", str(MAX_CASCADE_STAGES), "--out", out]) == 0
        path = capsys.readouterr().out.strip()
        assert path.endswith("cascade%d.scn" % MAX_CASCADE_STAGES)
        text = open(path, encoding="utf-8").read()
        assert str(2 ** MAX_CASCADE_STAGES) in text
        assert main(["cascade", "--n", str(MAX_CASCADE_STAGES + 1), "--out", out]) == 1
        self.assert_one_error_line(capsys, "--n", str(MAX_CASCADE_STAGES))

    def test_cascade_heights_must_fit_a_literal(self, tmp_path, capsys):
        # 10^(k n) has k n + 1 digits
        n = 4
        ok = "1" + "0" * ((MAX_LITERAL_DIGITS - 1) // n)
        assert main(["cascade", "--n", str(n), "--ratio", ok, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        over = ok + "0"
        assert main(["cascade", "--n", str(n), "--ratio", over, "--out", str(tmp_path)]) == 1
        self.assert_one_error_line(capsys, "digits")

    def test_window_phi_and_class_flags(self, capsys):
        big = "9" * MAX_LITERAL_DIGITS
        assert main(["track", "slide", "--window", "a=-%s,b=%s" % (big, big)]) == 0
        assert "# outcome: Survived" in capsys.readouterr().out
        assert main(["escape", "slide", "--phi", "linear(c=%s)" % big]) == 0
        assert "verdict: WithinBudget" in capsys.readouterr().out
        over = big + "9"
        for argv in (["track", "slide", "--window", "a=0,b=%s" % over],
                     ["track", "slide", "--window", "a=1e%d,b=2" % MAX_LITERAL_DIGITS],
                     ["escape", "slide", "--phi", "linear(c=%s)" % over],
                     ["track", "slide", "--class", "%s*c1" % over]):
            assert main(argv) == 1
            self.assert_one_error_line(capsys, "digits")

    @pytest.mark.parametrize("flag, value", [
        ("--phi", "garbage"), ("--phi", "linear(c=0)"),
        ("--phi", "iterlog(c=1, depth=3/2)"), ("--window", "garbage"),
        ("--window", "a=0,b=10,junk"), ("--window", "a=0,a=1,b=10"),
        ("--class", "c1 ++ c2"), ("--class", "zz"),
        # a flag given empty is read, not taken for one left out
        ("--window", ""), ("--phi", ""), ("--class", "")])
    def test_malformed_window_and_phi_flags(self, flag, value, capsys):
        cmd = "escape" if flag == "--phi" else "track"
        assert main([cmd, "slide", flag, value]) == 1
        self.assert_one_error_line(capsys, flag + ":")


    @pytest.mark.parametrize("bound", [
        "linear(c=1, c=5)", "linear(c=1, garbage)",
        "linear(c=1, gap=(-1, 1, 7))", "square(c=1, gap=(-2))",
        "linear(c=1,)"])
    def test_malformed_bound_in_flag_and_file(self, bound, tmp_path, capsys):
        assert main(["escape", "slide", "--phi", bound]) == 1
        self.assert_one_error_line(capsys, "--phi:")
        path = write(tmp_path, "phi.scn", DESCENDING.replace(
            "linear(c=1)", bound))
        assert main(["escape", path]) == 1
        self.assert_one_error_line(capsys, "line 9:")

    @pytest.mark.parametrize("argv, words", [
        (["--n", "-1"], "nonnegative"),
        (["--n", "3", "--ratio", "1"], "exceed 1"),
        (["--n", "3", "--base", "0"], "positive"),
        (["--n", "3", "--delta", "0"], "nonzero"),
        (["--n", "3", "--delta", "2"], "nonzero"),
        (["--n", "3", "--delta", "1/2", "--coeff", "z"], "not an integer"),
    ])
    def test_cascade_value_out_of_range(self, argv, words, tmp_path, capsys):
        assert main(["cascade"] + argv + ["--out", str(tmp_path)]) == 1
        self.assert_one_error_line(capsys, "cascade:", words)
        assert os.listdir(str(tmp_path)) == []


class TestBirthPivot:
    """A birth's pivot= is read as an exact literal, like every entry."""

    @staticmethod
    def birth_with(tmp_path, old, new):
        text = open(data_path("birth"), encoding="utf-8").read()
        assert old in text
        return write(tmp_path, "b.scn", text.replace(old, new))

    @pytest.mark.parametrize("cmd", ["validate", "track", "homology"])
    @pytest.mark.parametrize("name", ["birth", "eyeball"])
    def test_integer_coefficients(self, cmd, name, capsys):
        assert main([cmd, name, "--coeff", "z"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("pivot", ["abc", "1" * (MAX_LITERAL_DIGITS + 1)])
    def test_malformed_or_oversized_pivot(self, pivot, tmp_path, capsys):
        path = self.birth_with(tmp_path, "pivot=1", "pivot=" + pivot)
        assert main(["validate", path]) == 1
        TestInputLimits.assert_one_error_line(capsys, "line 16")

    def test_fractional_pivot_over_the_integers(self, tmp_path, capsys):
        for old, new in (("pivot=1", "pivot=1/2"), ("(c1) = 1", "(c1) = 1/2")):
            path = self.birth_with(tmp_path, old, new)
            assert main(["validate", path, "--coeff", "z"]) == 1
            TestInputLimits.assert_one_error_line(capsys, "line 16:",
                                                  "1/2 is not an integer")


class TestValuesOutsideTheRing:
    """A matrix value, pivot or chain coefficient the ring does not hold
    is a parse error at its line, or naming its flag, with exit 1."""

    @pytest.mark.parametrize("name, old, new, cmd, line", [
        ("slide", "(c2, c3) = 1", "(c2, c3) = 1/2", "validate", 13),
        ("slide", "(c1, c2) = 1", "(c1, c2) = 1/2", "validate", 16),
        ("slide", "class = c1", "class = 1/2*c1", "track", 23),
        ("birth", "pivot=1", "pivot=3/2", "validate", 16),
        ("birth", "(c1) = 1", "(c1) = 1/2", "validate", 16),
    ])
    def test_in_a_file(self, name, old, new, cmd, line, tmp_path, capsys):
        text = open(data_path(name), encoding="utf-8").read()
        assert old in text
        path = write(tmp_path, name + ".scn", text.replace(old, new))
        assert main([cmd, path]) == 1
        TestInputLimits.assert_one_error_line(
            capsys, "line %d:" % line, "cannot reduce", "mod 2")

    @pytest.mark.parametrize("coeff, words", [
        ("z2", "cannot reduce 1/2 mod 2"), ("z", "1/2 is not an integer")])
    def test_in_the_class_flag(self, coeff, words, capsys):
        assert main(["track", "slide", "--class", "1/2*c1", "--coeff",
                     coeff]) == 1
        TestInputLimits.assert_one_error_line(capsys, "--class:", words)


def test_flags_do_not_leak_between_calls(capsys):
    with open(golden.GOLDEN, encoding="utf-8") as fh:
        want = json.load(fh)["track slide"]
    # tracking c3, a boundary, gives a different trace
    for flags in (["--window", "a=0,b=10"], ["--class", "c3"]):
        assert main(["track", "slide"] + flags) == 0
        flagged = capsys.readouterr().out
        assert main(["track", "slide"]) == want["exit"]
        assert capsys.readouterr().out == want["stdout"]
    assert flagged != want["stdout"]


class TestDeclaredFields:
    """Keyed fields, points and matrix positions the grammar does not
    allow end in one `error: line N:` line naming the key or text, and
    exit 1, where they once parsed into another family."""

    @pytest.mark.parametrize("name, old, new, cmd, words", [
        ("birth", "pivot=1", "pivto=3", "validate", ("line 16:", "'pivto'")),
        ("eyeball", "kappa = 1", "kappa = 1\nthata = 2", "rabinowitz",
         ("line 35:", "'thata'")),
        ("eyeball", "kappa = 1", "kappa = 0", "rabinowitz",
         ("line 34:", "kappa must be positive")),
        ("eyeball", "kappa = 1",
         "kappa = 1\n[phi]\nbound = linear(c=1)\nrho0 = 1\nkappa = 0",
         "escape", ("line 38:", "kappa must be positive")),
        ("slide", "ring = z2", "ring = z2\nring = z", "validate",
         ("line 6:", "'ring'", "twice")),
        ("slide", "b = 10", "b = 10\na = 1", "track",
         ("line 21:", "'a'", "twice")),
        ("slide", "class = c1", "class = c1\nclass = c2", "track",
         ("line 24:", "'class'", "twice")),
        ("slide", "(1/2, 2) (1, 6)", "(1/2, 2 (1, 6) junk", "track",
         ("line 9:", "'(1/2, 2'")),
        ("slide", "(c2, c3) = 1", "(c2, c3) = 1\n(c2, c3) = 0", "validate",
         ("line 14:", "(c2, c3)", "twice")),
        ("slide", "(c1, c2) = 1", "(c1, c2) = 1; (c1, c2) = 0", "validate",
         ("line 16:", "(c1, c2)", "twice")),
        ("birth", "(c1) = 1", "(c1) = 1; (c1) = 1", "validate",
         ("line 16:", "(c1)", "twice")),
        ("slide", "slide r=3/8 : (c1, c2) = 1", "slide r=1/2 : c1, c2) = 1",
         "validate", ("line 16:", "slide entries")),
        ("eyeball", "death r=3/4 vertex=vd", "death r=3/4 vertex=vd : (c1) = 5",
         "validate", ("line 18:", "death takes no entries")),
        # after a `:`, at least one entry and no empty `;` part
        ("eyeball", "death r=3/4 vertex=vd", "death r=3/4 vertex=vd :",
         "validate", ("line 18:", "death takes no entries")),
        ("birth", "pivot=1 : (c1) = 1", "pivot=1 :", "validate",
         ("line 16:", "birth entries")),
        ("slide", "r=3/8 : (c1, c2) = 1", "r=3/8 :", "validate",
         ("line 16:", "slide entries")),
        ("slide", "(c1, c2) = 1", "(c1, c2) = 1;;", "validate",
         ("line 16:", "slide entries")),
        ("birth", "(c1) = 1", "(c1) = 1;", "validate",
         ("line 16:", "birth entries")),
    ])
    def test_refused_with_its_line(self, name, old, new, cmd, words,
                                   tmp_path, capsys):
        text = open(data_path(name), encoding="utf-8").read()
        assert old in text
        path = write(tmp_path, name + ".scn", text.replace(old, new))
        assert main([cmd, path]) == 1
        TestInputLimits.assert_one_error_line(capsys, *words)


class TestMalformedScenarioText:
    """Malformed scenario text ends in one error line and exit 1; a
    repeated vertex id still reaches the structural check."""

    @pytest.mark.parametrize("text, words", [
        ("[arcs]\nc1 : (0, 4) (0, 5)\n", ("line 2", "increasing")),
        ("[arcs]\nc1 : (0, 4)\n", ("line 2", "two breakpoints")),
        ("[arcs]\nc1 : (0, 4) (1, 4)\n[window]\na = (0, 1)\nb = 9\n",
         ("line 4", "two breakpoints")),
        ("[arcs]\nc1 : (0, 4) (1, 4)\n[window]\na = 0\nb = (0, 9) (0, 9)\n",
         ("line 5", "increasing")),
    ])
    def test_bad_breakpoints(self, text, words, tmp_path, capsys):
        assert main(["validate", write(tmp_path, "bp.scn", text)]) == 1
        TestInputLimits.assert_one_error_line(capsys, *words)

    @pytest.mark.parametrize("text, words", [
        ("[arcs]\nc1 : 0, 4 1, 4\n", ("line 2", "expected (r, value) pairs")),
        ("[arcs]\nc1 : (0, 4) (1, 4) ends=boundary\n",
         ("line 2", "ends= needs two tags")),
        ("[arcs]\nc1 : (0, 4) (1, 4)\n[vertices]\nvb birth r=1/2\n",
         ("line 4", "vertex lines are `id : kind")),
    ])
    def test_malformed_line(self, text, words, tmp_path, capsys):
        assert main(["validate", write(tmp_path, "bad.scn", text)]) == 1
        TestInputLimits.assert_one_error_line(capsys, *words)

    def test_ladder_line_without_colon(self, tmp_path, capsys):
        p = write(tmp_path, "lad.scn",
                  "[arcs]\nc1 : (0, 4) (1, 4)\n[ladder]\nwindow a=0 b=10\n")
        assert main(["validate", p]) == 1
        TestInputLimits.assert_one_error_line(
            capsys, "line 4", "[ladder] lines are `window : a=.. b=..`")

    @pytest.mark.parametrize("cmd", ["validate", "homology"])
    def test_repeated_arc_id(self, cmd, tmp_path, capsys):
        p = write(tmp_path, "dup.scn",
                  "[arcs]\nc1 : (0, 4) (1, 4)\nc1 : (0, 5) (1, 5)\n")
        assert main([cmd, p]) == 1
        TestInputLimits.assert_one_error_line(capsys, "line 3", "'c1'")

    def test_repeated_vertex_id_is_a_cerf_finding(self, tmp_path, capsys):
        vertex = "vb : birth r=1/2 f3=2 plus=up minus=down\n"
        p = write(tmp_path, "dupv.scn",
                  "[arcs]\nc1 : (0, 5) (1, 5)\n"
                  "up : (1/2, 2) (1, 12) ends=birth(vb),boundary\n"
                  "down : (1/2, 2) (1, 0) ends=birth(vb),boundary\n"
                  "[vertices]\n" + vertex + vertex +
                  "[events]\nbirth r=1/2 vertex=vb pivot=1\n")
        assert main(["validate", p]) == 2
        assert "error duplicate-id: vertex id 'vb'" in capsys.readouterr().out

    @pytest.mark.parametrize("cmd", ["validate", "homology"])
    def test_empty_arcs_section(self, cmd, tmp_path, capsys):
        p = write(tmp_path, "empty.scn", "[arcs]\n[window]\na = 0\nb = 9\n")
        assert main([cmd, p]) == 1
        TestInputLimits.assert_one_error_line(capsys, "[arcs]")


_TOKEN = re.compile(r"\s+|\w+|\S")
_BUNDLED_TEXTS = [open(p, encoding="utf-8").read() for p in
                  sorted(glob.glob(os.path.join(os.path.dirname(
                      data_path("slide")), "*.scn")))]


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario with one to three of its tokens deleted,
    inserted (a copy of any of its tokens) or duplicated in place."""
    toks = _TOKEN.findall(draw(st.sampled_from(_BUNDLED_TEXTS)))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(toks) - 1))
        op = draw(st.sampled_from(["delete", "insert", "duplicate"]))
        if op == "delete":
            del toks[i]
        else:
            toks.insert(i, toks[i] if op == "duplicate"
                        else draw(st.sampled_from(toks)))
    return "".join(toks)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=mutated_scenarios())
def test_mutated_scenarios_end_in_an_exit_code(text, tmp_path_factory):
    """No traceback from any command on mutated text: an exit code in
    {0, 1, 2, 3, 4}, and stderr empty or one error: line."""
    path = str(tmp_path_factory.getbasetemp() / "mutant.scn")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    for cmd in ("validate", "evolve", "homology", "track", "escape", "plot"):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([cmd, path])
        assert code in (0, 1, 2, 3, 4), (cmd, text)
        lines = err.getvalue().splitlines()
        assert not lines or (len(lines) == 1 and lines[0].startswith("error: ")), \
            (cmd, text)


_NUMBERS = st.sampled_from(["0", "1", "-1", "1/2", "-3/2", "7", "10", "1e3",
                            "2.5", "1/0", "abc", "", "9" * 101])
_CHAINS = st.lists(st.tuples(st.sampled_from(["", "+ ", "- ", "2*", "1/2*",
                                              "++", "*"]),
                             st.sampled_from(["c1", "c2", "c3", "up", "down",
                                              "runaway", "zz", "1"])),
                   min_size=1, max_size=3).map(
    lambda terms: " ".join(s + a for s, a in terms))
_BOUNDS = st.tuples(st.sampled_from([
    "linear(c=%s)", "square(c=%s)", "iterlog(c=%s, depth=2)",
    "polylog(c=%s, p=-1, gap=(-1, 1))", "polylog(c=%s, p=1/2)",
    "polylog(c=%s, p=3/2)", "linear(c=%s, gap=(0, 1))",
    "cubic(c=%s)", "linear(%s)", "linear(c=%s, gap=(-2))",
    "linear(c=%s, gap=(-1, 1, 7))", "linear(c=1, c=%s)",
    "linear(c=%s, garbage)", "linear(c=%s,)"]), _NUMBERS).map(
    lambda fb: fb[0] % fb[1])
_WINDOWS = st.tuples(_NUMBERS, _NUMBERS, st.sampled_from(
    ["a=%s,b=%s", "a=%s", "a=%s,a=%s", "a=%s,b=%s,c=1", "b=%s a=%s"])).map(
    lambda t: t[2] % t[:t[2].count("%s")])


@st.composite
def flag_runs(draw):
    """One morseflow command line with random flag values, each given as
    --flag=value so that a leading minus stays a value: a bundled
    scenario under every command, or a small cascade."""
    cmd = draw(st.sampled_from(["validate", "evolve", "homology", "track",
                                "escape", "plot", "rabinowitz", "cascade"]))
    argv = [cmd]
    if cmd == "cascade":
        argv += ["--n", str(draw(st.integers(0, 6)))]
        for flag in ("--base", "--ratio", "--delta"):
            if draw(st.booleans()):
                argv.append("%s=%s" % (flag, draw(_NUMBERS)))
    else:
        argv.append(draw(st.sampled_from(["slide", "twoslides", "birth",
                                          "eyeball", "escaping"])))
        for flag, values in (("--window", _WINDOWS), ("--phi", _BOUNDS),
                             ("--class", _CHAINS)):
            if draw(st.booleans()):
                argv.append("%s=%s" % (flag, draw(values)))
    coeff = draw(st.sampled_from([None, "z2", "z", "q"]))
    return argv + (["--coeff", coeff] if coeff else [])


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(argv=flag_runs())
def test_random_flags_end_in_an_exit_code(argv):
    """No traceback from random --window, --phi, --class, --coeff and
    cascade values: an exit code in {0, 1, 2, 3, 4}, stderr empty or one
    error: line, and at most 10 s of wall time per run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            within(10):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), argv
    lines = err.getvalue().splitlines()
    assert not lines or (len(lines) == 1 and lines[0].startswith("error: ")), \
        (argv, lines)
