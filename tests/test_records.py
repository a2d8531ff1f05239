"""Result records are NamedTuples: immutable, with a fixed repr, field
order and defaults, and rebuilt by _replace.  Types whose class is the
meaning stay dataclasses, since equal tuples compare equal across types."""

from fractions import Fraction

import pytest

from morseflow.algebra import HomologyResult
from morseflow.bifurcation import ChainMapBundle, Death, EvolutionLog, evolve
from morseflow.cerf import (BirthVertex, BoundaryAt0, BoundaryAt1, Component,
                            DeathVertex, Finding, LiftResult, ValidationReport)
from morseflow.cli import RunArtifacts, data_path
from morseflow.escape import EscapeBudget, H1Report, H2Report
from morseflow.rabinowitz import (H3_NOTE, ClassSurvives, HypersurfaceHomotopy,
                                  Inconclusive, Invariant, LogTame, SquareTame,
                                  Tame)
from morseflow.scenario import load_scenario
from morseflow.tracker import (LadderLeg, SpectralTrace, SpectralValue,
                               StabilizationReport, TraceSegment, TrackedClass,
                               Window, full_homology)

# each record with its declared fields, in order, and its defaults
RECORDS = {
    HomologyResult: (("ring_name", "free_rank", "torsion"), {"torsion": ()}),
    ChainMapBundle: (("kind", "forward", "backward", "homotopy"),
                     {"homotopy": None}),
    EvolutionLog: (("family", "intervals", "steps"), {}),
    Component: (("kind", "arcs"), {}),
    Finding: (("code", "severity", "message"), {}),
    ValidationReport: (("findings",), {}),
    LiftResult: (("samples", "contact_residuals", "nontransverse"), {}),
    RunArtifacts: (("reports", "files", "exit_code"),
                   {"files": (), "exit_code": 0}),
    H1Report: (("ok", "slope_ok", "divergence_ok", "findings"), {}),
    H2Report: (("ok", "upper_threshold", "lower_threshold", "upper_integral",
                "lower_integral", "required", "margin"), {}),
    EscapeBudget: (("heights", "step_costs", "total", "verdict",
                    "escape_cost_infinite"), {}),
    Invariant: (("phi", "assumption"), {"assumption": H3_NOTE}),
    ClassSurvives: (("phi", "report", "assumption"), {"assumption": H3_NOTE}),
    Inconclusive: (("phi", "failing_integral", "reason", "assumption"),
                   {"assumption": H3_NOTE}),
    Window: (("a", "b"), {}),
    SpectralValue: (("value", "certified", "support", "top"),
                    {"support": (), "top": None}),
    LadderLeg: (("proj_rank", "incl_rank", "proj_iso", "incl_iso"), {}),
    StabilizationReport: (("results", "legs", "stabilized", "message"), {}),
    TraceSegment: (("interval_index", "r_lo", "r_hi", "support", "top",
                    "rho_lo", "rho_hi", "certified"), {}),
    TrackedClass: (("interval_index", "representative", "rho_start",
                    "rho_end"), {}),
    SpectralTrace: (("segments", "transfers", "outcome", "classes"), {}),
}


def sample(cls):
    """An instance with a distinct value in every field."""
    fields = RECORDS[cls][0]
    return cls(*(Fraction(i + 1, 3) if i % 2 else "v%d" % i
                 for i in range(len(fields))))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
class TestRecordContract:
    def test_fields_and_defaults(self, cls):
        fields, defaults = RECORDS[cls]
        assert issubclass(cls, tuple)
        assert cls._fields == fields
        assert cls._field_defaults == defaults

    def test_fields_cannot_be_assigned(self, cls):
        rec = sample(cls)
        for name in RECORDS[cls][0]:
            with pytest.raises(AttributeError):
                setattr(rec, name, None)

    def test_repr_names_every_field_in_order(self, cls):
        rec = sample(cls)
        assert repr(rec) == "%s(%s)" % (cls.__name__, ", ".join(
            "%s=%r" % (name, getattr(rec, name)) for name in RECORDS[cls][0]))

    def test_replace_keeps_the_type(self, cls):
        rec = sample(cls)
        first = RECORDS[cls][0][0]
        new = rec._replace(**{first: "other"})
        assert type(new) is cls
        assert getattr(new, first) == "other" and new[1:] == rec[1:]


class TestText:
    def test_homology_result(self):
        assert str(HomologyResult("Z", 2, (2, 6))) == \
            "free^2 + cyclic(2) + cyclic(6)"
        assert str(HomologyResult("Z2", 0)) == "0"

    def test_finding_and_report(self):
        a = Finding("duplicate-id", "error", "arc 'x' declared twice")
        b = Finding("summary", "info", "all axioms pass")
        assert str(a) == "[error] duplicate-id: arc 'x' declared twice"
        assert str(ValidationReport((a, b))) == (
            "[error] duplicate-id: arc 'x' declared twice\n"
            "[info] summary: all axioms pass")
        assert str(ValidationReport(())) == "valid (no findings)"
        assert not ValidationReport((a, b)).ok and ValidationReport((b,)).ok

    def test_escape_budget(self):
        budget = EscapeBudget((1, 2, 4), (Fraction(1, 2), Fraction(1, 4)),
                              Fraction(3, 4), "WithinBudget", False)
        assert str(budget) == "cost 3/4 over 2 steps: WithinBudget"

    def test_stabilization_report(self):
        h = HomologyResult("Z", 1, (2,))
        rep = StabilizationReport((HomologyResult("Z", 0), h),
                                  (LadderLeg(0, 0, True, False),), h,
                                  "stabilized: %s" % (h,))
        assert str(rep) == ("step 0: 0\nstep 1: free^1 + cyclic(2)\n"
                            "stabilized: free^1 + cyclic(2)")

    def test_the_bundled_ladder_stabilizes(self):
        # a record on the right of % is read as the argument tuple, so the
        # message formats the stabilized result as a one-tuple
        sc = load_scenario(data_path("ladder"))
        log = evolve(sc.gamma0, sc.events, sc.family)
        rep = full_homology(sc.family, log, log.intervals[0].midpoint(),
                            sc.ladder)
        assert rep.stabilized == HomologyResult("Z", 1, (2,))
        assert rep.message == "stabilized: free^1 + cyclic(2)"


def test_types_that_are_the_meaning_stay_apart():
    # tuples with equal fields are equal whatever their type; these
    # classes are told apart by type alone, so they stay dataclasses
    assert BoundaryAt0() != BoundaryAt1()
    assert BirthVertex("v") != DeathVertex("v")
    assert len({Tame(), SquareTame(), HypersurfaceHomotopy(), LogTame()}) == 4
    assert Death("v") != BirthVertex("v")
    for cls in (BoundaryAt0, BirthVertex, Tame, LogTame, Death):
        assert not issubclass(cls, tuple)
