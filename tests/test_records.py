"""The contract of morseflow's immutable classes.

Result records are NamedTuples: immutable, with a fixed repr, field
order and defaults, and rebuilt by _replace.  Value types derive from
values.Value instead, since equal tuples compare equal across types and
for some of them the class is the meaning.  They are as immutable, and
rebuilt by _replace through their own constructor; their repr is the
Name(field=value, ...) form they had as dataclasses, and their hash is
the hash of the tuple of their compared fields."""

import inspect
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from morseflow.algebra import HomologyResult
from morseflow.bifurcation import (Birth, ChainMapBundle, Death, EventRecord,
                                   EventStep, EvolutionLog, FlowCounter,
                                   HandleSlide, evolve)
from morseflow.cerf import (Arc, BirthVertex, BoundaryAt0, BoundaryAt1,
                            CerfTuple, DeathVertex, Finding, LiftResult,
                            ValidationReport, Vertex)
from morseflow.cli import RunArtifacts, data_path
from morseflow.errors import InvalidParameters, InvalidTuple
from morseflow.escape import EscapeBudget, GrowthBound, H1Report, H2Report
from morseflow.matrix import SparseMatrix
from morseflow.piecewise import Piecewise
from morseflow.rabinowitz import (H3_NOTE, ClassSurvives, HomotopyModel,
                                  HypersurfaceHomotopy, Inconclusive,
                                  Invariant, LogTame, SquareTame,
                                  SymplecticFormHomotopy, Tame)
from morseflow.rings import Z2
from morseflow.scenario import Scenario, load_scenario
from morseflow.tracker import (LadderLeg, SpectralTrace, SpectralValue,
                               StabilizationReport, TraceSegment, TrackedClass,
                               Window, full_homology)

# each record with its declared fields, in order, and its defaults
RECORDS = {
    HomologyResult: (("ring_name", "free_rank", "torsion"), {"torsion": ()}),
    ChainMapBundle: (("kind", "forward", "backward", "homotopy"),
                     {"homotopy": None}),
    EvolutionLog: (("family", "intervals", "steps"), {}),
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
    Scenario: (("ring", "family", "gamma0", "events", "window", "ladder",
                "rep", "phi", "kappa", "rho0", "model", "model_rho0",
                "model_kappa", "path"),
               {"window": None, "ladder": (), "rep": None, "phi": None,
                "kappa": None, "rho0": None, "model": None,
                "model_rho0": None, "model_kappa": None, "path": ""}),
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
    # classes are told apart by type alone, so they are values.Value
    # classes, whose == holds within one class only
    assert BoundaryAt0() != BoundaryAt1()
    assert BirthVertex("v") != DeathVertex("v")
    assert len({Tame(), SquareTame(), HypersurfaceHomotopy(), LogTame()}) == 4
    assert Death("v") != BirthVertex("v")
    for cls in (BoundaryAt0, BirthVertex, Tame, LogTame, Death):
        assert not issubclass(cls, tuple)


def _piecewise():
    return Piecewise(((0, 1), ("1/2", 3)))


def _arc():
    return Arc("a", _piecewise(), BoundaryAt0(), DeathVertex("v"))


def _vertex():
    return Vertex("v", "death", "1/2", 3, "a", "b")


def _counter():
    return FlowCounter(0, 0, "1/2", SparseMatrix(Z2, ("a",), ("a",), {}))


def _step():
    return EventStep(EventRecord("1/2", Death("v")), _counter(), _counter(),
                     lambda: "maps")


_PW = ("Piecewise(points=((Fraction(0, 1), Fraction(1, 1)), "
       "(Fraction(1, 2), Fraction(3, 1))))")
_ARC = ("Arc(id='a', f3=%s, lo_tag=BoundaryAt0(), "
        "hi_tag=DeathVertex(vertex='v'), lo_open=False, hi_open=False)" % _PW)
_VERTEX = ("Vertex(id='v', kind='death', r=Fraction(1, 2), f3=Fraction(3, 1), "
           "plus_arc='a', minus_arc='b')")
_COUNTER = ("FlowCounter(interval_index=0, r_lo=Fraction(0, 1), "
            "r_hi=Fraction(1, 2), gamma=SparseMatrix<Z2 1x1 {}>)")
_RECORD = "EventRecord(r=Fraction(1, 2), payload=Death(vertex='v'))"

# each value class: its constructor's parameters in order, their
# defaults, a sample and the sample's repr (the dataclass form, pinned)
VALUES = {
    Piecewise: (("points",), {}, _piecewise, _PW),
    BoundaryAt0: ((), {}, BoundaryAt0, "BoundaryAt0()"),
    BoundaryAt1: ((), {}, BoundaryAt1, "BoundaryAt1()"),
    BirthVertex: (("vertex",), {}, lambda: BirthVertex("v"),
                  "BirthVertex(vertex='v')"),
    DeathVertex: (("vertex",), {}, lambda: DeathVertex("v"),
                  "DeathVertex(vertex='v')"),
    Arc: (("id", "f3", "lo_tag", "hi_tag", "lo_open", "hi_open"),
          {"lo_open": False, "hi_open": False}, _arc, _ARC),
    Vertex: (("id", "kind", "r", "f3", "plus_arc", "minus_arc"), {}, _vertex,
             _VERTEX),
    CerfTuple: (("arcs", "vertices"), {"vertices": ()},
                lambda: CerfTuple([_arc()], [_vertex()]),
                "CerfTuple(arcs=(%s,), vertices=(%s,))" % (_ARC, _VERTEX)),
    HandleSlide: (("delta",), {}, lambda: HandleSlide([["a", "b", 1]]),
                  "HandleSlide(delta=(('a', 'b', 1),))"),
    Birth: (("vertex", "pivot", "new_column"), {"new_column": ()},
            lambda: Birth("v", 1, [["a", 1]]),
            "Birth(vertex='v', pivot=1, new_column=(('a', 1),))"),
    Death: (("vertex",), {}, lambda: Death("v"), "Death(vertex='v')"),
    EventRecord: (("r", "payload"), {},
                  lambda: EventRecord("1/2", Death("v")), _RECORD),
    FlowCounter: (("interval_index", "r_lo", "r_hi", "gamma"), {}, _counter,
                  _COUNTER),
    EventStep: (("record", "before", "after", "build_maps"), {}, _step,
                "EventStep(record=%s, before=%s, after=%s)"
                % (_RECORD, _COUNTER, _COUNTER)),
    GrowthBound: (("coefficient", "power", "log_powers", "gap", "label"),
                  {"label": "polylog"},
                  lambda: GrowthBound(1, 1, (1,), (-2, 3), "iterlog"),
                  "GrowthBound(coefficient=Fraction(1, 1), "
                  "power=Fraction(1, 1), log_powers=(Fraction(1, 1),), "
                  "gap=(Fraction(-2, 1), Fraction(3, 1)), label='iterlog')"),
    Tame: ((), {}, Tame, "Tame()"),
    LogTame: (("depth",), {"depth": 1}, LogTame, "LogTame(depth=1)"),
    SquareTame: ((), {}, SquareTame, "SquareTame()"),
    HypersurfaceHomotopy: ((), {}, HypersurfaceHomotopy,
                           "HypersurfaceHomotopy()"),
    SymplecticFormHomotopy: (("theta", "eta_rate"), {"eta_rate": None},
                             lambda: SymplecticFormHomotopy(1, 2),
                             "SymplecticFormHomotopy(theta=Fraction(1, 1), "
                             "eta_rate=Fraction(2, 1))"),
    HomotopyModel: (("h_sup", "tame_constant", "tame_class", "variant"),
                    {"tame_class": Tame(), "variant": HypersurfaceHomotopy()},
                    lambda: HomotopyModel("1/2", 1, LogTame(2),
                                          SymplecticFormHomotopy(1)),
                    "HomotopyModel(h_sup=Fraction(1, 2), "
                    "tame_constant=Fraction(1, 1), tame_class=LogTame(depth=2), "
                    "variant=SymplecticFormHomotopy(theta=Fraction(1, 1), "
                    "eta_rate=None))"),
}

# constructor parameters that ==, hash and repr skip
UNCOMPARED = {EventStep: ("build_maps",)}


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
class TestValueContract:
    def test_fields_and_defaults(self, cls):
        params, defaults = VALUES[cls][:2]
        sig = inspect.signature(cls)
        assert tuple(sig.parameters) == params
        assert {name: p.default for name, p in sig.parameters.items()
                if p.default is not p.empty} == defaults
        assert cls._fields + UNCOMPARED.get(cls, ()) == params
        assert not issubclass(cls, tuple)

    def test_fields_cannot_be_assigned_or_deleted(self, cls):
        value = VALUES[cls][2]()
        before = repr(value)
        for name in VALUES[cls][0] + ("other",):
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
        assert repr(value) == before

    def test_repr_is_pinned(self, cls):
        assert repr(VALUES[cls][2]()) == VALUES[cls][3]

    def test_equal_within_the_class_only(self, cls):
        value, same = VALUES[cls][2](), VALUES[cls][2]()
        assert value == same and not value != same
        assert hash(value) == hash(same)
        for other in VALUES:
            if other is not cls:
                assert value != VALUES[other][2]()

    def test_hash_is_the_hash_of_the_compared_fields(self, cls):
        value = VALUES[cls][2]()
        if cls is Piecewise:     # its own __hash__, on the integer points
            assert hash(value) == hash(value.ints)
        else:
            assert hash(value) == hash(tuple(
                getattr(value, name) for name in VALUES[cls][0]
                if name not in UNCOMPARED.get(cls, ())))

    def test_replace_keeps_the_type_and_the_value(self, cls):
        value = VALUES[cls][2]()
        new = value._replace()
        assert type(new) is cls and new is not value
        assert new == value and repr(new) == repr(value)


# a value, a change that its constructor refuses, and the error
REFUSED = [
    (GrowthBound(2, 1, (), (-1, 1)), {"coefficient": 0},
     InvalidParameters, "coefficient must be positive"),
    (GrowthBound(2, 1, (), (-1, 1)), {"gap": 5},
     InvalidParameters, "the exclusion interval is a pair"),
    (_vertex(), {"kind": "both"}, InvalidTuple,
     "vertex kind must be birth or death"),
    (_piecewise(), {"points": ((0, 1),)}, InvalidParameters,
     "need at least two breakpoints"),
    (SymplecticFormHomotopy(1, 2), {"eta_rate": -1}, InvalidParameters,
     "eta rate must be nonnegative"),
    (HomotopyModel(1, 2), {"tame_class": LogTame(9)}, InvalidParameters,
     "log-tame depth must be from 1 to 4"),
]


class TestValueReplace:
    @pytest.mark.parametrize("value, changes, error, message", REFUSED, ids=[
        "%s-%s" % (type(value).__name__, *changes)
        for value, changes, _, _ in REFUSED])
    def test_checks_run_again(self, value, changes, error, message):
        with pytest.raises(error, match=message):
            value._replace(**changes)

    def test_conversions_run_again(self):
        assert _vertex()._replace(r=1).r == Fraction(1)
        assert HandleSlide(())._replace(delta=[["a", "b", 1]]).delta == \
            (("a", "b", 1),)
        f = _piecewise()._replace(points=((0, 2), (1, "7/2")))
        assert f.ints == ((0, 1, 2, 1), (1, 1, 7, 2))
        moved = _arc()._replace(id="b")
        t = CerfTuple([_arc()])._replace(arcs=[moved])
        assert t.arcs == (moved,) and t.arc("b") is moved

    def test_an_unknown_field_is_refused(self):
        with pytest.raises(TypeError):
            _arc()._replace(colour="red")

    def test_an_event_step_keeps_its_recipe(self):
        step = _step()
        later = step._replace(after=_counter()._replace(interval_index=1))
        assert later.maps == "maps" and later != step
        other = step._replace(build_maps=lambda: "other")
        assert other.maps == "other" and other == step


def test_the_command_imports_neither_dataclasses_nor_inspect():
    """Defining a value class generates and executes no code, so
    importing the command loads neither dataclasses nor inspect (which
    dataclasses imports)."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
        __file__))), "src")
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, morseflow.cli; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True)
    assert out.stdout.strip() == "[]"
