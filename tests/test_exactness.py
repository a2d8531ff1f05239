"""No floats enter the engine: a syntax check of its modules.

The exact layers (coefficient rings, matrices, elimination, piecewise
geometry, the family model, the event engine, tracking, the scenario
reader, and the deformation models with their eta bound in rabinowitz)
may hold no float literal, call float(...) nowhere and import no math
module.  The one float allowed is tracker.NEG_INF, the -inf value of
the zero class.

A number a caller gives enters through one door, piecewise.frac: every
entry point that takes a number returns, or raises a MorseflowError,
whatever value it is given.
"""

import ast
import os
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import morseflow
from morseflow.bifurcation import Death, EventRecord
from morseflow.errors import MorseflowError
from morseflow.escape import GrowthBound, iterlog, linear, polylog, square
from morseflow.matrix import SparseMatrix
from morseflow.piecewise import Piecewise, crossings, frac
from morseflow.rings import Q, Z, Z2

EXACT_MODULES = ("rings", "matrix", "algebra", "piecewise", "cerf",
                 "bifurcation", "tracker", "scenario", "rabinowitz")
ALLOWED = {("tracker", "NEG_INF")}      # (module, assigned name)


def float_uses(module):
    """(line, what) of every float literal, float(...) call and math
    import in the module, outside the allowed assignments."""
    path = os.path.join(os.path.dirname(morseflow.__file__), module + ".py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read(), path)
    allowed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and (module, t.id) in ALLOWED
                for t in node.targets):
            allowed.update(id(n) for n in ast.walk(node.value))
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, "float literal %r" % node.value))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float(...) call"))
        elif isinstance(node, ast.Import):
            found.extend((node.lineno, "import %s" % a.name) for a in node.names
                         if a.name.split(".")[0] in ("math", "cmath"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(
                ".")[0] in ("math", "cmath"):
            found.append((node.lineno, "from %s import" % node.module))
    return sorted(found)


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_no_float_enters_the_engine(module):
    assert float_uses(module) == []


def test_the_check_sees_each_kind_of_float(tmp_path, monkeypatch):
    src = ("import math\nfrom math import log\nx = 0.5\ny = float(3)\n"
           "NEG_INF = float('-inf')\n")
    pkg = tmp_path / "morseflow"
    pkg.mkdir()
    (pkg / "tracker.py").write_text(src)
    (pkg / "rings.py").write_text(src)
    monkeypatch.setattr(morseflow, "__file__", str(pkg / "__init__.py"))
    assert [line for line, _ in float_uses("tracker")] == [1, 2, 3, 4]
    assert [line for line, _ in float_uses("rings")] == [1, 2, 3, 4, 5]


# values of every kind a caller may pass for a number: exact ones, floats
# with NaN and the infinities, text within and past the literal bound,
# and values that are no number at all
NUMBERS = st.one_of(
    st.integers(), st.just(10 ** 400), st.booleans(), st.fractions(),
    st.floats(), st.none(), st.tuples(st.integers()),
    st.sampled_from(["3/4", "-2", " 5 ", "0.25", "1e3", "x", "", "1/0", "nan",
                     "inf", "1e101", "9" * 101, "2.5e-99", (), 1j,
                     Decimal("0.5")]),
    st.text(max_size=6))

RISING = Piecewise(((0, 0), (1, 2)))
LEVEL = Piecewise.constant(1)
LINEAR = linear(1)

DOORS = [("frac", frac),
         ("Piecewise value", lambda v: Piecewise(((0, v), (1, 1)))),
         ("Piecewise parameter", lambda v: Piecewise(((v, 0), (2, 1)))),
         (".value", RISING.value),
         ("crossings lo", lambda v: crossings(RISING, LEVEL, v, None)),
         ("crossings hi", lambda v: crossings(RISING, LEVEL, None, v)),
         ("linear", linear), ("square", square),
         ("iterlog c", lambda v: iterlog(v, 1)),
         ("iterlog depth", lambda v: iterlog(1, v)),
         ("polylog c", lambda v: polylog(v, 1)),
         ("polylog p", lambda v: polylog(1, v)),
         ("polylog logs", lambda v: polylog(1, 1, logs=v)),
         ("polylog log exponent", lambda v: polylog(1, 1, logs=(v,))),
         ("GrowthBound log_powers", lambda v: GrowthBound(1, 1, v, (-2, 2))),
         ("cost lo", lambda v: LINEAR.cost(v, 2)),
         ("cost hi", lambda v: LINEAR.cost(2, v)),
         ("EventRecord", lambda v: EventRecord(v, Death("v")))]
for ring in (Z2, Z, Q):
    DOORS += [("%s.coerce" % ring, ring.coerce),
              ("%s.is_unit" % ring, ring.is_unit),
              ("%s.invert" % ring, ring.invert),
              ("SparseMatrix(%s)" % ring, lambda v, ring=ring: SparseMatrix(
                  ring, ("a",), ("a",), {("a", "a"): v}))]


@settings(max_examples=300, deadline=None)
@given(value=NUMBERS)
def test_every_number_door_returns_or_raises_a_morseflow_error(value):
    for name, door in DOORS:
        try:
            door(value)
        except MorseflowError:
            pass
        except Exception as e:
            pytest.fail("%s(%r) raised %r" % (name, value, e))
