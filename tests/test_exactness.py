"""No floats enter the engine: a syntax check of its modules.

The exact layers (coefficient rings, matrices, elimination, piecewise
geometry, the family model, the event engine, tracking, the scenario
reader, and the deformation models with their eta bound in rabinowitz)
may hold no float literal, call float(...) nowhere and import no math
module.  The one float allowed is tracker.NEG_INF, the -inf value of
the zero class.
"""

import ast
import os

import pytest

import morseflow

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
