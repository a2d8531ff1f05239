"""Every slab of every trace carries a certificate that a separate
checker verifies (certify.py): a chain y for the upper bound and a
functional phi for the lower one."""

import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

import certify
import randgen
from fixtures import within
from morseflow.bifurcation import evolve
from morseflow.cli import data_path
from morseflow.errors import NotACycle
from morseflow.escape import build_cascade
from morseflow.rings import Q, Z, Z2
from morseflow.scenario import load_scenario
from morseflow.tracker import (Window, track_class, wide_window,
                               window_violation)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# the three-lane complex at r = 1/4: c1 at 4, c2 at 2 and c3 at 1, with
# d(c2) = k c3
ACTIONS = {"c1": F(4), "c2": F(2), "c3": F(1)}


def lanes(k):
    return {("c2", "c3"): k}


def certified_slabs(log, w, h):
    """The number of slabs of h's trace in w, each certified; 0 when h is
    not a cycle there."""
    try:
        trace = track_class(h, log, w)
    except NotACycle:
        return 0
    bad = certify.certify_trace(trace, log, w)
    assert bad == [], bad[:3]
    return len(trace.segments)


def certify_every_class(log, windows):
    """certified_slabs of each generator alive at r = 0, alone, in each
    usable window of windows: the total."""
    gens = sorted(log.intervals[0].gamma.rows, key=str)
    total = 0
    for w in windows:
        if window_violation(w, log.family) is not None:
            continue
        total += sum(certified_slabs(log, w, {g: log.ring.one}) for g in gens)
    return total


class TestCheck:
    @pytest.mark.parametrize("ring, phi", [(Z2, {"c1": 1}),
                                           (Z, {"c1": F(1, 2)}),
                                           (Q, {"c1": F(1)})])
    def test_a_lone_top_is_certified(self, ring, phi):
        assert certify.check(ring, lanes(1), {"c1": 1}, ACTIONS, 4, {},
                             phi) is None

    def test_a_boundary_reads_minus_inf(self):
        assert certify.check(Z, lanes(1), {"c3": 1}, ACTIONS, certify.NEG_INF,
                             {"c2": -1}, {}) is None
        assert certify.check(Z2, lanes(1), {"c3": 1}, ACTIONS,
                             certify.NEG_INF, {"c2": 1}, {}) is None

    def test_torsion_over_the_integers(self):
        # c3 is half a boundary: over Q it is one, over Z it is not, and
        # phi = c3 / 2 is integral on the row 2 c3 but not on c3
        d = lanes(2)
        assert certify.check(Q, d, {"c3": 1}, ACTIONS, certify.NEG_INF,
                             {"c2": F(-1, 2)}, {}) is None
        assert "integral" in certify.check(
            Z, d, {"c3": 1}, ACTIONS, certify.NEG_INF, {"c2": F(-1, 2)}, {})
        assert certify.check(Z, d, {"c3": 1}, ACTIONS, 1, {},
                             {"c3": F(1, 2)}) is None
        assert "kills h" in certify.check(Z, d, {"c3": 1}, ACTIONS, 1, {},
                                          {"c3": 1})

    def test_each_broken_witness_is_refused(self):
        d, h = lanes(1), {"c1": 1, "c3": 1}
        # the class c1 + c3 is c1 + d(c2): its value is 4, not 1
        assert certify.check(Z2, d, h, ACTIONS, 4, {"c2": 1},
                             {"c1": 1}) is None
        assert "tops out" in certify.check(Z2, d, h, ACTIONS, 1, {"c2": 1},
                                           {"c3": 1})
        assert "below" in certify.check(Z2, d, h, ACTIONS, 4, {"c2": 1},
                                        {"c1": 1, "c3": 1})
        assert "row" in certify.check(Z2, d, {"c3": 1}, ACTIONS, 1, {},
                                      {"c3": 1})
        assert "kills h" in certify.check(Z2, d, h, ACTIONS, 4, {"c2": 1}, {})

    def test_check_imports_neither_algebra_nor_tracker(self):
        code = (
            "import sys, certify\n"
            "from morseflow.rings import Z\n"
            "assert certify.check(Z, {('b', 'a'): 2}, {'a': 1}, {'a': 1, "
            "'b': 2}, 1, {}, {'a': certify.Fraction(1, 2)}) is None\n"
            "print(sorted(m for m in sys.modules if m.startswith('morseflow')))")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            (os.path.join(ROOT, "src"), HERE)))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        loaded = done.stdout.split("'")
        assert "morseflow.rings" in loaded
        assert "morseflow.algebra" not in loaded
        assert "morseflow.tracker" not in loaded


class TestCertifiedTraces:
    """certify.certify_trace passes on every slab of every trace: each
    generator's class on randgen families in the wide window and in one
    with a floor, the bundled scenarios' classes and the cascades'."""

    @pytest.mark.parametrize("ring", [Z2, Z, Q], ids=str)
    def test_random_families(self, ring):
        slabs = 0
        with within(60):
            for seed in range(80):
                sc = randgen.random_scenario(
                    random.Random("certify %s/%d" % (ring.name, seed)), ring)
                log = evolve(sc.gamma0, sc.events, sc.family)
                slabs += certify_every_class(
                    log, (wide_window(sc.family), Window.constant(10, 200)))
        assert slabs > 1000

    @pytest.mark.parametrize("ring", [Z2, Z, Q], ids=str)
    def test_bundled_scenarios(self, ring):
        slabs = 0
        with within(30):
            # escaping and duplicate_event are invalid on purpose
            for name in ("slide", "twoslides", "birth", "eyeball", "ladder"):
                sc = load_scenario(data_path(name), ring)
                log = evolve(sc.gamma0, sc.events, sc.family)
                w = sc.window or wide_window(sc.family)
                if sc.rep is not None:
                    slabs += certified_slabs(log, w, sc.rep)
                slabs += certify_every_class(log, [w])
        assert slabs > 20

    @pytest.mark.parametrize("n", [6, 12, 30, 60])
    def test_cascades(self, n):
        with within(30):
            t, g0, events = build_cascade(n)
            log = evolve(g0, events, t)
            assert certified_slabs(log, wide_window(t), {"c1": 1}) > n
