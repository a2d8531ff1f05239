"""Hand-built families, a wall-time guard and a counter of comparison-map
builds shared across test modules.

All numeric values here were computed by hand from the piecewise-linear
profiles; tests freeze them as expected values.
"""

import contextlib
import signal
from fractions import Fraction as F

from morseflow import bifurcation
from morseflow.cerf import (Arc, BirthVertex, BoundaryAt0, BoundaryAt1,
                            CerfTuple, DeathVertex, Vertex)
from morseflow.piecewise import Piecewise


def chord(aid, points):
    """Full-width chord arc with boundary tags."""
    pw = Piecewise(points)
    lo = BoundaryAt0() if pw.r_lo == 0 else BoundaryAt1()
    hi = BoundaryAt1() if pw.r_hi == 1 else BoundaryAt0()
    return Arc(aid, pw, lo, hi)


def three_lane_tuple():
    """Three chords; the middle profile rises and crosses the top one.

    c1 constant 4; c2 starts at 2, flat to 1/2, then climbs to 6 (crosses
    c1 at r = 3/4); c3 constant 1.
    """
    c1 = chord("c1", [(0, 4), (1, 4)])
    c2 = chord("c2", [(0, 2), (F(1, 2), 2), (1, 6)])
    c3 = chord("c3", [(0, 1), (1, 1)])
    return CerfTuple((c1, c2, c3))


def eyeball_tuple():
    """One loop: pair born at r=1/4, action 3, dying at r=3/4, action 3."""
    up = Arc("up", Piecewise([(F(1, 4), 3), (F(1, 2), 5), (F(3, 4), 3)]),
             BirthVertex("vb"), DeathVertex("vd"))
    down = Arc("down", Piecewise([(F(1, 4), 3), (F(1, 2), 1), (F(3, 4), 3)]),
               BirthVertex("vb"), DeathVertex("vd"))
    vb = Vertex("vb", "birth", F(1, 4), 3, "up", "down")
    vd = Vertex("vd", "death", F(3, 4), 3, "up", "down")
    return CerfTuple((up, down), (vb, vd))


def eyeball_with_bystander():
    t = eyeball_tuple()
    c1 = chord("c1", [(0, 7), (1, 7)])
    return CerfTuple(t.arcs + (c1,), t.vertices)


def birth_tuple():
    """A constant chord plus a V-shaped chord born at r=1/2, action 2.

    The upper branch climbs with slope 20 and overtakes the constant
    chord (action 5) at r = 13/20.
    """
    c1 = chord("c1", [(0, 5), (1, 5)])
    up = Arc("up", Piecewise([(F(1, 2), 2), (1, 12)]),
             BirthVertex("vb"), BoundaryAt1())
    down = Arc("down", Piecewise([(F(1, 2), 2), (1, 0)]),
               BirthVertex("vb"), BoundaryAt1())
    vb = Vertex("vb", "birth", F(1, 2), 2, "up", "down")
    return CerfTuple((c1, up, down), (vb,))


def escaping_tuple():
    """Arc whose footprint stops short of r=1 with an open end requested."""
    a = Arc("runaway", Piecewise([(0, 3), (F(1, 2), 3)]),
            BoundaryAt0(), BoundaryAt1(), hi_open=True)
    return CerfTuple((a,))


class Overtime(Exception):
    """A block guarded by within() ran past its wall-time bound.

    Not an OSError, so cli.main's file-error handler cannot swallow it.
    """


@contextlib.contextmanager
def within(seconds):
    """Fail the block with Overtime once it has run `seconds` of wall
    time: a real-time timer interrupts it, so a hang fails too."""
    def expire(signum, frame):
        raise Overtime("ran past %s s" % seconds)
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def count_bundles(monkeypatch):
    """The list to which each ChainMapBundle an event recipe builds from
    now on is appended."""
    built = []
    real = bifurcation.ChainMapBundle

    def counted(*args):
        built.append(real(*args))
        return built[-1]
    monkeypatch.setattr(bifurcation, "ChainMapBundle", counted)
    return built
