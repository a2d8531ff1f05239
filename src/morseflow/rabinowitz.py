"""Growth-bound models for deforming Floer-type homologies.

A homotopy of the defining data moves action values of tracked classes
at a rate controlled by a tameness estimate: |d rho / d r| <= Phi(|rho|)
with Phi determined by the tameness class and the homotopy's supremum
rate.  This module builds the matching growth bound, bounds the
auxiliary quantity eta along the deformation by an exact rational upper
bound, and classifies what the budget arguments yield: full invariance,
survival of a single class, or nothing.  Every verdict is conditional on
the standing compactness hypothesis (H3); the flag is carried explicitly
and never absorbed.

No geometry lives here: suprema, tame constants, and the form-variation
constant theta are inputs measured elsewhere.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import InvalidParameters, MissingClassData, OutOfRange
from .escape import (MAX_LOG_DEPTH, POWER_CAP_BITS, _exp_bounds,
                     _is_log_depth, check_H2, iterlog, linear, square)
from .piecewise import frac
from .values import Value

H3_NOTE = "conditional on H3"


# ---------------------------------------------------------------------------
# tameness classes and homotopy variants

class Tame(Value):
    pass


class LogTame(Value):
    _fields = ("depth",)

    def __init__(self, depth=1):
        object.__setattr__(self, "depth", depth)


class SquareTame(Value):
    pass


class HypersurfaceHomotopy(Value):
    pass


class SymplecticFormHomotopy(Value):
    """Deformation of the ambient form rather than the hypersurface.

    theta replaces the homotopy supremum in the growth bound.  eta_rate,
    when given, is an alternative exponential rate for the eta estimate;
    the stated growth relation is used as an upper bound.
    """

    _fields = ("theta", "eta_rate")

    def __init__(self, theta, eta_rate=None):
        theta = frac(theta)
        if theta < 0:
            raise InvalidParameters("theta must be nonnegative")
        if eta_rate is not None:
            eta_rate = frac(eta_rate)
            if eta_rate < 0:
                raise InvalidParameters("eta rate must be nonnegative")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "eta_rate", eta_rate)


class HomotopyModel(Value):
    _fields = ("h_sup", "tame_constant", "tame_class", "variant")

    def __init__(self, h_sup, tame_constant, tame_class=Tame(),
                 variant=HypersurfaceHomotopy()):
        h_sup = frac(h_sup)               # sup over r of the motion rate
        tame_constant = frac(tame_constant)
        if h_sup < 0:
            raise InvalidParameters("homotopy supremum must be nonnegative")
        if tame_constant <= 0:
            raise InvalidParameters("tame constant must be positive")
        if not isinstance(tame_class, (Tame, LogTame, SquareTame)):
            raise InvalidParameters("unknown tameness class: %r"
                                    % (tame_class,))
        if (isinstance(tame_class, LogTame)
                and not _is_log_depth(tame_class.depth)):
            raise InvalidParameters("log-tame depth must be from 1 to %d"
                                    % MAX_LOG_DEPTH)
        if not isinstance(variant,
                          (HypersurfaceHomotopy, SymplecticFormHomotopy)):
            raise InvalidParameters("unknown homotopy variant: %r"
                                    % (variant,))
        object.__setattr__(self, "h_sup", h_sup)
        object.__setattr__(self, "tame_constant", tame_constant)
        object.__setattr__(self, "tame_class", tame_class)
        object.__setattr__(self, "variant", variant)

    @property
    def motion_rate(self):
        """Rate constant entering the growth bound (theta when the form
        moves, the homotopy supremum otherwise)."""
        if isinstance(self.variant, SymplecticFormHomotopy):
            return self.variant.theta
        return self.h_sup

    @property
    def eta_growth_rate(self):
        if (isinstance(self.variant, SymplecticFormHomotopy)
                and self.variant.eta_rate is not None):
            return self.variant.eta_rate
        return self.h_sup


# ---------------------------------------------------------------------------
# the eta estimate

# fractional bits of the e^c bound: its relative excess over e^c is under
# 1e-15 at c = 709 and under 1e-12 at c = 5 * 10^5
ETA_BITS = 64


def eta_bound(model, eta0, r):
    """An exact Fraction at or above exp(rate * r) * |eta0|, bounding |eta_r|.

    It is |eta0| itself when rate * r or eta0 is zero, and otherwise the
    upper end of escape._exp_bounds(rate * r, ETA_BITS) times |eta0|.
    An exponent rate * r past escape.POWER_CAP_BITS is refused with
    OutOfRange before any exponential is formed, so the work stays
    bounded for every input.
    """
    r = frac(r)
    if not 0 <= r <= 1:
        raise OutOfRange("the deformation parameter lives in [0, 1]")
    exponent = model.eta_growth_rate * r
    if exponent > POWER_CAP_BITS:
        raise OutOfRange("the exponent rate * r = %s is past the cap of %d"
                         % (exponent, POWER_CAP_BITS))
    eta0 = abs(frac(eta0))
    if exponent == 0 or eta0 == 0:
        return eta0
    return Fraction(_exp_bounds(exponent, ETA_BITS)[1], 1 << ETA_BITS) * eta0


# ---------------------------------------------------------------------------
# growth bound per tameness class

def phi_for_class(model):
    """The growth bound the tameness estimate provides.

    Tame gives a linear bound with coefficient c * rate, log-tame an
    iterated-log bound with the same coefficient, square-tame c * s^2
    with no rate dependence.  The slope half of the escape hypothesis
    holds by definition of the class; what remains checkable is the
    divergence or tail behavior of the integrals.
    """
    c = model.tame_constant
    cls = model.tame_class
    if isinstance(cls, SquareTame):
        return square(c)
    rate = model.motion_rate
    if rate == 0:
        raise InvalidParameters(
            "autonomous deformation: nothing moves, no growth bound needed")
    if isinstance(cls, Tame):
        return linear(c * rate)
    return iterlog(c * rate, cls.depth)


# ---------------------------------------------------------------------------
# the verdicts

class Invariant(NamedTuple):
    phi: object
    assumption: str = H3_NOTE


class ClassSurvives(NamedTuple):
    phi: object
    report: object              # the H2 evaluation backing the verdict
    assumption: str = H3_NOTE


class Inconclusive(NamedTuple):
    phi: object
    failing_integral: object
    reason: str
    assumption: str = H3_NOTE


def classify_invariance(model, rho0=None, kappa=None):
    """What the budget arguments give for this deformation model.

    Tame and log-tame bounds have divergent escape integrals on both
    sides, so every class is pinned: Invariant.  A square-tame bound has
    finite tails; a single class starting at rho0 survives when both
    tail integrals reach 1 + kappa, which happens exactly for
    |rho0| <= 1/(c + c*kappa).  Otherwise the method says nothing.

    No tame or log-tame bound converges: phi_for_class gives linear
    (p = 1, no logs) or iterlog (p = 1, every q = 1), and
    diverges_at_infinity holds for both, so neither is Inconclusive.
    """
    cls = model.tame_class
    if isinstance(cls, SquareTame):
        if rho0 is None or kappa is None:
            raise MissingClassData(
                "square-tame classification needs the class's starting "
                "action rho0 and a margin kappa")
        phi = phi_for_class(model)
        report = check_H2(phi, kappa, rho0)
        if report.ok:
            return ClassSurvives(phi, report)
        worst = min(report.upper_integral, report.lower_integral)
        return Inconclusive(
            phi, worst,
            "a tail integral reaches only %s where %s is required"
            % (worst, report.required))
    if model.motion_rate == 0:
        return Invariant(None)
    return Invariant(phi_for_class(model))
