"""Growth-bound models for deforming Floer-type homologies.

A homotopy of the defining data moves action values of tracked classes
at a rate controlled by a tameness estimate: |d rho / d r| <= Phi(|rho|)
with Phi determined by the tameness class and the homotopy's supremum
rate.  This module builds the matching growth bound, bounds the
auxiliary quantity eta along the deformation, and classifies what the
budget arguments yield: full invariance, survival of a single class, or
nothing.  Every verdict is conditional on the standing compactness
hypothesis (H3); the flag is carried explicitly and never absorbed.

No geometry lives here: suprema, tame constants, and the form-variation
constant theta are inputs measured elsewhere.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (InvalidParameters, MissingClassData, OutOfRange,
                     VerificationFailed)
from .escape import check_H2, iterlog, linear, square
from .piecewise import frac

H3_NOTE = "conditional on H3"


# ---------------------------------------------------------------------------
# tameness classes and homotopy variants

@dataclass(frozen=True)
class Tame:
    pass


@dataclass(frozen=True)
class LogTame:
    depth: int = 1


@dataclass(frozen=True)
class SquareTame:
    pass


@dataclass(frozen=True)
class HypersurfaceHomotopy:
    pass


@dataclass(frozen=True)
class SymplecticFormHomotopy:
    """Deformation of the ambient form rather than the hypersurface.

    theta replaces the homotopy supremum in the growth bound.  eta_rate,
    when given, is an alternative exponential rate for the eta estimate;
    the stated growth relation is used as an upper bound.
    """

    theta: Fraction
    eta_rate: object = None

    def __post_init__(self):
        object.__setattr__(self, "theta", frac(self.theta))
        if self.theta < 0:
            raise InvalidParameters("theta must be nonnegative")
        if self.eta_rate is not None:
            object.__setattr__(self, "eta_rate", frac(self.eta_rate))
            if self.eta_rate < 0:
                raise InvalidParameters("eta rate must be nonnegative")


@dataclass(frozen=True)
class HomotopyModel:
    h_sup: Fraction                       # sup over r of the motion rate
    tame_constant: Fraction
    tame_class: object = Tame()
    variant: object = HypersurfaceHomotopy()

    def __post_init__(self):
        object.__setattr__(self, "h_sup", frac(self.h_sup))
        object.__setattr__(self, "tame_constant", frac(self.tame_constant))
        if self.h_sup < 0:
            raise InvalidParameters("homotopy supremum must be nonnegative")
        if self.tame_constant <= 0:
            raise InvalidParameters("tame constant must be positive")
        if not isinstance(self.tame_class, (Tame, LogTame, SquareTame)):
            raise InvalidParameters("unknown tameness class: %r"
                                    % (self.tame_class,))
        if isinstance(self.tame_class, LogTame) and self.tame_class.depth < 1:
            raise InvalidParameters("log-tame depth must be at least 1")
        if not isinstance(self.variant,
                          (HypersurfaceHomotopy, SymplecticFormHomotopy)):
            raise InvalidParameters("unknown homotopy variant: %r"
                                    % (self.variant,))

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

def _rk4_log_growth(rate, r):
    """Log growth factor of RK4 integration of eta' = rate * eta over [0, r].

    The equation is linear and autonomous, so every step multiplies eta
    by the factor of one step from 1; the log of the product is the step
    count times the log of that factor, whatever the start value, and
    nothing overflows.  Steps of rate * h <= 1/64 keep the relative
    error under 1e-6 up to the float range.
    """
    k = float(rate)
    steps = max(64, int(64 * k * float(r)) + 1)
    h = float(r) / steps
    k1 = k
    k2 = k * (1 + h * k1 / 2)
    k3 = k * (1 + h * k2 / 2)
    k4 = k * (1 + h * k3)
    return steps * math.log1p(h * (k1 + 2 * k2 + 2 * k3 + k4) / 6)


def eta_bound(model, eta0, r):
    """Certified upper bound exp(rate * r) * |eta0| on |eta_r|.

    The bound must be a finite float, and a positive one when eta0 is
    nonzero; otherwise OutOfRange.  The comparison equation
    eta' = rate * eta is also integrated with a fourth-order scheme, and
    its growth factor must agree with exp(rate * r) to 1e-6 relative; a
    mismatch means a broken numeric environment and raises.
    """
    r = frac(r)
    if not 0 <= r <= 1:
        raise OutOfRange("the deformation parameter lives in [0, 1]")
    rate = model.eta_growth_rate
    try:
        exponent = float(rate) * float(r)
        closed = math.exp(exponent) * abs(float(eta0))
    except OverflowError:
        closed = math.inf
    if not math.isfinite(closed) or (closed == 0 and eta0 != 0):
        raise OutOfRange(
            "the bound exp(rate * r) * |eta0| leaves the floating-point range")
    if abs(math.expm1(_rk4_log_growth(rate, r) - exponent)) > 1e-6:
        raise VerificationFailed(
            "comparison integration disagrees with the closed form "
            "exp(%r)" % exponent)
    return closed


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

@dataclass(frozen=True)
class Invariant:
    phi: object
    assumption: str = H3_NOTE


@dataclass(frozen=True)
class ClassSurvives:
    phi: object
    report: object              # the H2 evaluation backing the verdict
    assumption: str = H3_NOTE


@dataclass(frozen=True)
class Inconclusive:
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
    phi = phi_for_class(model)
    if not phi.diverges_at_infinity():
        return Inconclusive(phi, phi.tail_integral(phi.gap[1]),
                            "escape integral converges")
    return Invariant(phi)
