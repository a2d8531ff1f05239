"""Exception taxonomy shared across the package.

Grouped by the area that raises them; everything derives from
MorseflowError so callers can catch coarsely.  Each class states how it
is classified, once: exit_code is the command line's exit status for it
(cli), and an AxiomViolation's axiom is the finding code validate_axioms
reports it under.  A subclass inherits both unless it states its own.
The input size limit that scenario, flag and growth-bound parsing share
sits at the end, with the scenario errors it raises.
"""


class MorseflowError(Exception):
    """Base class for all engine errors: a downstream computation
    (budgets, classification, tracking) failed."""
    exit_code = 4


# exact linear algebra

class DimensionMismatch(MorseflowError):
    """Operands are indexed by incompatible generator sets."""


class NotADifferential(MorseflowError):
    """Square of the proposed boundary operator is nonzero."""
    exit_code = 3


class NonUnitError(MorseflowError):
    """Inversion requested for a ring element that is not a unit."""


# diagram geometry

class InvalidTuple(MorseflowError):
    """Operation requires a structurally valid diagram and got one that fails validation."""
    exit_code = 2


class VerticalTangency(MorseflowError):
    """Front has a point with y' = 0 but z' != 0; no Legendrian lift exists there."""


class NonIsolatedCusp(MorseflowError):
    """Cusp locus (y' = 0) is not isolated among the samples."""


# event algebra

class AxiomViolation(MorseflowError):
    """An event's data breaks the axiom named by axiom."""
    exit_code = 3
    axiom = None


class NonTriangularDelta(AxiomViolation):
    """Jump data has an entry that violates the strict action ordering."""
    axiom = "gamma1"


class NonUnitPivot(AxiomViolation):
    """Birth or death pivot entry is not invertible in the coefficient ring."""
    axiom = "gamma4"


class DeathPivotNotUnit(NonUnitPivot):
    """Count between a dying pair's branches is not invertible (gamma5)."""
    axiom = "gamma5"


class CycleConditionViolated(AxiomViolation):
    """New birth column is not annihilated by the incoming boundary operator."""
    axiom = "gamma4"


class ActionConstraintViolated(AxiomViolation):
    """Birth column entry refers to a generator at or below the birth level."""
    axiom = "gamma1"


class ConstraintViolated(AxiomViolation):
    """Zero constraints around a death pair do not hold in the incoming matrix."""
    axiom = "gamma5"


class EvolutionError(MorseflowError):
    """Event schedule is inconsistent with the diagram (indices, parameters, vertices)."""
    exit_code = 3


# class tracking

class DegenerateParameter(MorseflowError):
    """Parameter value sits exactly on an event or vertex."""


class InvalidWindow(MorseflowError):
    """Window boundaries intersect the diagram or are malformed."""
    exit_code = 2


class NonNestedLadder(MorseflowError):
    """Window ladder is not nested (floors descending, ceilings ascending)."""
    exit_code = 2


class VerificationFailed(MorseflowError):
    """A class trace breaks a property the theory guarantees it."""


class NotACycle(MorseflowError):
    """Chain supplied as a class representative is not a cycle."""


# escape analysis

class EmptyTrace(MorseflowError):
    """Trace has no segments, so it realizes no height climb to price."""


class ZeroClass(MorseflowError):
    """Tracked class is zero in the window: no slab has a top, so it
    realizes no height climb to price."""


class UnsupportedFamily(MorseflowError):
    """No closed-form antiderivative is registered for this growth bound."""


class PrecisionExhausted(MorseflowError):
    """Exact bounds on a transcendental number did not separate it from a
    rational within the precision cap set by the input's size."""


class InvalidParameters(MorseflowError):
    """Not an exact number (piecewise.frac), a profile that cannot be made,
    or growth bound or cascade parameters out of their legal range."""


# model classification

class MissingClassData(MorseflowError):
    """Verdict requires data (initial spectral value, kappa) that was not supplied."""


class OutOfRange(MorseflowError):
    """Parameter outside a profile's domain or a classification's range."""


# scenario files

class ScenarioError(MorseflowError):
    """Base for scenario file problems; carries a line number when known."""
    exit_code = 1

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = "line %d: %s" % (line, message)
        super().__init__(message)


class ScenarioSyntaxError(ScenarioError):
    """Input is not well-formed scenario text."""


class ScenarioSemanticError(ScenarioError):
    """Well-formed text with inconsistent content."""


# bounded input: every numeric literal is checked against this limit
# before Fraction reads it, so no input can make the parser, or the
# exact arithmetic after it, work on numbers of unbounded size

MAX_LITERAL_DIGITS = 100


def check_literal(text, line=None):
    """Raise ScenarioSyntaxError when text writes more than
    MAX_LITERAL_DIGITS digits, counting the value k of a decimal exponent
    e<k> as k more digits (1e90 spells a 91-digit integer)."""
    digits = sum(map(str.isdigit, text))
    _, e, exponent = text.lower().partition("e")
    if e and digits <= MAX_LITERAL_DIGITS:
        try:
            digits += abs(int(exponent))
        except ValueError:
            pass                 # not a number: Fraction rejects it
    if digits > MAX_LITERAL_DIGITS:
        raise ScenarioSyntaxError("numeric literal longer than %d digits"
                                  % MAX_LITERAL_DIGITS, line)
