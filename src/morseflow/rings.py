"""Coefficient rings: integers mod 2, arbitrary-precision integers, rationals.

Elements are plain Python values (int for Z2 and Z, Fraction for Q),
combined in plain Python arithmetic; a Ring object gives the units, the
inverses and coerce, which brings each kept result into the ring once:
an int as it is, any other value through piecewise.frac, the one door
for numbers, then refused (NonUnitError) by Z2 with an even denominator
and by Z if not whole.  All three are principal ideal domains with
decidable invertibility, which is what the event algebra needs.
"""

from .errors import NonUnitError
from .piecewise import frac


class Ring:
    __slots__ = ("name", "_zero", "_one")

    def __init__(self, name):
        self.name = name
        self._zero = self.coerce(0)
        self._one = self.coerce(1)

    def __repr__(self):
        return self.name

    def coerce(self, x):
        raise NotImplementedError

    def is_unit(self, x):
        raise NotImplementedError

    def invert(self, x):
        raise NotImplementedError

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def is_field(self):
        return False


class IntMod2(Ring):
    __slots__ = ()

    def coerce(self, x):
        if type(x) is int:
            return x % 2
        x = frac(x)              # exactly: 0.5 is 1/2, not 0
        if x.denominator % 2 == 0:
            raise NonUnitError("cannot reduce %s mod 2" % (x,))
        return x.numerator % 2

    def is_unit(self, x):
        return self.coerce(x) == 1

    def invert(self, x):
        if self.coerce(x) != 1:
            raise NonUnitError("0 is not invertible mod 2")
        return 1

    def is_field(self):
        return True


class Integer(Ring):
    __slots__ = ()

    def coerce(self, x):
        if type(x) is int:
            return x
        x = frac(x)
        if x.denominator != 1:
            raise NonUnitError("%s is not an integer" % (x,))
        return x.numerator

    def is_unit(self, x):
        return self.coerce(x) in (1, -1)

    def invert(self, x):
        x = self.coerce(x)
        if x not in (1, -1):
            raise NonUnitError("%r is not a unit in the integers" % (x,))
        return x


class Rational(Ring):
    __slots__ = ()

    def coerce(self, x):
        return frac(x)

    def is_unit(self, x):
        return frac(x) != 0

    def invert(self, x):
        x = frac(x)
        if x == 0:
            raise NonUnitError("0 is not invertible")
        return 1 / x

    def is_field(self):
        return True


Z2 = IntMod2("Z2")
Z = Integer("Z")
Q = Rational("Q")

# the coefficient rings by the name scenario files and --coeff give
RINGS = {"z2": Z2, "z": Z, "q": Q}
