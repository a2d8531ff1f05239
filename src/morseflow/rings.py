"""Coefficient rings: integers mod 2, arbitrary-precision integers, rationals.

Elements are plain Python values (int for Z2 and Z, Fraction for Q); a Ring
object bundles the operations so matrix code stays generic over the ring.
All three are principal ideal domains with decidable invertibility, which is
what the event algebra needs.
"""

from fractions import Fraction

from .errors import NonUnitError


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

    def divides(self, a, b):
        """True if a divides b (a, b already coerced)."""
        raise NotImplementedError

    def exact_div(self, b, a):
        """b / a, assuming a divides b."""
        raise NotImplementedError

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def add(self, a, b):
        return self.coerce(a + b)

    def sub(self, a, b):
        return self.coerce(a - b)

    def mul(self, a, b):
        return self.coerce(a * b)

    def neg(self, a):
        return self.coerce(-a)

    def is_field(self):
        return False


class IntMod2(Ring):
    __slots__ = ()

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator % 2 == 0:
                raise NonUnitError("cannot reduce %s mod 2" % (x,))
            return x.numerator % 2
        return int(x) % 2

    def is_unit(self, x):
        return self.coerce(x) == 1

    def invert(self, x):
        if self.coerce(x) != 1:
            raise NonUnitError("0 is not invertible mod 2")
        return 1

    def divides(self, a, b):
        a, b = self.coerce(a), self.coerce(b)
        return a == 1 or b == 0

    def exact_div(self, b, a):
        a, b = self.coerce(a), self.coerce(b)
        if a == 0:
            if b == 0:
                return 0
            raise NonUnitError("division by 0 mod 2")
        return b

    def is_field(self):
        return True


class Integer(Ring):
    __slots__ = ()

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise NonUnitError("%s is not an integer" % (x,))
            return int(x)
        if isinstance(x, bool):
            return int(x)
        if not isinstance(x, int):
            raise TypeError("integer coefficient expected, got %r" % (x,))
        return x

    def is_unit(self, x):
        return x in (1, -1)

    def invert(self, x):
        if x not in (1, -1):
            raise NonUnitError("%r is not a unit in the integers" % (x,))
        return x

    def divides(self, a, b):
        if a == 0:
            return b == 0
        return b % a == 0

    def exact_div(self, b, a):
        if a == 0:
            if b == 0:
                return 0
            raise NonUnitError("division by zero")
        q, r = divmod(b, a)
        if r != 0:
            raise NonUnitError("%r does not divide %r" % (a, b))
        return q


class Rational(Ring):
    __slots__ = ()

    def coerce(self, x):
        return Fraction(x)

    def is_unit(self, x):
        return Fraction(x) != 0

    def invert(self, x):
        x = Fraction(x)
        if x == 0:
            raise NonUnitError("0 is not invertible")
        return 1 / x

    def divides(self, a, b):
        return Fraction(a) != 0 or Fraction(b) == 0

    def exact_div(self, b, a):
        a, b = Fraction(a), Fraction(b)
        if a == 0:
            if b == 0:
                return Fraction(0)
            raise NonUnitError("division by zero")
        return b / a

    def is_field(self):
        return True


Z2 = IntMod2("Z2")
Z = Integer("Z")
Q = Rational("Q")

_BY_NAME = {"z2": Z2, "z/2": Z2, "f2": Z2, "z": Z, "q": Q}


def ring_by_name(name):
    try:
        return _BY_NAME[name.strip().lower()]
    except KeyError:
        raise KeyError("unknown coefficient ring %r (expected Z2, Z, or Q)" % (name,))
