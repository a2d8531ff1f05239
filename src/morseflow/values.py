"""Immutable value types: one base for every class whose fields are fixed.

A subclass names its fields, in constructor order, in the class
attribute _fields.  Its own __init__ converts and checks its arguments
and sets each field once with object.__setattr__, as a frozen
dataclass's __init__ does.  From _fields the base gives the rest:

* assignment and deletion raise AttributeError;
* == holds between two instances of the same class with equal fields,
  and never across classes, so BirthVertex("v") != DeathVertex("v")
  although both hold "v";
* hash is the hash of the tuple of the fields, so it agrees with ==;
* repr is Name(field=value, ...), fields in order;
* _replace(**changes) is a new instance of the same class, made by its
  __init__, so every conversion and check runs again.

An attribute set in __init__ but not named in _fields (Piecewise.ints)
is read like a field, and ==, hash, repr and _replace ignore it.  A
class that takes a constructor argument outside _fields passes it on in
its own _replace (EventStep).

Defining a subclass generates and executes no code: __init_subclass__
only makes the getter of its fields (_key), which == and hash read.
"""

from operator import attrgetter


def _getter(fields):
    """A function of a value that returns the tuple of these fields."""
    if len(fields) > 1:
        return attrgetter(*fields)
    if fields:
        get = attrgetter(fields[0])
        return lambda value: (get(value),)
    return lambda value: ()


class Value:
    """Base of the immutable value classes (module docstring)."""

    _fields = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = staticmethod(_getter(cls._fields))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            ["%s=%r" % (name, getattr(self, name)) for name in self._fields]))

    def _replace(self, **changes):
        for name in self._fields:
            if name not in changes:
                changes[name] = getattr(self, name)
        return type(self)(**changes)
