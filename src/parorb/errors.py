"""Exception types shared across the package, and the base of its value
classes.

Everything raised on purpose derives from ParorbError so callers can catch
one base class; the CLI maps the leaf classes onto process exit codes.
"""

from operator import attrgetter


class _Frozen:
    """Base of the package's immutable value classes.

    A subclass lists its fields in constructor order in __match_args__.  The
    base reads them once per class into one field getter, and from it come
    repr, == (true only between instances of the exact same class), hash
    (of the tuple of the fields, so a field holding a dict makes instances
    unhashable) and pickling, which rebuilds through the constructor.  The
    base's __init__ takes every field, by position or by keyword, and sets
    it; a class that validates or normalizes its fields writes its own
    __init__ and sets them with object.__setattr__.  Attributes other than
    the fields, such as a memo, stay out of all of this.  Assigning or
    deleting an attribute afterwards raises dataclasses.FrozenInstanceError,
    imported only then: the package loads neither dataclasses nor the
    inspect and ast modules behind it.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__match_args__)
        if len(cls.__match_args__) == 1:
            field = get
            get = lambda obj: (field(obj),)  # attrgetter of one name is no tuple
        cls._fields = staticmethod(get)

    def __init__(self, *args, **kwargs):
        names, owner = self.__match_args__, self.__class__.__qualname__
        if len(args) > len(names):
            raise TypeError(
                "%s() takes %d arguments, got %d" % (owner, len(names), len(args))
            )
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError("%s() has no field %r" % (owner, name))
            if name in values:
                raise TypeError("%s() got field %r twice" % (owner, name))
            values[name] = value
        for name in names:
            if name not in values:
                raise TypeError("%s() missing field %r" % (owner, name))
            object.__setattr__(self, name, values[name])

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError("cannot delete field %r" % (name,))

    def __repr__(self):
        return "%s(%s)" % (
            self.__class__.__qualname__,
            ", ".join(
                "%s=%r" % pair for pair in zip(self.__match_args__, self._fields(self))
            ),
        )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._fields(self))

    def __reduce__(self):
        return self.__class__, self._fields(self)


class ParorbError(Exception):
    """Base class for every deliberate error in this package."""


class SpecError(ParorbError):
    """A moduli description failed validation."""


class GenusTooSmall(SpecError):
    """Genus below 2, or genus 2 paired with rank 2."""


class WeightOutOfRange(SpecError):
    """A parabolic weight is outside the half-open interval [0, 1)."""


class WeightsNotStrictlyIncreasing(SpecError):
    """A point's weight sequence is not strictly increasing."""


class WeightCountMismatch(SpecError):
    """A point does not carry exactly `rank` weights."""


class ParseError(ParorbError):
    """Malformed input document (bad JSON, bad rational, missing key)."""


class NotADivisor(ParorbError):
    """An order argument is not a divisor of the torsion modulus."""


class ModulusMismatch(ParorbError):
    """Two torsion elements live in groups with different moduli."""


class IdentityElement(ParorbError):
    """The identity element was passed where a nontrivial one is required."""


class IndexOutOfRange(ParorbError):
    """A point or rotation index is outside its valid range."""


class CapabilityMissing(ParorbError):
    """The operation needs a capability flag the instance does not have."""


class ModeMismatch(ParorbError):
    """The operation is restricted to the non-Higgs mode."""


class TableMissing(ParorbError):
    """No Betti table matches the requested key."""


class NotDiagonalizable(ParorbError):
    """The operator has no eigenbasis over the given field."""


class FlagNotPreserved(ParorbError):
    """The operator does not map every flag step into itself."""


class FlagNotFull(ParorbError):
    """The flag vectors do not form a complete nested chain."""


class GuardrailExceeded(ParorbError):
    """An enumeration bound protecting interactive runs was exceeded."""
