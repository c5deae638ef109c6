"""Exception types shared across the package.

Everything raised on purpose derives from ParorbError so callers can catch
one base class; the CLI maps the leaf classes onto process exit codes.
"""


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
