"""Exception types shared across the package.

Every error raised by the library derives from SchurHopfError so callers can
catch one type at the boundary.  The CLI maps subclasses to exit codes.
`_expect` is the API entries' check for an argument of the wrong type.
"""


class SchurHopfError(Exception):
    """Base class for all library errors."""


class PartitionError(SchurHopfError, ValueError):
    """Malformed partition text or an invalid part sequence."""


class WeightLimitError(PartitionError):
    """Partition weight exceeds the configured safety limit."""


class ValueParseError(SchurHopfError, ValueError):
    """Value text that is not an exact rational, such as "1/0" or "0.5x"."""


class InvalidArgumentError(SchurHopfError, ValueError):
    """An argument of the wrong type or outside its domain: a string for a
    degree, a SchurElement for a CharElement, a malformed JSON form, an
    unknown basis or series name, eigenvalues that do not fit the group, a
    negative series cutoff or degree, or eigenvalues whose character value
    has too many digits to print."""


class DegreeOverflowError(SchurHopfError):
    """A series term beyond the cutoff (or the global limit) was requested."""


class NotInvertibleError(SchurHopfError):
    """Series inversion was attempted on a series whose degree-0 term is not 1."""


class BasisMismatchError(SchurHopfError):
    """Arithmetic mixed character-ring elements written in different bases."""


class StableRangeError(SchurHopfError):
    """A character was evaluated outside the stable range of the group."""


class UnsupportedGroupError(SchurHopfError):
    """The eigenvalue specification names a group family that is not handled."""


class SingularDenominatorError(SchurHopfError, ZeroDivisionError):
    """Repeated evaluation points make the bialternant denominator vanish."""


def _expect(value, kind: type) -> None:
    """Raise InvalidArgumentError unless value is an instance of kind."""
    if not isinstance(value, kind):
        raise InvalidArgumentError(
            f"expected {kind.__name__}, got {type(value).__name__}"
        )
