"""Exception types shared across the package.

Every error raised on a documented failure path is a subclass of
SkeinError, so callers (and the CLI) can distinguish "bad input or
unsatisfied precondition" from genuine bugs.
"""


class SkeinError(Exception):
    """Base class for all documented failures."""


class ParseError(SkeinError):
    """Malformed input text; carries the offending position when known."""

    def __init__(self, message, position=None):
        super().__init__(message if position is None else f"{message} (at position {position})")
        self.position = position


class ValidationError(SkeinError):
    """Structurally invalid diagram or polynomial data."""


class DivisionByZero(SkeinError, ZeroDivisionError):
    """A specialization or rational-function operation divided by zero."""


class InexactDivision(SkeinError):
    """An exact polynomial division was required but left a remainder."""

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class OrderTooLow(SkeinError):
    """A function did not vanish to the required order; carries the survivor."""

    def __init__(self, message, surviving=None):
        super().__init__(message)
        self.surviving = surviving


class PoleAtOne(SkeinError):
    """Denominator vanishes at v=1, so no expansion around v=1 exists."""


class UnknownComponent(SkeinError):
    """A component index outside the diagram's component list."""


class Unoriented(SkeinError):
    """An operation requiring orientation met an unoriented diagram."""


class OrientationMismatch(SkeinError):
    """Gluing was asked to join an oriented diagram with an unoriented one."""


class PatternMissing(SkeinError):
    """A cabling call left some component without a pattern."""


class NotAKnot(SkeinError):
    """A knot-only operation received a diagram with several components."""


class ResourceLimit(SkeinError):
    """The skein recursion exceeded its node budget; carries statistics."""

    def __init__(self, message, nodes=0, memo_size=0):
        super().__init__(message)
        self.nodes = nodes
        self.memo_size = memo_size
