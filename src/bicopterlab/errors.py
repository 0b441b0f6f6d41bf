"""Exception types raised by the bicopter simulation library."""


class BicopterError(Exception):
    """Base class for all library errors."""


class SingularThrust(BicopterError):
    """Total thrust is too close to zero to invert the input map."""


class NonFiniteState(BicopterError):
    """An integration step produced a NaN or infinite state entry."""


class UnstablePoleRequest(BicopterError):
    """A requested closed-loop pole has a nonnegative real part."""


class IllConditioned(BicopterError):
    """A finite-difference stencil overflowed or lost all precision."""


class EmptySeries(BicopterError):
    """A metrics computation was asked to summarize an empty time series."""


class ParseError(BicopterError):
    """A config document or telemetry CSV could not be parsed; the message names the line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")


class ValidationError(BicopterError):
    """A parsed value violates an invariant (e.g. a mass that is not positive)."""
