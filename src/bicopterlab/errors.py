"""Library exception types, and `check_field`: every config dataclass checks its values with it."""

from math import isfinite


class BicopterError(Exception):
    """Base class for all library errors."""


class SingularThrust(BicopterError):
    """Total thrust is too close to zero to invert the input map."""


class NonFiniteState(BicopterError):
    """An integration step produced a NaN or infinite state entry."""


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


class UnstablePoleRequest(ValidationError):
    """A requested closed-loop pole has a nonnegative real part."""


def check_field(obj, name: str, positive: bool = False, size: int | None = None) -> None:
    """Raise ValidationError unless field `name` of `obj` is finite, and > 0 if `positive`;
    with `size`, the field is a tuple of exactly that many entries, each checked."""
    value = getattr(obj, name)
    label = f"{type(obj).__name__}.{name}"
    if size is None:
        value = (value,)
    elif len(value) != size:
        raise ValidationError(f"{label} must have {size} entries")
    else:
        label += " entries"
    if not all(map(isfinite, value)):
        raise ValidationError(f"{label} must be finite")
    if positive and not all(v > 0.0 for v in value):
        raise ValidationError(f"{label} must be > 0")
