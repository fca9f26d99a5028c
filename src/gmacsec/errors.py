"""Exception types shared across the package.

Validation errors mean the caller handed us a malformed object. Guard errors
mean the requested computation would exceed a resource ceiling and was refused
up front. InternalError marks a broken invariant inside our own code.
"""

import math
import numbers
import os


class GmacError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(GmacError):
    """Array shape disagrees with the declared alphabet sizes."""


class NegativeProbability(GmacError):
    """A probability entry is negative beyond floating-point dust."""


class RowSumViolation(GmacError):
    """A transition block fails to sum to one within tolerance."""


class UnknownVariable(GmacError):
    """A variable name is not present in the joint distribution."""


class SolverStall(GmacError):
    """The LP or Qhull backend stopped without a conclusive answer."""


class Unbounded(GmacError):
    """A support function is unbounded in the requested direction."""


class EmptySlice(GmacError):
    """A frontier slice contains no feasible point."""


class VertexEnumerationOverflow(GmacError):
    """Vertex enumeration would exceed the configured ceiling."""


class GridTooLarge(GmacError):
    """A grid enumeration would exceed the configured ceiling."""


class EnumerationTooLarge(GmacError):
    """An exact simulation would enumerate too many joint states."""


class InternalError(GmacError):
    """An internal invariant was violated; indicates a bug, not bad input."""


class NotDegradedWarning(UserWarning):
    """Degraded-channel formulas were evaluated on a channel that did not
    certify as stochastically degraded."""


def whole_number(name: str, value) -> int:
    """value as an int; a boolean or a fractional value raises ValueError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be a whole number, got {value!r}")


def finite_nonnegative(name: str, value) -> float:
    """value as a float; NaN, infinities and negatives raise ValueError."""
    number = float(value)
    if not (math.isfinite(number) and number >= 0):
        raise ValueError(f"{name} must be a finite number >= 0, got {value!r}")
    return number


DEFAULT_MAX_STATES = 10_000_000


def max_states() -> int:
    """Enumeration ceiling for dense joint state spaces.

    Defaults to 1e7 entries; the GMAC_MAX_STATES environment variable, a
    positive whole number such as 4096 or 1e7, overrides it.
    """
    raw = os.environ.get("GMAC_MAX_STATES")
    if raw is None:
        return DEFAULT_MAX_STATES
    try:
        number = float(raw)
    except ValueError:
        raise GmacError(f"GMAC_MAX_STATES is not a number: {raw!r}")
    if not math.isfinite(number):
        raise GmacError(f"GMAC_MAX_STATES must be finite, got {raw!r}")
    try:
        value = whole_number("GMAC_MAX_STATES", number)
    except ValueError as exc:
        raise GmacError(str(exc)) from None
    if value <= 0:
        raise GmacError(f"GMAC_MAX_STATES must be positive, got {value}")
    return value
