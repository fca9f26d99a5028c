"""Exception types shared across the package.

Validation errors mean the caller handed us a malformed object. Guard errors
mean the requested computation would exceed a resource ceiling and was refused
up front. InternalError marks a broken invariant inside our own code.
"""

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


class PieceExplosion(GmacError):
    """Positive-part expansion would produce too many polytope pieces."""


class GridTooLarge(GmacError):
    """A grid enumeration would exceed the configured ceiling."""


class EnumerationTooLarge(GmacError):
    """An exact simulation would enumerate too many joint states."""


class InternalError(GmacError):
    """An internal invariant was violated; indicates a bug, not bad input."""


class NotDegradedWarning(UserWarning):
    """Degraded-channel formulas were evaluated on a channel that did not
    certify as stochastically degraded."""


DEFAULT_MAX_STATES = 10_000_000


def max_states() -> int:
    """Enumeration ceiling for dense joint state spaces.

    Defaults to 1e7 entries; the GMAC_MAX_STATES environment variable
    overrides it.
    """
    raw = os.environ.get("GMAC_MAX_STATES")
    if raw is None:
        return DEFAULT_MAX_STATES
    try:
        value = int(float(raw))
    except ValueError:
        raise GmacError(f"GMAC_MAX_STATES is not a number: {raw!r}")
    if value <= 0:
        raise GmacError(f"GMAC_MAX_STATES must be positive, got {value}")
    return value
