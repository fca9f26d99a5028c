"""Bounds for a GMAC where only sender 1's message is confidential.

Rates are (R0, R1, Re): common rate, sender-1 private rate, and the
equivocation rate of sender 1's message at sender 2's receiver. Secrecy
regions live in (R0, R1) and describe operation at full equivocation Re = R1.

For a scheme s and channel the three recurring information quantities are

    a = I(U; Y | X2, Q)     what the destination can separate off
    b = I(U, X2, Q; Y)      total flow into the destination
    d = I(U; Y2 | X2, Q)    what leaks to sender 2's receiver

The achievable piece set bounds R1 by a, R0 + R1 by b, and Re by R1 and by
the clipped gaps [a - d]_+ and [b - R0 - d]_+. The converse piece replaces a
with I(U; Y | X2, V) for an extra auxiliary V and drops the clipping. The
degraded-channel forms reuse the converse and secrecy rows with U := X1
and V := Q. Each bound is one BoundTable below; its I(...) expressions are
the one spelling of these terms in code, and the *_terms functions, the
polytopes and the secrecy capacities all read them through the tables.
"""

from __future__ import annotations

import warnings

import numpy as np

from .channel import ChannelSpec, check_stochastically_degraded
from .errors import NotDegradedWarning
from .infotheory import SchemeDegraded, SchemeOneSet, SchemeOneSetOuter
from .regions import BoundTable, RatePolytope, bound_pieces

COORDS_EQUIVOCATION = ("R0", "R1", "Re")
COORDS_SECRECY = ("R0", "R1")

_TERMS = {"a": "I(U;Y|X2,Q)", "b": "I(U,X2,Q;Y)", "d": "I(U;Y2|X2,Q)"}
# X1 stands in for the auxiliary, and b is the total flow I(X1,X2;Y)
_DEGRADED_TERMS = {"a": "I(X1;Y|X2,Q)", "b": "I(X1,X2;Y)", "d": "I(X1;Y2|X2,Q)"}

INNER = BoundTable(COORDS_EQUIVOCATION, "one_set", _TERMS, [(
    "R1 <= a", "R0 + R1 <= b", "Re <= R1",
    "Re <= [a - d]+", "Re <= [b - R0 - d]+",
)])
OUTER = BoundTable(COORDS_EQUIVOCATION, "one_set_outer", {"a_v": "I(U;Y|X2,V)", **_TERMS}, [(
    "R1 <= a_v", "R0 + R1 <= b", "Re <= R1", "Re <= a - d", "R0 + Re <= b - d",
)])
# the converse rows with U := X1 and V := Q, so the R1 cap a_v is a itself
DEGRADED = BoundTable(COORDS_EQUIVOCATION, "degraded", _DEGRADED_TERMS, [(
    "R1 <= a", "R0 + R1 <= b", "Re <= R1", "Re <= a - d", "R0 + Re <= b - d",
)])
_SECRECY_ROWS = ("R1 <= a - d", "R0 + R1 <= b - d")
SECRECY = BoundTable(COORDS_SECRECY, "one_set", _TERMS, [_SECRECY_ROWS], guard="a - d")
DEGRADED_SECRECY = BoundTable(COORDS_SECRECY, "degraded", _DEGRADED_TERMS,
                              [_SECRECY_ROWS], guard="a - d")


def one_set_terms(scheme: SchemeOneSet, channel: ChannelSpec) -> tuple[float, float, float]:
    """The triple (a, b, d) for an inner-bound scheme."""
    return tuple(INNER.scheme_terms(scheme, channel).values())


def degraded_terms(scheme: SchemeDegraded, channel: ChannelSpec) -> tuple[float, float, float]:
    """(a, b, d) with X1 standing in for the auxiliary."""
    return tuple(DEGRADED.scheme_terms(scheme, channel).values())


def inner_polytope(scheme: SchemeOneSet, channel: ChannelSpec):
    """Achievable pieces in (R0, R1, Re) for one scheme.

    The clipped equivocation cap [b - R0 - d]_+ carries R0 inside the
    bracket, so the result is a union of at most two plain pieces.
    """
    return bound_pieces(INNER, INNER.scheme_terms(scheme, channel))


def outer_polytope(scheme: SchemeOneSetOuter, channel: ChannelSpec) -> RatePolytope:
    """Converse piece in (R0, R1, Re) for one extended scheme.

    Written without positive-part clipping, so the equivocation caps can go
    negative and leave the piece empty; callers filter such pieces out of
    unions. The R1 cap conditions on V instead of Q.
    """
    return bound_pieces(OUTER, OUTER.scheme_terms(scheme, channel), drop_empty=False)[0]


def secrecy_polytope(scheme: SchemeOneSet, channel: ChannelSpec) -> RatePolytope | None:
    """Perfect-secrecy piece in (R0, R1), or None when the scheme leaks.

    The piece {R1 <= a - d, R0 + R1 <= b - d} only exists when a >= d;
    a leakier scheme contributes nothing at full equivocation.
    """
    pieces = bound_pieces(SECRECY, SECRECY.scheme_terms(scheme, channel), drop_empty=False)
    return pieces[0] if pieces else None


def _secrecy_rates(a, b, d, r0: float):
    """max(0, min(a - d, b - d - r0)), elementwise, with the tie rules of
    Python's min and max."""
    if r0 < 0:
        raise ValueError(f"common rate must be nonnegative, got {r0}")
    low, high = a - d, b - d - r0
    rate = np.where(high < low, high, low)      # min(low, high)
    return np.where(rate > 0.0, rate, 0.0)      # max(0.0, rate)


def secrecy_capacities(table: BoundTable, tables, channel: ChannelSpec,
                       r0: float) -> np.ndarray:
    """Largest confidential rates at common rate r0 of a stack of schemes,
    max(0, min(a - d, b - d - r0)) per row, shape (N,).

    table is SECRECY or DEGRADED_SECRECY and tables the stacked parameters
    of its kind. Each value is the bits secrecy_capacity_value, or its
    degraded twin, gives on its scheme.
    """
    terms = table.terms(tables, channel)
    return _secrecy_rates(terms["a"], terms["b"], terms["d"], r0)


def secrecy_capacity_value(scheme: SchemeOneSet, channel: ChannelSpec, r0: float) -> float:
    """Largest confidential rate of this scheme at common rate r0, >= 0."""
    return float(_secrecy_rates(**SECRECY.scheme_terms(scheme, channel), r0=r0))


def _flag_if_not_degraded(channel: ChannelSpec, certificate):
    if certificate is None:
        certificate = check_stochastically_degraded(channel)
    if certificate.verdict == "not-degraded":
        warnings.warn(
            "degraded-channel formulas evaluated on a channel that is not "
            f"stochastically degraded (residual {certificate.residual:.3e})",
            NotDegradedWarning,
            stacklevel=3,
        )


def degraded_polytope(scheme: SchemeDegraded, channel: ChannelSpec,
                      certificate=None) -> RatePolytope:
    """Capacity-equivocation piece in (R0, R1, Re) for a degraded channel.

    On a genuinely degraded channel a >= d holds for every scheme, so the
    unclipped caps are safe. The degradedness check runs unless a
    certificate is supplied; a failing verdict only warns, the numbers are
    still returned.
    """
    _flag_if_not_degraded(channel, certificate)
    return bound_pieces(DEGRADED, DEGRADED.scheme_terms(scheme, channel), drop_empty=False)[0]


def degraded_secrecy_polytope(scheme: SchemeDegraded, channel: ChannelSpec,
                              certificate=None) -> RatePolytope | None:
    """Perfect-secrecy piece in (R0, R1) for a degraded channel."""
    _flag_if_not_degraded(channel, certificate)
    pieces = bound_pieces(DEGRADED_SECRECY, DEGRADED_SECRECY.scheme_terms(scheme, channel),
                          drop_empty=False)
    return pieces[0] if pieces else None


def degraded_secrecy_capacity_value(scheme: SchemeDegraded, channel: ChannelSpec,
                                    r0: float) -> float:
    """Largest confidential rate at common rate r0 under the degraded forms."""
    return float(_secrecy_rates(**DEGRADED_SECRECY.scheme_terms(scheme, channel), r0=r0))
