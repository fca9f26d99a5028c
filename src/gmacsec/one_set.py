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
the one spelling of these terms in code. A scheme's pieces are
bound_pieces(T, T.scheme_terms(scheme, channel)) for a table T, and the
secrecy capacities read the same terms through SECRECY and DEGRADED_SECRECY.
"""

from __future__ import annotations

import numpy as np

from .channel import ChannelSpec
from .errors import finite_nonnegative
from .regions import BoundTable

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


def _secrecy_rates(a, b, d, r0: float):
    """max(0, min(a - d, b - d - r0)), elementwise, with the tie rules of
    Python's min and max. r0 must be a finite number >= 0."""
    r0 = finite_nonnegative("common rate r0", r0)
    low, high = a - d, b - d - r0
    rate = np.where(high < low, high, low)      # min(low, high)
    return np.where(rate > 0.0, rate, 0.0)      # max(0.0, rate)


def secrecy_capacities(table: BoundTable, tables, channel: ChannelSpec,
                       r0: float) -> np.ndarray:
    """Largest confidential rates at common rate r0 of a stack of schemes,
    max(0, min(a - d, b - d - r0)) per row, shape (N,).

    table is SECRECY or DEGRADED_SECRECY and tables the stacked parameters
    of its kind. Each value is the bits secrecy_capacity_value gives on
    its scheme.
    """
    terms = table.terms(tables, channel)
    return _secrecy_rates(terms["a"], terms["b"], terms["d"], r0)


def secrecy_capacity_value(table: BoundTable, scheme, channel: ChannelSpec,
                           r0: float) -> float:
    """Largest confidential rate of one scheme at common rate r0, >= 0.

    table is SECRECY or DEGRADED_SECRECY, and scheme of its kind.
    """
    return float(_secrecy_rates(**table.scheme_terms(scheme, channel), r0=r0))
