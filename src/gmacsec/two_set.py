"""Bounds for a GMAC where both senders' private messages are confidential.

Each sender's private message must stay secret from the other sender's
receiver. Rates are (R0, R1, R2, R1e, R2e): common rate, two private rates,
and the two equivocation rates (sender 1's message at receiver 2, sender 2's
message at receiver 1).

For a scheme p(q) p(u|q) p(x1|u) p(v|q) p(x2|v) the decodability terms are

    m1  = I(U; Y | V, Q)        m2  = I(V; Y | U, Q)
    m12 = I(U, V; Y | Q)        mt  = I(U, V, Q; Y)

and the leakage penalties are

    e1 = I(U; Y2 | X2, V, Q)    e2 = I(V; Y1 | X1, U, Q)

The achievable equivocation set at fixed rates is a union of three boxes of
constraints: the joint list, and two relaxations that buy a larger cap for
one equivocation by giving up the other entirely. Each bound is one
BoundTable below; TERMS, the I(...) expressions every table reads, is the
one spelling of the six terms in code. A scheme's pieces are
bound_pieces(T, T.scheme_terms(scheme, channel)) for a table T.
"""

from __future__ import annotations

from .channel import ChannelSpec
from .errors import finite_nonnegative
from .infotheory import SchemeTwoSet
from .regions import BoundTable, bound_pieces

COORDS_MAC = ("R0", "R1", "R2")
COORDS_EQ = ("R1e", "R2e")
COORDS_FULL = ("R0", "R1", "R2", "R1e", "R2e")

TERMS = {"m1": "I(U;Y|V,Q)", "m2": "I(V;Y|U,Q)", "m12": "I(U,V;Y|Q)", "mt": "I(U,V,Q;Y)",
         "e1": "I(U;Y2|X2,V,Q)", "e2": "I(V;Y1|X1,U,Q)"}


_RATES = ("R1 <= m1", "R2 <= m2", "R1 + R2 <= m12", "R0 + R1 + R2 <= mt")
_CAPS1 = ("R1e <= [m1 - e1]+", "R1e <= [m12 - R2 - e1]+", "R1e <= [mt - R0 - R2 - e1]+")
_CAPS2 = ("R2e <= [m2 - e2]+", "R2e <= [m12 - R1 - e2]+", "R2e <= [mt - R0 - R1 - e2]+")
# The equivocation set at fixed rates, one family per box: both
# equivocations jointly, then only sender 1's, then only sender 2's.
_EQUIVOCATION = (
    ("R1e <= R1", "R2e <= R2", *_CAPS1, *_CAPS2,
     "R1e + R2e <= [m12 - e1 - e2]+", "R1e + R2e <= [mt - R0 - e1 - e2]+"),
    ("R2e <= 0", "R1e <= R1", *_CAPS1),
    ("R1e <= 0", "R2e <= R2", *_CAPS2),
)

# the full region, expanded into 2^5 + 2^2 + 2^2 = 40 plain pieces
TWO_SET = BoundTable(COORDS_FULL, "two_set", TERMS,
                     [_RATES + fam for fam in _EQUIVOCATION])
# the decodable rates, ignoring confidentiality
MAC = BoundTable(COORDS_MAC, "two_set", TERMS, [_RATES])
# over (R1e, R2e) the rates are terms, so their brackets are constants
EQUIVOCATION = BoundTable(COORDS_EQ, "two_set", TERMS, _EQUIVOCATION)
# both senders secret, only sender 1 active, only sender 2 active
SECRECY = BoundTable(COORDS_MAC, "two_set", TERMS, [
    ("R1 <= m1 - e1", "R2 <= m2 - e2", "R1 + R2 <= m12 - e1 - e2",
     "R0 + R1 + R2 <= mt - e1 - e2"),
    ("R2 <= 0", "R1 <= m1 - e1", "R0 + R1 <= mt - e1"),
    ("R1 <= 0", "R2 <= m2 - e2", "R0 + R2 <= mt - e2"),
])


def equivocation_set_explicit(scheme: SchemeTwoSet, channel: ChannelSpec,
                              r0: float, r1: float, r2: float):
    """The two-sender equivocation set at fixed rates, as explicit pieces.

    Returns three pieces over (R1e, R2e). The first constrains both
    equivocations jointly, including the two sum caps; the other two zero
    one equivocation and keep only the other's caps, which can reach
    farther when the zeroed sender's rate sits below its leakage penalty.
    """
    values = {name: finite_nonnegative(name, r) for name, r in zip(COORDS_MAC, (r0, r1, r2))}
    values.update(TWO_SET.scheme_terms(scheme, channel))
    return bound_pieces(EQUIVOCATION, values)
