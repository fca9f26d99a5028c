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

import math

import numpy as np

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


def equivocation_set_oracle(scheme: SchemeTwoSet, channel: ChannelSpec,
                            r0: float, r1: float, r2: float,
                            step: float = 0.01) -> np.ndarray:
    """Grid enumeration of the equivocation set straight from its definition.

    Sweeps total codebook rate pairs (t1, t2) on a step grid: each sender
    transmits its message plus dummy randomness, so t1 >= r1 and t2 >= r2,
    and (r0, t1, t2) must be decodable. Each feasible pair contributes the
    rectangle R1e <= min(r1, [t1 - e1]_+), R2e <= min(r2, [t2 - e2]_+).
    Returns the grid points covered by at least one rectangle, as an
    (n, 2) array; empty when no pair is decodable at all.

    This is the slow cross-check for equivocation_set_explicit, not a tool
    for production sweeps.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    t = TWO_SET.scheme_terms(scheme, channel)
    m1, m2, m12, mt = t["m1"], t["m2"], t["m12"], t["mt"]
    e1, e2 = t["e1"], t["e2"]
    eps = 1e-12

    t1_max = min(m1, m12 - r2, mt - r0 - r2)
    t1_lo = math.ceil(r1 / step - eps)
    t1_hi = math.floor(t1_max / step + eps)
    t2_lo = math.ceil(r2 / step - eps)

    caps = []
    for i1 in range(t1_lo, t1_hi + 1):
        t1 = i1 * step
        t2_max = min(m2, m12 - t1, mt - r0 - t1)
        i2 = math.floor(t2_max / step + eps)
        if i2 < t2_lo:
            continue
        t2 = i2 * step
        cap1 = min(r1, max(0.0, t1 - e1))
        cap2 = min(r2, max(0.0, t2 - e2))
        caps.append((cap1, cap2))
    if not caps:
        return np.empty((0, 2))

    points = []
    cap_arr = np.array(caps)
    x_hi = math.floor(cap_arr[:, 0].max() / step + eps)
    for ix in range(x_hi + 1):
        x = ix * step
        covering = cap_arr[cap_arr[:, 0] >= x - eps]
        if covering.shape[0] == 0:
            continue
        y_max = covering[:, 1].max()
        for iy in range(math.floor(y_max / step + eps) + 1):
            points.append((x, iy * step))
    return np.array(points)

