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
and V := Q. Each bound is one BoundTable below.
"""

from __future__ import annotations

import functools
import warnings

import numpy as np

from .channel import ChannelSpec, check_stochastically_degraded
from .errors import NotDegradedWarning
from .infotheory import (
    SchemeDegraded,
    SchemeOneSet,
    SchemeOneSetOuter,
    _stack_of_one,
    stacked_joint,
    stacked_mutual_information,
)
from .regions import BoundTable, RatePolytope, bound_pieces

COORDS_EQUIVOCATION = ("R0", "R1", "Re")
COORDS_SECRECY = ("R0", "R1")


def stacked_one_set_terms(p_q_x2, p_u_given_q, p_x1_given_u,
                          channel: ChannelSpec) -> np.ndarray:
    """(a, b, d) of N inner-bound schemes, shape (N, 3).

    The tables stack the schemes' normalized parameters on a leading axis:
    p(q, x2) as (N, |Q|, |X2|), p(u | q) as (N, |Q|, |U|) and p(x1 | u) as
    (N, |U|, |X1|). One einsum builds the N joints over (Q, U, X1, X2, Y,
    Y2); row i is, bit for bit, what mutual_information gives on the
    JointPMF of scheme i. one_set_terms is the N = 1 call.
    """
    mi = functools.partial(stacked_mutual_information, stacked_joint(
        "one_set", (p_q_x2, p_u_given_q, p_x1_given_u), channel))
    return np.stack([mi("U", "Y", ("X2", "Q")), mi(("U", "X2", "Q"), "Y"),
                     mi("U", "Y2", ("X2", "Q"))], axis=1)


def stacked_outer_terms(p_q_x2, p_u_given_q, p_x1_given_u, p_v_given_q,
                        channel: ChannelSpec) -> np.ndarray:
    """(a_v, a, b, d) of N converse schemes, shape (N, 4), where
    a_v = I(U; Y | X2, V); the tables are stacked as in
    stacked_one_set_terms, with p(v | q) as (N, |Q|, |V|). Row i is, bit
    for bit, what mutual_information gives on the JointPMF of scheme i."""
    mi = functools.partial(stacked_mutual_information, stacked_joint(
        "one_set_outer", (p_q_x2, p_u_given_q, p_x1_given_u, p_v_given_q), channel))
    return np.stack([mi("U", "Y", ("X2", "V")), mi("U", "Y", ("X2", "Q")),
                     mi(("U", "X2", "Q"), "Y"), mi("U", "Y2", ("X2", "Q"))], axis=1)


def stacked_degraded_terms(p_q_x2, p_x1_given_q, channel: ChannelSpec) -> np.ndarray:
    """(a, b, d) of N degraded schemes, X1 standing in for the auxiliary,
    shape (N, 3); the tables are (N, |Q|, |X2|) and (N, |Q|, |X1|), and
    degraded_terms is the N = 1 call."""
    mi = functools.partial(stacked_mutual_information, stacked_joint(
        "degraded", (p_q_x2, p_x1_given_q), channel))
    return np.stack([mi("X1", "Y", ("X2", "Q")), mi(("X1", "X2"), "Y"),
                     mi("X1", "Y2", ("X2", "Q"))], axis=1)


def one_set_terms(scheme: SchemeOneSet, channel: ChannelSpec) -> tuple[float, float, float]:
    """The triple (a, b, d) for an inner-bound scheme."""
    return tuple(stacked_one_set_terms(*_stack_of_one(scheme), channel)[0].tolist())


def degraded_terms(scheme: SchemeDegraded, channel: ChannelSpec) -> tuple[float, float, float]:
    """(a, b, d) with X1 standing in for the auxiliary."""
    return tuple(stacked_degraded_terms(*_stack_of_one(scheme), channel)[0].tolist())


def _scheme_terms(table: BoundTable, scheme, channel) -> dict:
    """The table's terms of one scheme, as Python floats."""
    columns = table.terms(_stack_of_one(scheme), channel)
    return {name: float(column[0]) for name, column in columns.items()}


_ABD = ("a", "b", "d")
INNER = BoundTable(COORDS_EQUIVOCATION, stacked_one_set_terms, _ABD, [(
    "R1 <= a", "R0 + R1 <= b", "Re <= R1",
    "Re <= [a - d]+", "Re <= [b - R0 - d]+",
)])
OUTER = BoundTable(COORDS_EQUIVOCATION, stacked_outer_terms, ("a_v", *_ABD), [(
    "R1 <= a_v", "R0 + R1 <= b", "Re <= R1", "Re <= a - d", "R0 + Re <= b - d",
)])
# the converse rows with U := X1 and V := Q, so the R1 cap a_v is a itself
DEGRADED = BoundTable(COORDS_EQUIVOCATION, stacked_degraded_terms, _ABD, [(
    "R1 <= a", "R0 + R1 <= b", "Re <= R1", "Re <= a - d", "R0 + Re <= b - d",
)])
_SECRECY_ROWS = ("R1 <= a - d", "R0 + R1 <= b - d")
SECRECY = BoundTable(COORDS_SECRECY, stacked_one_set_terms, _ABD, [_SECRECY_ROWS],
                     guard="a - d")
DEGRADED_SECRECY = BoundTable(COORDS_SECRECY, stacked_degraded_terms, _ABD,
                              [_SECRECY_ROWS], guard="a - d")


def inner_polytope(scheme: SchemeOneSet, channel: ChannelSpec):
    """Achievable pieces in (R0, R1, Re) for one scheme.

    The clipped equivocation cap [b - R0 - d]_+ carries R0 inside the
    bracket, so the result is a union of at most two plain pieces.
    """
    return bound_pieces(INNER, _scheme_terms(INNER, scheme, channel))


def outer_polytope(scheme: SchemeOneSetOuter, channel: ChannelSpec) -> RatePolytope:
    """Converse piece in (R0, R1, Re) for one extended scheme.

    Written without positive-part clipping, so the equivocation caps can go
    negative and leave the piece empty; callers filter such pieces out of
    unions. The R1 cap conditions on V instead of Q.
    """
    return bound_pieces(OUTER, _scheme_terms(OUTER, scheme, channel), drop_empty=False)[0]


def secrecy_polytope(scheme: SchemeOneSet, channel: ChannelSpec) -> RatePolytope | None:
    """Perfect-secrecy piece in (R0, R1), or None when the scheme leaks.

    The piece {R1 <= a - d, R0 + R1 <= b - d} only exists when a >= d;
    a leakier scheme contributes nothing at full equivocation.
    """
    pieces = bound_pieces(SECRECY, _scheme_terms(SECRECY, scheme, channel), drop_empty=False)
    return pieces[0] if pieces else None


def secrecy_capacities(terms, tables, channel: ChannelSpec, r0: float) -> np.ndarray:
    """Largest confidential rates at common rate r0 of a stack of schemes,
    max(0, min(a - d, b - d - r0)) per row, shape (N,).

    terms is stacked_one_set_terms or stacked_degraded_terms and tables its
    stacked parameters. The min and max keep the tie rules of Python's, so
    each value is the bits secrecy_capacity_value gives on its scheme.
    """
    if r0 < 0:
        raise ValueError(f"common rate must be nonnegative, got {r0}")
    a, b, d = terms(*tables, channel).T
    low, high = a - d, b - d - r0
    rate = np.where(high < low, high, low)      # min(low, high)
    return np.where(rate > 0.0, rate, 0.0)      # max(0.0, rate)


def secrecy_capacity_value(scheme: SchemeOneSet, channel: ChannelSpec, r0: float) -> float:
    """Largest confidential rate of this scheme at common rate r0, >= 0."""
    return float(secrecy_capacities(stacked_one_set_terms, _stack_of_one(scheme),
                                    channel, r0)[0])


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
    return bound_pieces(DEGRADED, _scheme_terms(DEGRADED, scheme, channel), drop_empty=False)[0]


def degraded_secrecy_polytope(scheme: SchemeDegraded, channel: ChannelSpec,
                              certificate=None) -> RatePolytope | None:
    """Perfect-secrecy piece in (R0, R1) for a degraded channel."""
    _flag_if_not_degraded(channel, certificate)
    pieces = bound_pieces(DEGRADED_SECRECY, _scheme_terms(DEGRADED_SECRECY, scheme, channel),
                          drop_empty=False)
    return pieces[0] if pieces else None


def degraded_secrecy_capacity_value(scheme: SchemeDegraded, channel: ChannelSpec,
                                    r0: float) -> float:
    """Largest confidential rate at common rate r0 under the degraded forms."""
    return float(secrecy_capacities(stacked_degraded_terms, _stack_of_one(scheme),
                                    channel, r0)[0])
