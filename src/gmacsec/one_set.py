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

import warnings

from .channel import ChannelSpec, check_stochastically_degraded
from .errors import NotDegradedWarning
from .infotheory import (
    SchemeDegraded,
    SchemeOneSet,
    SchemeOneSetOuter,
    assemble_joint_degraded,
    assemble_joint_one_set,
    assemble_joint_one_set_outer,
    mutual_information,
)
from .regions import BoundTable, RatePolytope, bound_pieces

COORDS_EQUIVOCATION = ("R0", "R1", "Re")
COORDS_SECRECY = ("R0", "R1")


def one_set_terms(scheme: SchemeOneSet, channel: ChannelSpec) -> tuple[float, float, float]:
    """The triple (a, b, d) for an inner-bound scheme."""
    joint = assemble_joint_one_set(scheme, channel)
    a = mutual_information(joint, "U", "Y", ("X2", "Q"))
    b = mutual_information(joint, ("U", "X2", "Q"), "Y")
    d = mutual_information(joint, "U", "Y2", ("X2", "Q"))
    return a, b, d


def degraded_terms(scheme: SchemeDegraded, channel: ChannelSpec) -> tuple[float, float, float]:
    """(a, b, d) with X1 standing in for the auxiliary."""
    joint = assemble_joint_degraded(scheme, channel)
    a = mutual_information(joint, "X1", "Y", ("X2", "Q"))
    b = mutual_information(joint, ("X1", "X2"), "Y")
    d = mutual_information(joint, "X1", "Y2", ("X2", "Q"))
    return a, b, d


# Term functions call the public ones through their module names, so
# wrappers installed on those names (perfbench/spans.py) see every call.
def _terms(scheme, channel) -> dict:
    return dict(zip("abd", one_set_terms(scheme, channel)))


def _outer_terms(scheme, channel) -> dict:
    joint = assemble_joint_one_set_outer(scheme, channel)
    return {
        "a_v": mutual_information(joint, "U", "Y", ("X2", "V")),
        "a": mutual_information(joint, "U", "Y", ("X2", "Q")),
        "b": mutual_information(joint, ("U", "X2", "Q"), "Y"),
        "d": mutual_information(joint, "U", "Y2", ("X2", "Q")),
    }


def _degraded_terms(scheme, channel) -> dict:
    # U := X1, and V := Q, so the converse R1 cap a_v is a itself
    a, b, d = degraded_terms(scheme, channel)
    return {"a_v": a, "a": a, "b": b, "d": d}


INNER = BoundTable(COORDS_EQUIVOCATION, _terms, [(
    "R1 <= a", "R0 + R1 <= b", "Re <= R1",
    "Re <= [a - d]+", "Re <= [b - R0 - d]+",
)])
_OUTER_ROWS = ("R1 <= a_v", "R0 + R1 <= b", "Re <= R1",
               "Re <= a - d", "R0 + Re <= b - d")
OUTER = BoundTable(COORDS_EQUIVOCATION, _outer_terms, [_OUTER_ROWS])
DEGRADED = BoundTable(COORDS_EQUIVOCATION, _degraded_terms, [_OUTER_ROWS])
_SECRECY_ROWS = ("R1 <= a - d", "R0 + R1 <= b - d")
SECRECY = BoundTable(COORDS_SECRECY, _terms, [_SECRECY_ROWS], guard="a - d")
DEGRADED_SECRECY = BoundTable(COORDS_SECRECY, _degraded_terms, [_SECRECY_ROWS],
                              guard="a - d")


def inner_polytope(scheme: SchemeOneSet, channel: ChannelSpec):
    """Achievable pieces in (R0, R1, Re) for one scheme.

    The clipped equivocation cap [b - R0 - d]_+ carries R0 inside the
    bracket, so the result is a union of at most two plain pieces.
    """
    return bound_pieces(INNER, _terms(scheme, channel))


def outer_polytope(scheme: SchemeOneSetOuter, channel: ChannelSpec) -> RatePolytope:
    """Converse piece in (R0, R1, Re) for one extended scheme.

    Written without positive-part clipping, so the equivocation caps can go
    negative and leave the piece empty; callers filter such pieces out of
    unions. The R1 cap conditions on V instead of Q.
    """
    return bound_pieces(OUTER, _outer_terms(scheme, channel), drop_empty=False)[0]


def secrecy_polytope(scheme: SchemeOneSet, channel: ChannelSpec) -> RatePolytope | None:
    """Perfect-secrecy piece in (R0, R1), or None when the scheme leaks.

    The piece {R1 <= a - d, R0 + R1 <= b - d} only exists when a >= d;
    a leakier scheme contributes nothing at full equivocation.
    """
    pieces = bound_pieces(SECRECY, _terms(scheme, channel), drop_empty=False)
    return pieces[0] if pieces else None


def _capacity(terms, scheme, channel, r0: float) -> float:
    if r0 < 0:
        raise ValueError(f"common rate must be nonnegative, got {r0}")
    a, b, d = terms(scheme, channel)
    return max(0.0, min(a - d, b - d - r0))


def secrecy_capacity_value(scheme: SchemeOneSet, channel: ChannelSpec, r0: float) -> float:
    """Largest confidential rate of this scheme at common rate r0, >= 0."""
    return _capacity(one_set_terms, scheme, channel, r0)


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
    return bound_pieces(DEGRADED, _degraded_terms(scheme, channel), drop_empty=False)[0]


def degraded_secrecy_polytope(scheme: SchemeDegraded, channel: ChannelSpec,
                              certificate=None) -> RatePolytope | None:
    """Perfect-secrecy piece in (R0, R1) for a degraded channel."""
    _flag_if_not_degraded(channel, certificate)
    pieces = bound_pieces(DEGRADED_SECRECY, _degraded_terms(scheme, channel),
                          drop_empty=False)
    return pieces[0] if pieces else None


def degraded_secrecy_capacity_value(scheme: SchemeDegraded, channel: ChannelSpec,
                                    r0: float) -> float:
    """Largest confidential rate at common rate r0 under the degraded forms."""
    return _capacity(degraded_terms, scheme, channel, r0)
