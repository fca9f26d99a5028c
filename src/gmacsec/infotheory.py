"""Dense joint distributions, entropy, mutual information, and input schemes.

Conventions: all logs are base 2, 0 log 0 = 0, and entropies are computed by
summing the sorted positive atom masses. Sorting makes joints that are mere
relabelings of one another (same multiset of masses) produce bitwise-identical
entropies, which downstream code relies on when differences of information
quantities must cancel exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelSpec
from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    NegativeProbability,
    RowSumViolation,
    UnknownVariable,
    max_states,
)

__all__ = [
    "JointPMF",
    "SchemeOneSet",
    "SchemeOneSetOuter",
    "SchemeTwoSet",
    "SchemeDegraded",
    "entropy",
    "mutual_information",
    "assemble_joint_one_set",
    "assemble_joint_one_set_outer",
    "assemble_joint_two_set",
    "assemble_joint_degraded",
    "scheme_to_dict",
    "scheme_from_dict",
]

MASS_TOL = 1e-9


@dataclass(frozen=True)
class JointPMF:
    """A dense joint distribution over named finite variables."""

    variables: tuple[str, ...]
    prob: np.ndarray

    def __post_init__(self):
        if len(self.variables) != self.prob.ndim:
            raise DimensionMismatch(
                f"{len(self.variables)} names for a rank-{self.prob.ndim} table"
            )
        if len(set(self.variables)) != len(self.variables):
            raise DimensionMismatch(f"duplicate variable names: {self.variables}")
        if self.prob.size > max_states():
            raise EnumerationTooLarge(
                f"joint with {self.prob.size} states exceeds the ceiling of "
                f"{max_states()}; raise GMAC_MAX_STATES to override"
            )
        if np.any(self.prob < 0):
            raise NegativeProbability(
                f"negative joint mass {float(self.prob.min())}"
            )
        total = float(self.prob.sum())
        if abs(total - 1.0) > MASS_TOL:
            raise RowSumViolation(
                f"joint mass {total} is not 1 within {MASS_TOL}"
            )

    @property
    def sizes(self) -> tuple[int, ...]:
        return self.prob.shape

    def axis(self, name: str) -> int:
        try:
            return self.variables.index(name)
        except ValueError:
            raise UnknownVariable(
                f"variable {name!r} not in joint over {self.variables}"
            )


def _normalize_names(joint: JointPMF, names) -> tuple[str, ...]:
    if isinstance(names, str):
        names = (names,)
    names = tuple(names)
    for name in names:
        joint.axis(name)
    if len(set(names)) != len(names):
        raise ValueError(f"repeated variable in {names}")
    return names


def _marginal_entropy(joint: JointPMF, names: tuple[str, ...]) -> float:
    """H of the marginal over names, via sorted positive masses."""
    if not names:
        return 0.0
    keep = {joint.axis(n) for n in names}
    drop = tuple(i for i in range(joint.prob.ndim) if i not in keep)
    marg = joint.prob.sum(axis=drop) if drop else joint.prob
    flat = marg.reshape(-1)
    flat = flat[flat > 0]
    flat = np.sort(flat)
    return float(-np.sum(flat * np.log2(flat)))


def entropy(joint: JointPMF, targets, given=()) -> float:
    """Conditional entropy H(targets | given) in bits."""
    targets = _normalize_names(joint, targets)
    given = _normalize_names(joint, given)
    if set(targets) & set(given):
        raise ValueError(
            f"targets {targets} and conditioning {given} overlap"
        )
    return _marginal_entropy(joint, targets + given) - _marginal_entropy(joint, given)


def mutual_information(joint: JointPMF, a, b, given=()) -> float:
    """Conditional mutual information I(a; b | given) in bits, clamped at 0.

    The raw value can undershoot zero by floating-point dust (never below
    about -1e-12 at these table sizes); the clamp removes it.
    """
    a = _normalize_names(joint, a)
    b = _normalize_names(joint, b)
    given = _normalize_names(joint, given)
    combined = set(a) | set(b) | set(given)
    if len(combined) != len(a) + len(b) + len(given):
        raise ValueError(f"groups {a}, {b}, {given} must be pairwise disjoint")
    value = (
        _marginal_entropy(joint, a + given)
        - _marginal_entropy(joint, given)
        - _marginal_entropy(joint, a + b + given)
        + _marginal_entropy(joint, b + given)
    )
    return max(value, 0.0)


def _as_prob_array(name, raw, ndim):
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != ndim:
        raise DimensionMismatch(f"{name} must have {ndim} axes, got {arr.ndim}")
    if np.any(arr < 0):
        raise NegativeProbability(f"{name} has a negative entry")
    return arr


def _normalized_rows(name, raw):
    """Validate a row-stochastic table (rows within 1e-9 of mass one)."""
    arr = _as_prob_array(name, raw, 2)
    sums = arr.sum(axis=1)
    if np.abs(sums - 1.0).max() > MASS_TOL:
        raise RowSumViolation(f"rows of {name} must sum to 1 within {MASS_TOL}")
    arr = arr / sums[:, None]
    arr.setflags(write=False)
    return arr


def _normalized_joint(name, raw, ndim):
    arr = _as_prob_array(name, raw, ndim)
    total = arr.sum()
    if abs(total - 1.0) > MASS_TOL:
        raise RowSumViolation(f"{name} must sum to 1 within {MASS_TOL}")
    arr = arr / total
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class SchemeOneSet:
    """Input scheme p(q, x2) p(u | q) p(x1 | u) for one confidential sender.

    Sender 1 splits its traffic through the auxiliary U; sender 2's input is
    drawn jointly with the time-sharing variable Q.
    """

    p_q_x2: np.ndarray
    p_u_given_q: np.ndarray
    p_x1_given_u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_q_x2", _normalized_joint("p_q_x2", self.p_q_x2, 2))
        object.__setattr__(self, "p_u_given_q", _normalized_rows("p_u_given_q", self.p_u_given_q))
        object.__setattr__(self, "p_x1_given_u", _normalized_rows("p_x1_given_u", self.p_x1_given_u))
        if self.p_u_given_q.shape[0] != self.p_q_x2.shape[0]:
            raise DimensionMismatch("p_u_given_q rows must match |Q|")
        if self.p_x1_given_u.shape[0] != self.p_u_given_q.shape[1]:
            raise DimensionMismatch("p_x1_given_u rows must match |U|")

    @property
    def nq(self) -> int:
        return self.p_q_x2.shape[0]

    @property
    def nu(self) -> int:
        return self.p_u_given_q.shape[1]

    @property
    def nx1(self) -> int:
        return self.p_x1_given_u.shape[1]

    @property
    def nx2(self) -> int:
        return self.p_q_x2.shape[1]


@dataclass(frozen=True)
class SchemeOneSetOuter:
    """One-sender scheme extended with a second auxiliary V drawn from Q."""

    p_q_x2: np.ndarray
    p_u_given_q: np.ndarray
    p_x1_given_u: np.ndarray
    p_v_given_q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_q_x2", _normalized_joint("p_q_x2", self.p_q_x2, 2))
        object.__setattr__(self, "p_u_given_q", _normalized_rows("p_u_given_q", self.p_u_given_q))
        object.__setattr__(self, "p_x1_given_u", _normalized_rows("p_x1_given_u", self.p_x1_given_u))
        object.__setattr__(self, "p_v_given_q", _normalized_rows("p_v_given_q", self.p_v_given_q))
        if self.p_u_given_q.shape[0] != self.p_q_x2.shape[0]:
            raise DimensionMismatch("p_u_given_q rows must match |Q|")
        if self.p_v_given_q.shape[0] != self.p_q_x2.shape[0]:
            raise DimensionMismatch("p_v_given_q rows must match |Q|")
        if self.p_x1_given_u.shape[0] != self.p_u_given_q.shape[1]:
            raise DimensionMismatch("p_x1_given_u rows must match |U|")

    @property
    def nq(self) -> int:
        return self.p_q_x2.shape[0]

    @property
    def nu(self) -> int:
        return self.p_u_given_q.shape[1]

    @property
    def nv(self) -> int:
        return self.p_v_given_q.shape[1]

    @property
    def nx1(self) -> int:
        return self.p_x1_given_u.shape[1]

    @property
    def nx2(self) -> int:
        return self.p_q_x2.shape[1]


@dataclass(frozen=True)
class SchemeTwoSet:
    """Scheme p(q) p(u|q) p(x1|u) p(v|q) p(x2|v) for two confidential senders."""

    p_q: np.ndarray
    p_u_given_q: np.ndarray
    p_x1_given_u: np.ndarray
    p_v_given_q: np.ndarray
    p_x2_given_v: np.ndarray

    def __post_init__(self):
        p_q = _as_prob_array("p_q", self.p_q, 1)
        total = p_q.sum()
        if abs(total - 1.0) > MASS_TOL:
            raise RowSumViolation(f"p_q must sum to 1 within {MASS_TOL}")
        p_q = p_q / total
        p_q.setflags(write=False)
        object.__setattr__(self, "p_q", p_q)
        object.__setattr__(self, "p_u_given_q", _normalized_rows("p_u_given_q", self.p_u_given_q))
        object.__setattr__(self, "p_x1_given_u", _normalized_rows("p_x1_given_u", self.p_x1_given_u))
        object.__setattr__(self, "p_v_given_q", _normalized_rows("p_v_given_q", self.p_v_given_q))
        object.__setattr__(self, "p_x2_given_v", _normalized_rows("p_x2_given_v", self.p_x2_given_v))
        nq = p_q.shape[0]
        if self.p_u_given_q.shape[0] != nq or self.p_v_given_q.shape[0] != nq:
            raise DimensionMismatch("conditional tables must match |Q|")
        if self.p_x1_given_u.shape[0] != self.p_u_given_q.shape[1]:
            raise DimensionMismatch("p_x1_given_u rows must match |U|")
        if self.p_x2_given_v.shape[0] != self.p_v_given_q.shape[1]:
            raise DimensionMismatch("p_x2_given_v rows must match |V|")

    @property
    def nq(self) -> int:
        return self.p_q.shape[0]

    @property
    def nu(self) -> int:
        return self.p_u_given_q.shape[1]

    @property
    def nv(self) -> int:
        return self.p_v_given_q.shape[1]

    @property
    def nx1(self) -> int:
        return self.p_x1_given_u.shape[1]

    @property
    def nx2(self) -> int:
        return self.p_x2_given_v.shape[1]


@dataclass(frozen=True)
class SchemeDegraded:
    """Scheme p(q, x2) p(x1 | q) used when no auxiliary U is needed."""

    p_q_x2: np.ndarray
    p_x1_given_q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "p_q_x2", _normalized_joint("p_q_x2", self.p_q_x2, 2))
        object.__setattr__(self, "p_x1_given_q", _normalized_rows("p_x1_given_q", self.p_x1_given_q))
        if self.p_x1_given_q.shape[0] != self.p_q_x2.shape[0]:
            raise DimensionMismatch("p_x1_given_q rows must match |Q|")

    @property
    def nq(self) -> int:
        return self.p_q_x2.shape[0]

    @property
    def nx1(self) -> int:
        return self.p_x1_given_q.shape[1]

    @property
    def nx2(self) -> int:
        return self.p_q_x2.shape[1]


def _check_channel_inputs(scheme, channel: ChannelSpec):
    if scheme.nx1 != channel.size_x1 or scheme.nx2 != channel.size_x2:
        raise DimensionMismatch(
            f"scheme inputs ({scheme.nx1}, {scheme.nx2}) do not match channel "
            f"({channel.size_x1}, {channel.size_x2})"
        )


def assemble_joint_one_set(scheme: SchemeOneSet, channel: ChannelSpec) -> JointPMF:
    """Joint over (Q, U, X1, X2, Y, Y2); the sender-1 feedback is marginalized."""
    _check_channel_inputs(scheme, channel)
    w = channel.prob.sum(axis=3)  # (x1, x2, y, y2)
    table = np.einsum(
        "qt,qu,ux,xtyz->quxtyz",
        scheme.p_q_x2, scheme.p_u_given_q, scheme.p_x1_given_u, w,
    )
    return JointPMF(("Q", "U", "X1", "X2", "Y", "Y2"), table)


def assemble_joint_one_set_outer(scheme: SchemeOneSetOuter, channel: ChannelSpec) -> JointPMF:
    """Joint over (Q, U, V, X1, X2, Y, Y2) with V conditionally independent given Q."""
    _check_channel_inputs(scheme, channel)
    w = channel.prob.sum(axis=3)
    table = np.einsum(
        "qt,qu,qv,ux,xtyz->quvxtyz",
        scheme.p_q_x2, scheme.p_u_given_q, scheme.p_v_given_q,
        scheme.p_x1_given_u, w,
    )
    return JointPMF(("Q", "U", "V", "X1", "X2", "Y", "Y2"), table)


def assemble_joint_two_set(scheme: SchemeTwoSet, channel: ChannelSpec) -> JointPMF:
    """Joint over (Q, U, V, X1, X2, Y, Y1, Y2); both feedback outputs kept."""
    _check_channel_inputs(scheme, channel)
    table = np.einsum(
        "q,qu,ux,qv,vt,xtywz->quvxtywz",
        scheme.p_q, scheme.p_u_given_q, scheme.p_x1_given_u,
        scheme.p_v_given_q, scheme.p_x2_given_v, channel.prob,
    )
    return JointPMF(("Q", "U", "V", "X1", "X2", "Y", "Y1", "Y2"), table)


def assemble_joint_degraded(scheme: SchemeDegraded, channel: ChannelSpec) -> JointPMF:
    """Joint over (Q, X1, X2, Y, Y2) for schemes without an auxiliary."""
    _check_channel_inputs(scheme, channel)
    w = channel.prob.sum(axis=3)
    table = np.einsum(
        "qt,qx,xtyz->qxtyz",
        scheme.p_q_x2, scheme.p_x1_given_q, w,
    )
    return JointPMF(("Q", "X1", "X2", "Y", "Y2"), table)


# Scheme kinds: class, stored fields (in sampling order), joint assembler.
_SCHEME_FIELDS = {
    "one_set": (SchemeOneSet, ("p_q_x2", "p_u_given_q", "p_x1_given_u"),
                assemble_joint_one_set),
    "one_set_outer": (
        SchemeOneSetOuter,
        ("p_q_x2", "p_u_given_q", "p_x1_given_u", "p_v_given_q"),
        assemble_joint_one_set_outer,
    ),
    "two_set": (
        SchemeTwoSet,
        ("p_q", "p_u_given_q", "p_x1_given_u", "p_v_given_q", "p_x2_given_v"),
        assemble_joint_two_set,
    ),
    "degraded": (SchemeDegraded, ("p_q_x2", "p_x1_given_q"), assemble_joint_degraded),
}


def scheme_to_dict(scheme) -> dict:
    """JSON-friendly form of any scheme, tagged with its kind."""
    for kind, (cls, fields, _) in _SCHEME_FIELDS.items():
        if type(scheme) is cls:
            doc = {"kind": kind}
            for f in fields:
                doc[f] = np.asarray(getattr(scheme, f)).tolist()
            return doc
    raise TypeError(f"not a scheme: {type(scheme).__name__}")


def scheme_from_dict(doc: dict):
    """Inverse of scheme_to_dict."""
    try:
        kind = doc["kind"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"scheme document lacks a kind: {exc}")
    if kind not in _SCHEME_FIELDS:
        raise DimensionMismatch(f"unknown scheme kind {kind!r}")
    cls, fields, _ = _SCHEME_FIELDS[kind]
    try:
        arrays = {f: np.asarray(doc[f], dtype=float) for f in fields}
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed scheme document: {exc}")
    return cls(**arrays)
