"""Dense joint distributions, entropy, mutual information, and input schemes.

Conventions: all logs are base 2, 0 log 0 = 0, and entropies are computed by
summing the sorted positive atom masses. Sorting makes joints that are mere
relabelings of one another (same multiset of masses) produce bitwise-identical
entropies, which downstream code relies on when differences of information
quantities must cancel exactly.

A JointStack holds N joints over the same variables on a leading axis;
stacked_mutual_information gives, for each of them, the bits that
mutual_information gives on that joint alone.

parse_query reads the notation "I(A;B|C)" and "H(A|C)", in which the
CLI's info queries and the bounds' information terms are written.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

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
    "JointStack",
    "SchemeOneSet",
    "SchemeOneSetOuter",
    "SchemeTwoSet",
    "SchemeDegraded",
    "entropy",
    "mutual_information",
    "parse_query",
    "stacked_mutual_information",
    "stacked_joint",
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
        if not abs(total - 1.0) <= MASS_TOL:   # NaN fails too
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


@dataclass(frozen=True)
class JointStack:
    """N dense joints over the same named variables, stacked on a leading
    axis: prob has shape (N, *sizes).

    Every joint passes the checks JointPMF makes of one table, and the
    first joint that fails raises the same typed error.
    """

    variables: tuple[str, ...]
    prob: np.ndarray
    # marginal entropies by the set of kept names, shared by the queries
    # on this stack
    _entropies: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        if len(self.variables) + 1 != self.prob.ndim:
            raise DimensionMismatch(
                f"{len(self.variables)} names for a stack of rank-"
                f"{self.prob.ndim - 1} tables"
            )
        if len(set(self.variables)) != len(self.variables):
            raise DimensionMismatch(f"duplicate variable names: {self.variables}")
        cells = math.prod(self.prob.shape[1:])
        if cells > max_states():
            raise EnumerationTooLarge(
                f"joint with {cells} states exceeds the ceiling of "
                f"{max_states()}; raise GMAC_MAX_STATES to override"
            )
        flat = self.prob.reshape(self.prob.shape[0], -1)
        negative = (flat < 0).any(axis=1)
        totals = flat.sum(axis=1)
        failed = negative | ~(np.abs(totals - 1.0) <= MASS_TOL)
        if failed.any():
            i = int(np.argmax(failed))
            if negative[i]:
                raise NegativeProbability(
                    f"negative joint mass {float(flat[i].min())}"
                )
            raise RowSumViolation(
                f"joint mass {float(totals[i])} is not 1 within {MASS_TOL}"
            )

    axis = JointPMF.axis

    def marginal_entropies(self, names: tuple[str, ...]) -> np.ndarray:
        """H of the marginal over names for every joint, shape (N,)."""
        key = frozenset(names)
        if key not in self._entropies:
            keep = {self.axis(n) for n in names}
            self._entropies[key] = _stacked_entropy(self.prob, keep)
        return self._entropies[key]


def _stacked_entropy(prob: np.ndarray, keep) -> np.ndarray:
    """_marginal_entropy of each joint of a stack, summed in numpy's order.

    Each row's positive masses are sorted ascending and reduced by one sum
    along the rows of a contiguous (rows, k) block holding the rows with
    exactly k positive masses. That is the summation _marginal_entropy runs
    on one row: numpy sums a row of 8 or more with eight accumulators, so
    padding rows to a common width would change the last bits.
    """
    n = prob.shape[0]
    if not keep:
        return np.zeros(n)
    drop = tuple(i + 1 for i in range(prob.ndim - 1) if i not in keep)
    marg = prob.sum(axis=drop) if drop else prob
    ordered = np.sort(marg.reshape(n, -1), axis=1)
    width = ordered.shape[1]
    counts = (ordered > 0).sum(axis=1)
    out = np.empty(n)
    ks = set(counts.tolist())
    for k in ks:
        rows = counts == k if len(ks) > 1 else slice(None)
        masses = np.ascontiguousarray(ordered[rows, width - k:])
        out[rows] = -(masses * np.log2(masses)).sum(axis=1)
    return out


def stacked_mutual_information(joint: JointStack, a, b, given=()) -> np.ndarray:
    """I(a; b | given) of every joint in the stack, shape (N,): bit for bit
    what mutual_information gives on each joint alone, clamp included."""
    a = _normalize_names(joint, a)
    b = _normalize_names(joint, b)
    given = _normalize_names(joint, given)
    combined = set(a) | set(b) | set(given)
    if len(combined) != len(a) + len(b) + len(given):
        raise ValueError(f"groups {a}, {b}, {given} must be pairwise disjoint")
    h = joint.marginal_entropies
    value = h(a + given) - h(given) - h(a + b + given) + h(b + given)
    # max(value, 0.0) keeps value unless 0.0 > value, -0.0 included
    return np.where(0.0 > value, 0.0, value)


_QUERY = re.compile(r"\s*([IH])\s*\((.*)\)\s*")


def _names(blob: str) -> tuple[str, ...]:
    names = tuple(part.strip() for part in blob.split(","))
    if any(not n for n in names):
        raise ValueError(f"empty variable name in {blob!r}")
    return names


def parse_query(query: str) -> tuple:
    """The parts of "I(A;B|C)" or "H(A|C)": ("I", a, b, given) or
    ("H", a, given), each group a tuple of names.

    Groups are comma lists, and "|C" may be left out (given is then ()).
    """
    m = _QUERY.fullmatch(query)
    if not m:
        raise ValueError(f"cannot parse query {query!r}")
    letter, body = m.groups()
    head, bar, tail = body.partition("|")
    given = _names(tail) if bar else ()
    if letter == "H":
        return "H", _names(head), given
    sides = head.split(";")
    if len(sides) != 2:
        raise ValueError(f"I(...) needs exactly two groups, got {head!r}")
    return "I", _names(sides[0]), _names(sides[1]), given


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
    if not np.abs(sums - 1.0).max() <= MASS_TOL:
        raise RowSumViolation(f"rows of {name} must sum to 1 within {MASS_TOL}")
    arr = arr / sums[:, None]
    arr.setflags(write=False)
    return arr


def _normalized_joint(name, raw, ndim):
    arr = _as_prob_array(name, raw, ndim)
    total = arr.sum()
    if not abs(total - 1.0) <= MASS_TOL:
        raise RowSumViolation(f"{name} must sum to 1 within {MASS_TOL}")
    arr = arr / total
    arr.setflags(write=False)
    return arr


class _Scheme:
    """Construction shared by the scheme dataclasses, read from their kind's
    entry in _SCHEME_FIELDS: a joint table is normalized to total mass one,
    a conditional table ("_given_") row by row, and tables that share a
    variable must agree on its alphabet size."""

    def __post_init__(self):
        spec = _SCHEME_FIELDS[_kind_of(self)]
        for f in spec.fields:
            raw = getattr(self, f)
            table = (_normalized_rows(f, raw) if "_given_" in f
                     else _normalized_joint(f, raw, len(spec.letters[f])))
            object.__setattr__(self, f, table)
        _alphabet_sizes(spec, {f: getattr(self, f).shape for f in spec.fields})


@dataclass(frozen=True)
class SchemeOneSet(_Scheme):
    """Input scheme p(q, x2) p(u | q) p(x1 | u) for one confidential sender.

    Sender 1 splits its traffic through the auxiliary U; sender 2's input is
    drawn jointly with the time-sharing variable Q.
    """

    p_q_x2: np.ndarray
    p_u_given_q: np.ndarray
    p_x1_given_u: np.ndarray


@dataclass(frozen=True)
class SchemeOneSetOuter(_Scheme):
    """One-sender scheme extended with a second auxiliary V drawn from Q."""

    p_q_x2: np.ndarray
    p_u_given_q: np.ndarray
    p_x1_given_u: np.ndarray
    p_v_given_q: np.ndarray


@dataclass(frozen=True)
class SchemeTwoSet(_Scheme):
    """Scheme p(q) p(u|q) p(x1|u) p(v|q) p(x2|v) for two confidential senders."""

    p_q: np.ndarray
    p_u_given_q: np.ndarray
    p_x1_given_u: np.ndarray
    p_v_given_q: np.ndarray
    p_x2_given_v: np.ndarray


@dataclass(frozen=True)
class SchemeDegraded(_Scheme):
    """Scheme p(q, x2) p(x1 | q) used when no auxiliary U is needed."""

    p_q_x2: np.ndarray
    p_x1_given_q: np.ndarray


# The joint variable each einsum letter below stands for.
_VARIABLES = {"q": "Q", "u": "U", "v": "V", "x": "X1", "t": "X2",
              "y": "Y", "w": "Y1", "z": "Y2"}


class _Kind:
    """A scheme kind: its class, its stored fields in sampling order, and
    its joint, spelled once as einsum subscripts: the fields in product
    order (factors, when that is not the fields' order), then the channel,
    over "xtywz", or over "xtyz" once Y1 is summed out when the joint does
    not keep it.
    """

    def __init__(self, cls, fields, subscripts, factors=None):
        self.cls, self.fields = cls, fields
        operands, self.out = subscripts.split("->")
        *letters, channel_letters = operands.split(",")
        # each field's letters, by field name in product order
        self.letters = dict(zip(factors or fields, letters))
        self.variables = tuple(_VARIABLES[c] for c in self.out)
        # the same product for N schemes stacked on a leading axis n
        self.stacked = ",".join(["n" + sub for sub in letters]
                                + [f"{channel_letters}->n{self.out}"])


_SCHEME_FIELDS = {
    "one_set": _Kind(SchemeOneSet, ("p_q_x2", "p_u_given_q", "p_x1_given_u"),
                     "qt,qu,ux,xtyz->quxtyz"),
    # V is drawn from Q alone, so it joins the product before X1
    "one_set_outer": _Kind(
        SchemeOneSetOuter, ("p_q_x2", "p_u_given_q", "p_x1_given_u", "p_v_given_q"),
        "qt,qu,qv,ux,xtyz->quvxtyz",
        ("p_q_x2", "p_u_given_q", "p_v_given_q", "p_x1_given_u")),
    # both feedback outputs kept
    "two_set": _Kind(
        SchemeTwoSet,
        ("p_q", "p_u_given_q", "p_x1_given_u", "p_v_given_q", "p_x2_given_v"),
        "q,qu,ux,qv,vt,xtywz->quvxtywz"),
    "degraded": _Kind(SchemeDegraded, ("p_q_x2", "p_x1_given_q"), "qt,qx,xtyz->qxtyz"),
}
_KIND_OF_CLASS = {spec.cls: kind for kind, spec in _SCHEME_FIELDS.items()}


def _kind_of(scheme) -> str:
    try:
        return _KIND_OF_CLASS[type(scheme)]
    except KeyError:
        raise TypeError(f"not a scheme: {type(scheme).__name__}") from None


def _alphabet_sizes(spec: _Kind, shapes: dict) -> dict:
    """The size of each letter the fields carry, from their shapes by
    field name; raises DimensionMismatch when two fields disagree."""
    sizes = {}
    for f, letters in spec.letters.items():
        for letter, n in zip(letters, shapes[f]):
            if sizes.setdefault(letter, n) != n:
                raise DimensionMismatch(
                    f"{f} has {n} entries for {_VARIABLES[letter]}, the other "
                    f"tables {sizes[letter]}"
                )
    return sizes


def _joint_shape(kind: str, shapes, channel: ChannelSpec) -> tuple[int, ...]:
    """Shape of one joint of this kind, from its fields' shapes (in
    sampling order) and the channel's.

    Raises DimensionMismatch when the scheme's input alphabets are not the
    channel's.
    """
    spec = _SCHEME_FIELDS[kind]
    sizes = _alphabet_sizes(spec, dict(zip(spec.fields, shapes)))
    if (sizes["x"], sizes["t"]) != (channel.size_x1, channel.size_x2):
        raise DimensionMismatch(
            f"scheme inputs ({sizes['x']}, {sizes['t']}) do not match channel "
            f"({channel.size_x1}, {channel.size_x2})"
        )
    sizes = {**dict(zip("xtywz", channel.prob.shape)), **sizes}
    return tuple(sizes[c] for c in spec.out)


def stacked_joint(kind: str, tables, channel: ChannelSpec) -> JointStack:
    """The joints of N schemes of one kind, stacked on a leading axis.

    tables are the kind's fields in sampling order, each stacked as
    (N, *shape) with every row normalized. One einsum multiplies the
    factors cell by cell in the kind's product order, so joint i is, bit
    for bit, the joint of scheme i alone (the N = 1 call).
    """
    spec = _SCHEME_FIELDS[kind]
    if len(tables) != len(spec.fields):
        raise TypeError(f"a {kind} joint takes {len(spec.fields)} tables, got {len(tables)}")
    _joint_shape(kind, [t.shape[1:] for t in tables], channel)
    by_name = dict(zip(spec.fields, tables))
    w = channel.prob if "w" in spec.out else channel.prob.sum(axis=3)
    prob = np.einsum(spec.stacked, *(by_name[f] for f in spec.letters), w)
    return JointStack(spec.variables, prob)


def _stack_of_one(scheme) -> list:
    """A scheme's fields, in sampling order, as stacks of one."""
    return [getattr(scheme, f)[None] for f in _SCHEME_FIELDS[_kind_of(scheme)].fields]


def _assemble_joint(scheme, channel: ChannelSpec) -> JointPMF:
    """The joint of one scheme: stacked_joint with N = 1."""
    stack = stacked_joint(_kind_of(scheme), _stack_of_one(scheme), channel)
    return JointPMF(stack.variables, stack.prob[0])


def assemble_joint_one_set(scheme: SchemeOneSet, channel: ChannelSpec) -> JointPMF:
    """Joint over (Q, U, X1, X2, Y, Y2); the sender-1 feedback is marginalized."""
    return _assemble_joint(scheme, channel)


def assemble_joint_one_set_outer(scheme: SchemeOneSetOuter, channel: ChannelSpec) -> JointPMF:
    """Joint over (Q, U, V, X1, X2, Y, Y2) with V conditionally independent given Q."""
    return _assemble_joint(scheme, channel)


def assemble_joint_two_set(scheme: SchemeTwoSet, channel: ChannelSpec) -> JointPMF:
    """Joint over (Q, U, V, X1, X2, Y, Y1, Y2); both feedback outputs kept."""
    return _assemble_joint(scheme, channel)


def assemble_joint_degraded(scheme: SchemeDegraded, channel: ChannelSpec) -> JointPMF:
    """Joint over (Q, X1, X2, Y, Y2) for schemes without an auxiliary."""
    return _assemble_joint(scheme, channel)


def _scheme_doc(kind: str, tables) -> dict:
    """The JSON form of a scheme of this kind from its normalized fields,
    given in sampling order."""
    doc = {"kind": kind}
    for f, table in zip(_SCHEME_FIELDS[kind].fields, tables):
        doc[f] = np.asarray(table).tolist()
    return doc


def scheme_to_dict(scheme) -> dict:
    """JSON-friendly form of any scheme, tagged with its kind."""
    kind = _kind_of(scheme)
    return _scheme_doc(kind, [getattr(scheme, f) for f in _SCHEME_FIELDS[kind].fields])


def scheme_from_dict(doc: dict):
    """Inverse of scheme_to_dict."""
    try:
        kind = doc["kind"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"scheme document lacks a kind: {exc}")
    if kind not in _SCHEME_FIELDS:
        raise DimensionMismatch(f"unknown scheme kind {kind!r}")
    spec = _SCHEME_FIELDS[kind]
    try:
        arrays = {f: np.asarray(doc[f], dtype=float) for f in spec.fields}
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed scheme document: {exc}")
    return spec.cls(**arrays)
