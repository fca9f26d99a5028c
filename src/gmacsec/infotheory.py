"""Dense joint distributions, entropy, mutual information, and input schemes.

Conventions: all logs are base 2, 0 log 0 = 0, and entropies are computed by
summing the sorted positive atom masses. Sorting makes joints that are mere
relabelings of one another (same multiset of masses) produce bitwise-identical
entropies, which downstream code relies on when differences of information
quantities must cancel exactly. The one summation, _owned_entropies, runs on
rows its caller hands over: it sorts them and forms -p log p where they lie,
a fixed-size chunk of np.log2 at a time, so an entropy holds no copy of its
table beyond the marginal itself. marginal_entropies hands it fresh sums, or
a copy when every axis is kept, and never writes a stack's masses;
stacked_entropy_in_place hands it the masses of a whole stack that its
caller gives up, so H of that joint copies nothing.

A JointStack holds N joints over the same variables on a leading axis, and
one joint is a stack of one; stacked_entropy and stacked_mutual_information
give each joint's H(A|C) and I(A;B|C), whatever else its stack holds.

parse_query reads the notation "I(A;B|C)" and "H(A|C)", in which the
CLI's info queries and the bounds' information terms are written.
"""

from __future__ import annotations

import dataclasses
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

MASS_TOL = 1e-9


@dataclass(frozen=True)
class JointStack:
    """N dense joints over the same named variables, stacked on a leading
    axis: prob has shape (N, *sizes). One joint is a stack of one.

    Each joint must have at most max_states() cells and nonnegative masses
    summing to one within MASS_TOL; the first joint that fails raises the
    typed error.
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
        failed = negative | ~(np.abs(totals - 1.0) <= MASS_TOL)   # NaN fails too
        if failed.any():
            i = int(np.argmax(failed))
            if negative[i]:
                raise NegativeProbability(
                    f"negative joint mass {float(flat[i].min())}"
                )
            raise RowSumViolation(
                f"joint mass {float(totals[i])} is not 1 within {MASS_TOL}"
            )

    def axis(self, name: str) -> int:
        if name not in self.variables:
            raise UnknownVariable(f"variable {name!r} not in joint over {self.variables}")
        return self.variables.index(name)

    def marginal_entropies(self, names: tuple[str, ...]) -> np.ndarray:
        """H of the marginal over names for every joint, shape (N,)."""
        key = frozenset(names)
        if key not in self._entropies:
            keep = {self.axis(n) for n in names}
            self._entropies[key] = _stacked_entropy(self.prob, keep)
        return self._entropies[key]


def _stacked_entropy(prob: np.ndarray, keep) -> np.ndarray:
    """H of the marginal over the axes keep of each joint of a stack, shape
    (N,). prob is only read: a marginal that drops axes is a fresh sum, and
    one that keeps them all is copied once, so _owned_entropies owns it."""
    n = prob.shape[0]
    if not keep:
        return np.zeros(n)
    drop = tuple(i + 1 for i in range(prob.ndim - 1) if i not in keep)
    marg = prob.sum(axis=drop) if drop else prob.copy()
    return _owned_entropies(marg.reshape(n, -1))


# Cells of np.log2 per step of _owned_entropies: its only temporary, 64 KiB
LOG_CHUNK = 1 << 13


def _owned_entropies(rows: np.ndarray) -> np.ndarray:
    """H of each row of masses of an (N, width) array, shape (N,): the
    package's one summation of -p log p.

    The caller hands over rows, a float array that it owns and no longer
    reads, and which is overwritten: each row is sorted ascending where it
    lies. Each row is then reduced along the rows of a contiguous (rows, k)
    block holding the rows with exactly k positive masses: a view of rows
    when it is one row or every cell of rows, and a copy otherwise. The
    block's masses become m * log2(m) in place, LOG_CHUNK cells of np.log2
    at a time, and each row is negated after one sum along it. numpy sums a
    row of 8 or more with eight accumulators, so padding rows to a common
    width would change the last bits; this way a row's bits do not depend
    on its stack, and the chunks, which only decide how much np.log2 writes
    at once, move no bit either.
    """
    rows.sort(axis=1)
    width = rows.shape[1]
    counts = (rows > 0).sum(axis=1)
    out = np.empty(rows.shape[0])
    ks = set(counts.tolist())
    for k in ks:
        sel = counts == k if len(ks) > 1 else slice(None)
        masses = np.ascontiguousarray(rows[sel, width - k:])
        flat = masses.reshape(-1)
        for start in range(0, flat.size, LOG_CHUNK):
            part = flat[start:start + LOG_CHUNK]
            part *= np.log2(part)
        out[sel] = -masses.sum(axis=1)
    return out


def _normalize_names(joint: JointStack, names) -> tuple[str, ...]:
    if isinstance(names, str):
        names = (names,)
    names = tuple(names)
    for name in names:
        joint.axis(name)
    if len(set(names)) != len(names):
        raise ValueError(f"repeated variable in {names}")
    return names


def _entropy_names(joint: JointStack, targets, given) -> tuple:
    targets = _normalize_names(joint, targets)
    given = _normalize_names(joint, given)
    if set(targets) & set(given):
        raise ValueError(f"targets {targets} and conditioning {given} overlap")
    return targets, given


def stacked_entropy(joint: JointStack, targets, given=()) -> np.ndarray:
    """H(targets | given) of every joint in the stack, shape (N,), in bits."""
    targets, given = _entropy_names(joint, targets, given)
    h = joint.marginal_entropies
    return h(targets + given) - h(given)


def stacked_entropy_in_place(joint: JointStack, targets, given=()) -> np.ndarray:
    """stacked_entropy, bit for bit, of a stack its caller hands over and
    reads no more.

    When targets and given name every variable, H of the whole joint sorts
    and weighs joint.prob where it lies, after H(given) has read it, so no
    joint-sized copy is made; joint.prob is then left overwritten.
    """
    targets, given = _entropy_names(joint, targets, given)
    h_given = joint.marginal_entropies(given)
    if len(targets) + len(given) < len(joint.variables):
        return joint.marginal_entropies(targets + given) - h_given
    prob = joint.prob
    return _owned_entropies(prob.reshape(prob.shape[0], -1)) - h_given


def stacked_mutual_information(joint: JointStack, a, b, given=()) -> np.ndarray:
    """I(a; b | given) of every joint in the stack, shape (N,), in bits,
    clamped at 0.

    The raw value can undershoot zero by floating-point dust (never below
    about -1e-12 at these table sizes); the clamp removes it.
    """
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


def _simplex_normalized(rows: np.ndarray) -> np.ndarray:
    """Each simplex of a table, laid out on its last axis, divided by its
    sum: the package's one normalization of scheme tables."""
    return rows / rows.sum(axis=-1, keepdims=True)


class _Scheme:
    """Construction shared by the scheme dataclasses, on their kind's layout
    (_Kind.blocks): every simplex must be nonnegative and sum to one within
    MASS_TOL, and is then divided by its sum; tables that share a variable
    must agree on its alphabet size."""

    def __post_init__(self):
        spec = _SCHEME_FIELDS[_kind_of(self)]
        tables = {f: np.asarray(getattr(self, f), dtype=float) for f in spec.fields}
        sizes = _alphabet_sizes(spec, {f: arr.shape for f, arr in tables.items()})
        for f, rows, cols, shape in spec.blocks(sizes):
            arr = tables[f].reshape(rows, cols)
            if np.any(arr < 0):
                raise NegativeProbability(f"{f} has a negative entry")
            if not np.abs(arr.sum(axis=-1) - 1.0).max() <= MASS_TOL:   # NaN fails too
                raise RowSumViolation(f"each simplex of {f} must sum to 1 within {MASS_TOL}")
            table = _simplex_normalized(arr).reshape(shape)
            table.setflags(write=False)
            object.__setattr__(self, f, table)


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
    """A scheme kind: its dataclass, whose fields in declaration order are
    the sampling order, and its joint, spelled once as einsum subscripts:
    the fields in product order (factors, when that is not the fields'
    order), then the channel, over "xtywz", or over "xtyz" once Y1 is
    summed out when the joint does not keep it.
    """

    def __init__(self, cls, subscripts, factors=None):
        self.cls = cls
        self.fields = tuple(f.name for f in dataclasses.fields(cls))
        operands, self.out = subscripts.split("->")
        *letters, channel_letters = operands.split(",")
        # each field's letters, by field name in product order
        self.letters = dict(zip(factors or self.fields, letters))
        self.variables = tuple(_VARIABLES[c] for c in self.out)
        # the same product for N schemes stacked on a leading axis n
        self.stacked = ",".join(["n" + sub for sub in letters]
                                + [f"{channel_letters}->n{self.out}"])

    def blocks(self, sizes: dict) -> list:
        """The simplex layout (name, rows, cols, shape) of each field, in
        sampling order, from the alphabet size of each variable by name
        (extra names are ignored); shape has one entry per letter of the
        field. A "_given_" table has a simplex row per value of its leading
        letters over its last letter; a joint table, such as p_q_x2, is one
        simplex."""
        out = []
        for name in self.fields:
            shape = tuple(sizes[_VARIABLES[c]] for c in self.letters[name])
            rows = math.prod(shape[:-1]) if "_given_" in name else 1
            out.append((name, rows, math.prod(shape) // rows, shape))
        return out


_SCHEME_FIELDS = {
    "one_set": _Kind(SchemeOneSet, "qt,qu,ux,xtyz->quxtyz"),
    # V is drawn from Q alone, so it joins the product before X1
    "one_set_outer": _Kind(SchemeOneSetOuter, "qt,qu,qv,ux,xtyz->quvxtyz",
                           ("p_q_x2", "p_u_given_q", "p_v_given_q", "p_x1_given_u")),
    # both feedback outputs kept
    "two_set": _Kind(SchemeTwoSet, "q,qu,ux,qv,vt,xtywz->quvxtywz"),
    "degraded": _Kind(SchemeDegraded, "qt,qx,xtyz->qxtyz"),
}
_KIND_OF_CLASS = {spec.cls: kind for kind, spec in _SCHEME_FIELDS.items()}


def _kind_of(scheme) -> str:
    try:
        return _KIND_OF_CLASS[type(scheme)]
    except KeyError:
        raise TypeError(f"not a scheme: {type(scheme).__name__}") from None


def _alphabet_sizes(spec: _Kind, shapes: dict) -> dict:
    """The alphabet size of each variable the fields carry, by name, from
    their shapes by field name; raises DimensionMismatch when a field has
    the wrong number of axes or two fields disagree."""
    sizes = {}
    for f, letters in spec.letters.items():
        if len(shapes[f]) != len(letters):
            raise DimensionMismatch(f"{f} must have {len(letters)} axes, got {len(shapes[f])}")
        for letter, n in zip(letters, shapes[f]):
            variable = _VARIABLES[letter]
            if sizes.setdefault(variable, n) != n:
                raise DimensionMismatch(
                    f"{f} has {n} entries for {variable}, the other "
                    f"tables {sizes[variable]}"
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
    if (sizes["X1"], sizes["X2"]) != (channel.size_x1, channel.size_x2):
        raise DimensionMismatch(
            f"scheme inputs ({sizes['X1']}, {sizes['X2']}) do not match channel "
            f"({channel.size_x1}, {channel.size_x2})"
        )
    sizes = {**dict(zip(("X1", "X2", "Y", "Y1", "Y2"), channel.prob.shape)), **sizes}
    return tuple(sizes[v] for v in spec.variables)


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


def _assemble_joint(scheme, channel: ChannelSpec) -> JointStack:
    """The joint of one scheme: stacked_joint with N = 1."""
    return stacked_joint(_kind_of(scheme), _stack_of_one(scheme), channel)


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
    """Inverse of scheme_to_dict. A key other than kind and the kind's
    fields raises DimensionMismatch."""
    try:
        kind = doc["kind"]
    except (KeyError, TypeError) as exc:
        raise DimensionMismatch(f"scheme document lacks a kind: {exc}")
    if not isinstance(kind, str) or kind not in _SCHEME_FIELDS:
        raise DimensionMismatch(f"unknown scheme kind {kind!r}")
    spec = _SCHEME_FIELDS[kind]
    unknown = [key for key in doc if key != "kind" and key not in spec.fields]
    if unknown:
        raise DimensionMismatch(f"a {kind} scheme document has unknown keys {unknown}")
    try:
        arrays = {f: np.asarray(doc[f], dtype=float) for f in spec.fields}
    except (KeyError, TypeError, ValueError) as exc:
        raise DimensionMismatch(f"malformed scheme document: {exc}")
    return spec.cls(**arrays)
